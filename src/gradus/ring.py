"""Sparse homogeneous polynomials in x0..xn over an exact field.

Monomials are exponent tuples; a polynomial is a dict {exponents: coeff}
tagged with its ring. Term orders provide a sort key, so "larger monomial"
always means "larger key". Everything is treated as immutable after
construction.
"""
from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from operator import add, le, neg, sub

from .errors import ParseError
from .field import DEFAULT_PRIME, Field, PrimeField, field_from_string

Exponents = tuple[int, ...]

GREVLEX = "grevlex"
LEX = "lex"
ELIM = "elim"


class TermOrder:
    """Monomial order: grevlex, lex, or an elimination block order.

    The elimination order with block boundary k compares total degree in the
    first k variables first (so those variables are eliminated), with grevlex
    breaking ties; it is total and multiplicative.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str = GREVLEX, block: int = 0):
        if kind not in (GREVLEX, LEX, ELIM):
            raise ValueError(f"unknown term order {kind!r}")
        if kind == ELIM and block < 1:
            raise ValueError("elimination order needs a block boundary >= 1")
        self.kind = kind
        self.block = block if kind == ELIM else 0

    def key(self, e: Exponents):
        if self.kind == GREVLEX:
            return _grevlex_key(e)
        if self.kind == LEX:
            return e
        return (sum(e[: self.block]),) + _grevlex_key(e)

    def name(self) -> str:
        return self.kind if self.kind != ELIM else f"elim{self.block}"

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and other.kind == self.kind
            and other.block == self.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        return f"TermOrder({self.name()!r})"


@lru_cache(maxsize=4096)
def _grevlex_key(e: Exponents) -> tuple:
    return (sum(e), tuple(map(neg, e[::-1])))


def order_from_string(text: str) -> TermOrder:
    text = text.strip()
    if text in (GREVLEX, LEX):
        return TermOrder(text)
    m = re.fullmatch(r"elim(\d+)", text)
    if m and int(m.group(1)):  # elimination needs a block boundary >= 1
        return TermOrder(ELIM, int(m.group(1)))
    raise ParseError(f"unknown term order {text!r}")


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def expect_json(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (a bool is no integer), else
    a ParseError naming `what`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{what} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def json_key(data: dict, key: str, kind: type, what: str):
    """data[key], which must be there and have the JSON type `kind`."""
    if key not in data:
        raise ParseError(f"{what} has no {key!r}")
    return expect_json(data[key], kind, f"{what} {key!r}")


def compare_monomials(a: Exponents, b: Exponents, order: TermOrder) -> int:
    """-1, 0, or 1 as a <, =, > b under the order."""
    if len(a) != len(b):
        raise ValueError("monomials from different rings")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def mono_degree(e: Exponents) -> int:
    return sum(e)


class RingSpec:
    """k[x0..xn] with deg(xi) = 1, a coefficient field, and a term order."""

    __slots__ = ("nvars", "field", "order")

    def __init__(self, nvars: int, field: Field | None = None, order: TermOrder | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self.order = order if order is not None else TermOrder(GREVLEX)

    def variable_names(self) -> list[str]:
        return [f"x{i}" for i in range(self.nvars)]

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def constant(self, c) -> "Poly":
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def monomials_of_degree(self, d: int) -> list[Exponents]:
        return monomials_of_degree(self.nvars, d, self.order)

    def random_form(self, d: int, rng) -> "Poly":
        """Dense homogeneous form of degree d with uniform random coefficients."""
        terms = {}
        for e in monomials_of_degree(self.nvars, d, self.order):
            c = self.field.random(rng)
            if not self.field.is_zero(c):
                terms[e] = c
        return Poly(self, terms)

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "field": self.field.spec_string(),
            "order": self.order.name(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RingSpec":
        """The ring `to_json` wrote; a wrong shape or a ring the constructor
        refuses is a ParseError."""
        expect_json(data, dict, "ring")
        spec = expect_json(data.get("field", str(DEFAULT_PRIME)), str, "ring 'field'")
        nvars = json_key(data, "nvars", int, "ring")
        field = field_from_string(spec)
        order = order_from_string(expect_json(data.get("order", GREVLEX), str, "ring 'order'"))
        try:
            return cls(nvars, field, order)
        except ValueError as exc:
            raise ParseError(f"bad ring: {exc}") from None

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and other.nvars == self.nvars
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.nvars, self.field, self.order))

    def __repr__(self):
        return f"RingSpec(nvars={self.nvars}, field={self.field!r}, order={self.order!r})"


@lru_cache(maxsize=8192)
def _monomials_sorted(nvars: int, d: int, kind: str, block: int) -> tuple[Exponents, ...]:
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, nvars)
    assert len(out) == comb(nvars - 1 + d, d)
    order = TermOrder(kind, block) if kind == ELIM else TermOrder(kind)
    out.sort(key=order.key, reverse=True)
    return tuple(out)


def monomials_of_degree(nvars: int, d: int, order: TermOrder | None = None) -> list[Exponents]:
    """All exponent tuples of total degree d, descending in the order.

    len(result) == comb(nvars - 1 + d, d).
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if order is None:
        order = TermOrder(GREVLEX)
    return list(_monomials_sorted(nvars, d, order.kind, order.block))


class Poly:
    """Sparse polynomial: {exponent tuple: nonzero canonical coefficient}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        f = ring.field
        self.terms = {e: c for e, c in terms.items() if not f.is_zero(c)}

    @classmethod
    def _nonzero(cls, ring: RingSpec, terms: dict) -> "Poly":
        """The polynomial of `terms`, whose coefficients are already
        canonical and non-zero (read off an array's non-zero entries), kept
        as given with no test per term."""
        g = cls.__new__(cls)
        g.ring, g.terms = ring, terms
        return g

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _check_ring(self, other: "Poly"):
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        f = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = f.add(terms.get(e, f.zero), c)
        return Poly(self.ring, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        f = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = f.sub(terms.get(e, f.zero), c)
        return Poly(self.ring, terms)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        f = self.ring.field
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                prod = f.mul(c1, c2)
                cur = terms.get(e)
                terms[e] = prod if cur is None else f.add(cur, prod)
        return Poly(self.ring, terms)

    def scale(self, c) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def mul_term(self, e: Exponents, c) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {mono_mul(e, e2): f.mul(c, c2) for e2, c2 in self.terms.items()})

    def leading(self) -> tuple[Exponents, object]:
        """(monomial, coefficient) of the term maximal in the ring's order.
        Errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=self.ring.order.key)
        return e, self.terms[e]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, c = self.leading()
        return self.scale(self.ring.field.inv(c))

    def evaluate(self, coords: tuple) -> object:
        """Evaluate at affine coordinates (one scalar per variable), with one
        power per variable of each term."""
        f = self.ring.field
        if f.kind == "prime":
            p = f.p
            total = 0
            for e, c in self.terms.items():
                for x, k in zip(coords, e):
                    if k:
                        c = c * pow(x, k, p) % p
                total += c
            return total % p
        total = f.zero
        for e, c in self.terms.items():
            for x, k in zip(coords, e):
                if k:
                    c = c * x**k
            total += c
        return total

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({poly_to_str(self)!r})"

    def __str__(self):
        return poly_to_str(self)


def leading_term(f: Poly) -> tuple[Exponents, object]:
    return f.leading()


def poly_arith(f: Poly, g: Poly, op: str) -> Poly:
    """add / sub / mul on polynomials of one ring."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Text form: x0^2+x1*x2-3*x2^2 with explicit '*', '^' powers, and integer or
# a/b coefficients; a term's factors may come in any order, as in 2*x0*3*x1.
# parse(poly_to_str(f)) == f exactly, and poly_to_str(f) is canonical.
#
# Both directions work term by term through caches, because the generators
# of one ideal file share most of their monomials: `parse_poly` reads each
# term's monomial text through `_monomial`, and `poly_to_str` writes each
# exponent tuple through `_mono_str`. `_monomial` checks the variable
# indices on a cache miss, and an error is never cached.
# ---------------------------------------------------------------------------

_COEFF = r"\d+(?:/\d+)?"
_FACTOR = rf"(?:x\d+(?:\s*\^\s*\d+)?|{_COEFF})"
# one term: its signs, a leading coefficient if a '*' follows it, and the
# text of its monomial: the other factors joined by '*' (or a lone number)
_TERM = re.compile(
    rf"\s*([-+\s]*)(?:({_COEFF})\s*\*\s*)?({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*"
)
# one factor of a term's monomial text: a number, or a variable and its power
_FACTORS = re.compile(rf"({_COEFF})|x(\d+)(?:\s*\^\s*(\d+))?")


@lru_cache(maxsize=4096)
def _monomial(nvars: int, text: str) -> tuple[Exponents, tuple[str, ...]]:
    """The exponent tuple of a term's monomial text, and the text of the
    numbers among its factors (none in canonical text). A variable out of
    range is reported here, before those numbers are read."""
    exps = [0] * nvars
    nums = []
    for num, var, power in _FACTORS.findall(text):
        if num:
            nums.append(num)
            continue
        idx = int(var)
        if idx >= nvars:
            raise ParseError(f"variable x{var} out of range for {nvars} variables")
        exps[idx] += int(power) if power else 1
    return tuple(exps), tuple(nums)


def parse_poly(ring: RingSpec, text: str) -> Poly:
    """Parse the text syntax into a polynomial of `ring`, with one `_TERM`
    scan over the text whose matches must follow each other."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    f = ring.field
    nvars = ring.nvars
    p = f.p if f.kind == "prime" else 0
    terms: dict = {}
    pos = 0
    for m in _TERM.finditer(text):
        start, end = m.span()
        if start != pos:
            break
        signs, coeff, mono = m.groups()
        if pos and not signs:
            raise ParseError(f"expected '+' or '-' between terms at {text[pos:]!r}")
        if coeff is None:
            c = f.one
        elif p and "/" not in coeff:
            c = int(coeff) % p
        else:
            c = f.parse_scalar(coeff)
        e, nums = _monomial(nvars, mono)
        for num in nums:
            c = f.mul(c, f.parse_scalar(num))
        if signs.count("-") % 2:
            c = f.neg(c)
        terms[e] = f.add(terms[e], c) if e in terms else c
        pos = end
    if pos != len(text):
        raise ParseError(f"cannot read a term at {text[pos:]!r} in polynomial {text!r}")
    return Poly(ring, terms)


@lru_cache(maxsize=4096)
def _mono_str(e: Exponents) -> str:
    return "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)


def poly_to_str(p: Poly) -> str:
    """Canonical text: terms descending in the ring order, balanced
    coefficients, no '1*' and no leading '+'."""
    if p.is_zero():
        return "0"
    scalar_str = p.ring.field.scalar_str
    terms = p.terms
    pieces = []
    for e in sorted(terms, key=p.ring.order.key, reverse=True):
        c = scalar_str(terms[e])
        sign = "+"
        if c[0] == "-":
            sign, c = "-", c[1:]
        mono = _mono_str(e)
        if not mono:
            body = c
        elif c == "1":
            body = mono
        else:
            body = f"{c}*{mono}"
        pieces += (sign, body)
    if pieces[0] == "+":
        pieces[0] = ""
    return "".join(pieces)
