"""Sparse homogeneous polynomials in x0..xn over an exact field.

Monomials are exponent tuples; a polynomial is a dict {exponents: coeff}
tagged with its ring. Term orders provide a sort key, so "larger monomial"
always means "larger key". Everything is treated as immutable after
construction.
"""
from __future__ import annotations

import re
from fractions import Fraction
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
            return (sum(e), tuple(map(neg, e[::-1])))
        if self.kind == LEX:
            return e
        return (sum(e[: self.block]), sum(e), tuple(map(neg, e[::-1])))

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


def order_from_string(text: str) -> TermOrder:
    text = text.strip()
    if text in (GREVLEX, LEX):
        return TermOrder(text)
    m = re.fullmatch(r"elim(\d+)", text)
    if m:
        return TermOrder(ELIM, int(m.group(1)))
    raise ParseError(f"unknown term order {text!r}")


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
        return cls(
            int(data["nvars"]),
            field_from_string(str(data.get("field", DEFAULT_PRIME))),
            order_from_string(data.get("order", GREVLEX)),
        )

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

    def leading(self, order: TermOrder | None = None) -> tuple[Exponents, object]:
        """(monomial, coefficient) of the order-maximal term. Errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        order = order or self.ring.order
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def monic(self, order: TermOrder | None = None) -> "Poly":
        if self.is_zero():
            return self
        _, c = self.leading(order)
        return self.scale(self.ring.field.inv(c))

    def sorted_terms(self, order: TermOrder | None = None) -> list:
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

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


def leading_term(f: Poly, order: TermOrder | None = None) -> tuple[Exponents, object]:
    return f.leading(order)


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
# a/b coefficients. parse(poly_to_str(f)) == f exactly.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[\^\*\+\-])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r} in polynomial")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


def parse_poly(ring: RingSpec, text: str) -> Poly:
    """Parse the canonical text syntax into a polynomial of `ring`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    f = ring.field
    terms: dict = {}
    pos = 0

    def parse_factor():
        nonlocal pos
        kind, val = tokens[pos]
        if kind == "num":
            pos += 1
            return ("coeff", f.from_fraction(Fraction(val)))
        if kind == "var":
            idx = int(val[1:])
            if idx >= ring.nvars:
                raise ParseError(f"variable {val} out of range for {ring.nvars} variables")
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos] == ("op", "^"):
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] != "num" or "/" in tokens[pos][1]:
                    raise ParseError("expected integer exponent after '^'")
                power = int(tokens[pos][1])
                pos += 1
            return ("mono", idx, power)
        raise ParseError(f"expected coefficient or variable, got {val!r}")

    first_term = True
    while pos < len(tokens):
        sign = f.one
        saw_sign = False
        while pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = f.neg(sign)
            saw_sign = True
            pos += 1
        if not first_term and not saw_sign:
            raise ParseError("expected '+' or '-' between terms")
        first_term = False
        if pos >= len(tokens):
            raise ParseError("dangling sign at end of polynomial")
        coeff = sign
        exps = [0] * ring.nvars
        while True:
            factor = parse_factor()
            if factor[0] == "coeff":
                coeff = f.mul(coeff, factor[1])
            else:
                _, idx, power = factor
                exps[idx] += power
            if pos < len(tokens) and tokens[pos] == ("op", "*"):
                pos += 1
                continue
            break
        e = tuple(exps)
        terms[e] = f.add(terms.get(e, f.zero), coeff)
    return Poly(ring, terms)


def _mono_str(e: Exponents) -> str:
    parts = [f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k]
    return "*".join(parts)


def poly_to_str(p: Poly) -> str:
    """Canonical text: terms descending in the ring order, balanced coefficients."""
    if p.is_zero():
        return "0"
    f = p.ring.field
    pieces = []
    for e, c in p.sorted_terms():
        c_str = f.scalar_str(c)
        neg = c_str.startswith("-")
        if neg:
            c_str = c_str[1:]
        mono = _mono_str(e)
        if not mono:
            body = c_str
        elif c_str == "1":
            body = mono
        else:
            body = f"{c_str}*{mono}"
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += sign + body
    return out
