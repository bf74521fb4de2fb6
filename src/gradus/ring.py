"""Sparse homogeneous polynomials in x0..xn over an exact field.

Monomials are exponent tuples; a polynomial is a dict {exponents: coeff}
tagged with its ring. Term orders provide a sort key, so "larger monomial"
always means "larger key". Everything is treated as immutable after
construction.

It also owns the monomial combinatorics the layers above share: the
columns, `_columns(nvars, order, d)`, the one cache of the degree-d
monomials (`monomials_of_degree` reads it), with `_shift`, their map
through "times q", `_form`, which reads a row over them as a form, and
`_divides`, the one test of which leads divide which of them; and the
numerators, K(t) with HS(k[x]/M) = K(t) / (1 - t)^nvars for a
monomial ideal M (`_numerator`), with the series arithmetic on them.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, zip_longest
from math import comb
from operator import add, le, neg, sub

import numpy as np

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


class RingSpec:
    """k[x0..xn] with deg(xi) = 1, a coefficient field, and a term order."""

    __slots__ = ("nvars", "field", "order")

    def __init__(self, nvars: int, field: Field | None = None, order: TermOrder | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self.order = order if order is not None else TermOrder(GREVLEX)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def variable(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

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


def _frozen(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False  # cached, so shared by every caller
    return A


@lru_cache(maxsize=8192)
def _columns(nvars: int, order: TermOrder, d: int):
    """The degree-d monomials in descending order, as a tuple, an array and
    a column index; callers must not mutate the index. There are
    comb(nvars - 1 + d, d) of them, one per multiset of d variables."""
    monos = sorted((tuple(map(vs.count, range(nvars)))
                    for vs in combinations_with_replacement(range(nvars), d)),
                   key=order.key, reverse=True)
    return tuple(monos), _frozen(np.array(monos, dtype=np.int64).reshape(len(monos), nvars)), \
        {e: j for j, e in enumerate(monos)}


def monomials_of_degree(nvars: int, d: int, order: TermOrder | None = None) -> list[Exponents]:
    """All exponent tuples of total degree d, descending in the order.

    len(result) == comb(nvars - 1 + d, d).
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if order is None:
        order = TermOrder(GREVLEX)
    return list(_columns(nvars, order, d)[0])


@lru_cache(maxsize=8192)
def _shift(nvars: int, order: TermOrder, d: int, q: Exponents) -> np.ndarray:
    """Column map of "times q" from degree d to degree d + deg q: entry j is
    the column of q times the j-th degree-d monomial."""
    col = _columns(nvars, order, d + sum(q))[2]
    return _frozen(np.array([col[tuple(map(add, e, q))] for e in _columns(nvars, order, d)[0]],
                            dtype=np.intp))


@lru_cache(maxsize=64)
def _unit(nvars: int, v: int) -> Exponents:
    """The exponent tuple of the variable x_v."""
    return tuple(int(u == v) for u in range(nvars))


def _divides(leads, M: np.ndarray) -> np.ndarray:
    """Entry (i, k) is whether lead k divides the monomial M[i], for leads
    given as exponent tuples or as an array; shape (len(M), len(leads))."""
    L = np.asarray(leads, dtype=np.int64).reshape(-1, M.shape[1])
    return (L <= M[:, None]).all(axis=2)


def _form(ring: RingSpec, monos: tuple, row: np.ndarray) -> Poly:
    """The form with coefficient row[j] on monos[j], read off the row's
    non-zero entries."""
    nz = np.flatnonzero(row)
    return Poly._nonzero(ring, dict(zip([monos[j] for j in nz.tolist()], row[nz].tolist())))


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
        field power per variable of each term."""
        f = self.ring.field
        total = f.zero
        for e, c in self.terms.items():
            for x, k in zip(coords, e):
                if k:
                    c = f.mul(c, f.power(x, k))
            total = f.add(total, c)
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
# Series numerators: a polynomial in t is its list of integer coefficients,
# constant term first; a series h(t) / (1 - t)^dim is the pair (h, dim).
# ---------------------------------------------------------------------------


def _minus(a: list[int], b: list[int]) -> list[int]:
    """a - b, for polynomials in t as coefficient lists, constant term first."""
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _numerator(leads: list[Exponents]) -> list[int]:
    """K(t) with HS(k[x]/(leads)) = K(t) / (1 - t)^nvars, for M the ideal
    of the monomials `leads`.

    Pairwise coprime minimal generators give the product of the
    (1 - t^deg g). Otherwise M splits on a pivot p = x_v^k (Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 119, 1997): x_v is the
    variable in the most minimal generators, and k the median exponent of
    x_v among those that are not pure powers of x_v. The exact sequence
    0 -> R/(M : p)(-k) -> R/M -> R/(M + p) -> 0 gives
    K(M) = K(M + p) + t^k * K(M : p). x_v lies in two generators, at most
    one of them a power x_v^a, and every other has its x_v-exponent below
    a, so p is not in M: both sides are strictly larger monomial ideals,
    and the recursion ends."""
    gens: list[Exponents] = []
    for e in sorted(set(leads), key=sum):  # the minimal generators
        if not any(all(map(le, g, e)) for g in gens):
            gens.append(e)
    counts = [len(column) - column.count(0) for column in zip(*gens)] or [0]
    v = counts.index(max(counts))
    if counts[v] <= 1:
        K = [1]
        for g in gens:  # pairwise coprime: the product of the (1 - t^deg g)
            K = _minus(K, [0] * sum(g) + K)
        return K
    exps = sorted(g[v] for g in gens if 0 < g[v] < sum(g))
    k = exps[len(exps) // 2]
    p = tuple(k if u == v else 0 for u in range(len(gens[0])))
    colon = [g[:v] + (max(g[v] - k, 0),) + g[v + 1:] for g in gens]
    return _minus(_numerator(gens + [p]), [0] * k + [-c for c in _numerator(colon)])


def _reduced(K: list[int], nvars: int) -> tuple[tuple[int, ...], int]:
    """(h, dim) with K(t) / (1 - t)^nvars = h(t) / (1 - t)^dim and h(1) != 0,
    trailing zeros dropped; ((0,), 0) for the zero series."""
    h, dim = list(K), nvars
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    while any(h) and sum(h) == 0:  # divide by 1 - t
        h, dim = list(accumulate(h))[:-1], dim - 1
    return (tuple(h), dim) if any(h) else ((0,), 0)


def _times_one_minus_t(h, k: int) -> list[int]:
    """h(t) * (1 - t)^k, constant term first."""
    h = list(h)
    for _ in range(k):
        h = _minus(h, [0] + h)
    return h


def _coefficient(h, dim: int, d: int) -> int:
    """The coefficient of t^d in h(t) / (1 - t)^dim."""
    if dim == 0:
        return h[d] if d < len(h) else 0
    return sum(c * comb(dim - 1 + d - i, dim - 1) for i, c in enumerate(h[:d + 1]))


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
    terms: dict = {}
    pos = 0
    for m in _TERM.finditer(text):
        start, end = m.span()
        if start != pos:
            break
        signs, coeff, mono = m.groups()
        if pos and not signs:
            raise ParseError(f"expected '+' or '-' between terms at {text[pos:]!r}")
        c = f.one if coeff is None else f.parse_scalar(coeff)
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
