"""Hilbert functions and polynomials, Artinian detection, socle degree.

All four are read from one Hilbert series. HS(R/I) = HS(R/in(I))
(Macaulay), and the series of a monomial ideal M is K(t)/(1 - t)^nvars with
K(M) = K(M + (p)) + t^deg p * K(M : p) for a pivot p = x_v^k not in M, a
product of the (1 - t^deg m) once the generators are pairwise coprime
(Bayer & Stillman, "Computation of Hilbert functions", JSC 1992; Bigatti,
"Computation of Hilbert-Poincare series", JPAA 119, 1997). The series
proves the Hilbert polynomial and the degree it holds from for every ideal,
so both are always returned.

`GradedQuotient.normal_forms` is the one normal-form map: the matrix of
the normal forms of a list of monomials. The multiplication maps Betti
reads are sums of its column selections, and it gives the intersections'
generic operands their complements (`gradus.groebner._complement`). Hom
works on the points' values (`gradus.points.PointValues`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb
from operator import le

import numpy as np

from .errors import GradusError
from .field import _zeros, rank
from .groebner import Ideal, _nf_terms
from .ring import Exponents, Poly, mono_mul, monomials_of_degree


class GradedQuotient:
    """R/I degree by degree over its standard monomials; built by
    `Ideal.quotient` and alive as long as I. Every map is read from the
    normal forms of single monomials, each reduced once against I's prepared
    GB; a normal form modulo a GB is unique, so they equal `normal_form`
    followed by a scatter. The memo `nf`, monomial -> coordinates over
    basis(d), keeps one degree, since every call works in one degree: an
    ideal that outlives its work (one a caller holds, or one kept as an
    intersection's part) keeps one degree's normal forms, not all it ever
    used.
    """

    def __init__(self, I: Ideal):
        self.ring = I.ring
        self._prepared = I.prepared()
        self._basis: dict[int, list[Exponents]] = {}
        self.nf: dict[Exponents, np.ndarray] = {}
        self._degree, self._index = -1, {}  # nf's degree, and basis(d) -> position

    def basis(self, d: int) -> list[Exponents]:
        """Degree-d monomials outside the leading-term ideal, descending in
        the order; empty for d < 0.

        The standard monomials form an order ideal: e is standard iff it is
        no lead and every e/x_v is standard (a lead dividing e properly
        divides some e/x_v). So each degree is built from the one below.
        """
        if d < 0:
            return []
        if d not in self._basis:
            leads = {lead for lead, _ in self._prepared}
            for k in range(d + 1):
                if k not in self._basis:
                    self._basis[k] = self._next_basis(k, leads)
        return self._basis[d]

    def _next_basis(self, k: int, leads: set) -> list[Exponents]:
        """basis(k), given basis(k - 1) and the set of leads."""
        n = self.ring.nvars
        below = self._basis[k - 1] if k else []
        prev = set(below)
        standard = {(0,) * n} - leads if k == 0 else set()
        for b in below:
            # e = b * x_v with v >= the last variable of b reaches each e once
            top = max((v for v in range(n) if b[v]), default=0)
            for v in range(top, n):
                e = b[:v] + (b[v] + 1,) + b[v + 1:]
                if e in leads:
                    continue
                if all(e[:u] + (e[u] - 1,) + e[u + 1:] in prev for u in range(v) if e[u]):
                    standard.add(e)
        if not standard:
            return []
        # the shared, sorted monomials give the order and the tuples to keep:
        # an ideal that outlives its work holds no monomials of its own
        return [e for e in monomials_of_degree(n, k, self.ring.order) if e in standard]

    def normal_forms(self, monos, d: int):
        """The map R_d -> (R/I)_d on the degree-d monomials `monos`, shape
        (len basis(d), len monos), in the field's matrix format; column k
        is the coordinates of monos[k]. On all of R_d the map's kernel is
        I_d, so its rows span the orthogonal complement of I_d."""
        fld = self.ring.field
        if self._degree != d:
            self.nf, self._degree = {}, d
            self._index = {e: k for k, e in enumerate(self.basis(d))}
        nf, index = self.nf, self._index
        out = _zeros(fld, len(monos), len(index))
        for k, e in enumerate(monos):
            if e not in nf:
                vec = nf[e] = _zeros(fld, 1, len(index))[0]
                for m, c in _nf_terms({e: fld.one}, self._prepared, self.ring).items():
                    vec[index[m]] = c
            out[k] = nf[e]
        return out.T

    def mult(self, form: Poly, d: int):
        """Multiplication by `form`: (R/I)_d -> (R/I)_{d + deg form}, shape
        (len basis(d + deg form), len basis(d)), in the field's matrix
        format; column k is the image of basis(d)[k]: the sum over the
        terms c * m of `form` of c times the normal forms of basis(d)
        shifted by m."""
        top, fld = d + form.degree(), self.ring.field
        out = _zeros(fld, len(self.basis(top)), len(self.basis(d)))
        for m, c in form.terms.items():
            N = self.normal_forms([mono_mul(b, m) for b in self.basis(d)], top)
            # a product of residues stays below 2^62; reduce it before summing
            out += fld.reduce(c * N)
        return fld.reduce(out)


def standard_monomials(I: Ideal, d: int) -> list:
    """Degree-d monomials outside the leading-term ideal of I."""
    return I.quotient().basis(d)


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


def hilbert_series(I: Ideal) -> tuple[tuple[int, ...], int]:
    """(h, dim) with HS(R/I) = h(t) / (1 - t)^dim and h(1) != 0, h constant
    term first; dim is the Krull dimension of R/I. The zero ring R/(1) gives
    ((0,), 0). Kept on I, where an intersection also leaves the series it
    proved."""
    if I._series is None:
        I._series = _reduced(_numerator(I.leading_monomials()), I.ring.nvars)
    return I._series


def hilbert_function(I: Ideal, d: int) -> int:
    """dim_k (R/I)_d, the coefficient of t^d in h(t) / (1 - t)^dim."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return _coefficient(*hilbert_series(I), d)


def hilbert_values(I: Ideal, dmax: int) -> list[int]:
    return [hilbert_function(I, d) for d in range(dmax + 1)]


def ideal_dimension_by_rank(I: Ideal, d: int) -> int:
    """dim_k I_d by rank of the degree-d multiples of the reduced GB.

    Linear-algebra oracle for hilbert_function: HF = C(n+d, n) - this.
    """
    ring = I.ring
    monos = monomials_of_degree(ring.nvars, d, ring.order)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    f = ring.field
    for g in I.groebner():
        dg = g.degree()
        if dg > d:
            continue
        for m in monomials_of_degree(ring.nvars, d - dg, ring.order):
            row = [f.zero] * len(monos)
            for e, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(m, e))]] = c
            rows.append(row)
    if not rows:
        return 0
    return rank(f, rows)


@dataclass
class HilbertPolynomial:
    """Polynomial in the degree variable d, coefficients exact rationals,
    constant term first."""

    coeffs: tuple
    stable_from: int

    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c != 0), default=-1)

    def __call__(self, d: int) -> Fraction:
        return sum((c * d**i for i, c in enumerate(self.coeffs)), Fraction(0))

    def __str__(self):
        if all(c == 0 for c in self.coeffs):
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = body if sign == "+" else "-" + body
        for sign, body in parts[1:]:
            out += sign + body
        return out


def hilbert_polynomial(I: Ideal) -> HilbertPolynomial:
    """The polynomial HF agrees with for large d, plus the first degree of
    agreement, both proven by the series. Expanding
    sum_i h_i * C(dim - 1 + d - i, dim - 1) in d gives a polynomial equal
    to HF for d >= deg h - dim + 1, where every binomial is a true count or
    a zero of it; `stable_from` is found by scanning down from there."""
    h, dim = hilbert_series(I)
    coeffs = [Fraction(0)] * dim
    for i, c in enumerate(h):
        term = [Fraction(c)]
        for j in range(1, dim):  # times (d - i + j) / j
            term = [(lo * (j - i) + hi) / j for lo, hi in zip(term + [0], [0] + term)]
        coeffs = [a + b for a, b in zip(coeffs, term)]
    hp = HilbertPolynomial(tuple(coeffs), max(0, len(h) - dim))
    while hp.stable_from > 0 and hp(hp.stable_from - 1) == hilbert_function(I, hp.stable_from - 1):
        hp.stable_from -= 1
    return hp


def is_artinian(I: Ideal) -> bool:
    """True iff R/I has Krull dimension 0, the dim of its Hilbert series;
    cross-checked against the leading-term ideal holding a pure power of
    every variable (or 1)."""
    artinian = hilbert_series(I)[1] == 0
    pure = {v for e in I.leading_monomials() for v, a in enumerate(e) if a == sum(e)}
    if artinian != (len(pure) == I.ring.nvars):
        raise GradusError("Artinian criteria disagree; this is a bug")
    return artinian


@dataclass
class SocleReport:
    artinian: bool
    socle_degree: int | None
    initial_degree: int


def socle_degree(I: Ideal) -> SocleReport:
    """Top nonzero degree of the Hilbert function of an Artinian quotient,
    deg h of its series h(t), together with the initial degree of the
    defining ideal. The zero ring R/(1) has no nonzero degree, so its socle
    degree is None."""
    initial = I.min_generator_degree()
    if not is_artinian(I):
        return SocleReport(False, None, initial)
    h, _ = hilbert_series(I)
    return SocleReport(True, len(h) - 1 if any(h) else None, initial)


def delta_X(X) -> int:
    """Least degree where HF(R_X) reaches the number of points."""
    return X.delta()


def hilbert_report(I: Ideal, dmax: int) -> dict:
    """CLI payload: values, polynomial, stabilization, Artinian data."""
    hp = hilbert_polynomial(I)
    return {"values": hilbert_values(I, dmax), "artinian": is_artinian(I),
            "polynomial": str(hp), "stable_from": hp.stable_from}
