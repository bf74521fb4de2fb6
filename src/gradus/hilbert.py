"""Hilbert functions and polynomials, Artinian detection, socle degree.

All four are read from one Hilbert series. HS(R/I) = HS(R/in(I))
(Macaulay), and the series of a monomial ideal M is K(t)/(1 - t)^nvars with
K(M) = K(M + (p)) + t^deg p * K(M : p) for a pivot p = x_v^k not in M, a
product of the (1 - t^deg m) once the generators are pairwise coprime
(Bayer & Stillman, "Computation of Hilbert functions", JSC 1992; Bigatti,
"Computation of Hilbert-Poincare series", JPAA 119, 1997). The series
proves the Hilbert polynomial and the degree it holds from for every ideal,
so both are always returned.

The series and the graded quotient R/I are read off the ideal's one
reduced basis, so they live beside it in `gradus.groebner`
(`hilbert_series`, `GradedQuotient`), and the series arithmetic on
numerators lives in `gradus.ring`. Hom works on the points' values
(`gradus.points.PointValues`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GradusError
from .field import rank
from .groebner import Ideal, hilbert_series
from .ring import _coefficient, monomials_of_degree


def standard_monomials(I: Ideal, d: int) -> list:
    """Degree-d monomials outside the leading-term ideal of I."""
    return I.quotient().basis(d)


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
