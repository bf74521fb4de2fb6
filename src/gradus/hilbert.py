"""Hilbert functions and polynomials, Artinian detection, socle degree.

HF(R/I)_d is the number of degree-d standard monomials, the basis of the
GradedQuotient that also serves Betti and Hom. The Hilbert polynomial
is recovered by exact interpolation on a sliding window of degrees.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GradusError
from .field import rank
from .groebner import Ideal, _nf_terms
from .ring import Exponents, Poly, monomials_of_degree


class _NormalForms(dict):
    """Monomial of one degree -> coordinates of its normal form over that
    degree's standard basis, as an array in the field's format. Each
    monomial is reduced on its first lookup and kept."""

    def __init__(self, degree: int, basis: list, gb: list, order, field):
        super().__init__()
        self.degree, self.gb, self.order, self.field = degree, gb, order, field
        self.index = {e: k for k, e in enumerate(basis)}

    def __missing__(self, e: Exponents):
        fld = self.field
        vec = [fld.zero] * len(self.index)
        for m, c in _nf_terms({e: fld.one}, self.gb, self.order, fld).items():
            vec[self.index[m]] = c
        vec = fld.array(vec)
        self[e] = vec
        return vec


class GradedQuotient:
    """R/I degree by degree over its standard monomials; built by
    `Ideal.quotient` and alive as long as I. Coordinates come from the
    normal forms of single monomials, each reduced once against I's prepared
    GB; a normal form modulo a GB is unique, so they equal `normal_form`
    followed by a scatter. The memo `nf` keeps one degree, since every call
    works in one degree: an ideal that outlives its work (a PointSet's
    vanishing ideal) keeps one degree's normal forms, not all it ever used.
    """

    def __init__(self, I: Ideal):
        self.ring = I.ring
        self._gb = I.prepared()
        self._basis: dict[int, list[Exponents]] = {}
        self.nf = _NormalForms(-1, [], self._gb, I.ring.order, I.ring.field)

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
            leads = {lead for lead, _ in self._gb}
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

    def coords(self, f: Poly, d: int):
        """Coordinates over basis(d) of the degree-d form f modulo I, as an
        array in the field's format."""
        if self.nf.degree != d:
            self.nf = _NormalForms(d, self.basis(d), self._gb, self.ring.order, self.ring.field)
        fld = self.ring.field
        out = fld.array([fld.zero] * len(self.nf.index))
        for e, c in f.terms.items():
            # a product of residues stays below 2^62; reduce it before summing
            out += fld.reduce(c * self.nf[e])
        return fld.reduce(out)

    def mult(self, form: Poly, d: int):
        """Multiplication by `form`: (R/I)_d -> (R/I)_{d + deg form}, shape
        (len basis(d + deg form), len basis(d)), in the field's matrix
        format; column k is the image of basis(d)[k]."""
        top = d + form.degree()
        one = self.ring.field.one
        cols = [self.coords(form.mul_term(b, one), top) for b in self.basis(d)]
        return self.ring.field.array(cols).reshape(len(cols), len(self.basis(top))).T


def standard_monomials(I: Ideal, d: int) -> list:
    """Degree-d monomials outside the leading-term ideal of I."""
    return I.quotient().basis(d)


def hilbert_function(I: Ideal, d: int) -> int:
    """dim_k (R/I)_d."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return len(standard_monomials(I, d))


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


class StabilizationError(GradusError):
    """HF never matched a degree-<= n interpolant inside the probe window."""

    def __init__(self, message, values):
        super().__init__(message)
        self.values = values


def _interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Coefficients (constant first) of the unique polynomial through points."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for xi, yi in points:
        # Lagrange basis polynomial for xi, expanded incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return tuple(coeffs)


def hilbert_polynomial(I: Ideal, probe_limit: int = 40) -> HilbertPolynomial:
    """The polynomial HF agrees with for large d, plus the first degree of
    agreement. Interpolates n+2 consecutive values, requires degree <= n,
    and confirms on 3 further degrees before accepting."""
    n = I.ring.nvars - 1
    window = n + 2
    values: list[int] = []

    def val(d: int) -> int:
        while len(values) <= d:
            values.append(hilbert_function(I, len(values)))
        return values[d]

    start = 0
    while start + window + 2 <= probe_limit:
        pts = [(start + k, val(start + k)) for k in range(window)]
        coeffs = _interpolate(pts)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        cand = HilbertPolynomial(coeffs, start)
        if cand.degree() <= n and all(
            cand(start + window + k) == val(start + window + k) for k in range(3)
        ):
            stable = start
            while stable > 0 and cand(stable - 1) == val(stable - 1):
                stable -= 1
            return HilbertPolynomial(coeffs, stable)
        start += 1
    raise StabilizationError(
        f"Hilbert function did not stabilize below degree {probe_limit}", values
    )


def _pure_power_exponents(I: Ideal) -> list[int] | None:
    """For each variable, the least k with x_i^k in the leading-term ideal;
    None if some variable has no pure power (non-Artinian)."""
    nvars = I.ring.nvars
    leads = I.leading_monomials()
    if any(sum(e) == 0 for e in leads):
        return [1] * nvars  # unit ideal: the zero ring is Artinian
    out = []
    for i in range(nvars):
        best = None
        for e in leads:
            if all(e[j] == 0 for j in range(nvars) if j != i) and e[i] > 0:
                best = e[i] if best is None else min(best, e[i])
        if best is None:
            return None
        out.append(best)
    return out


def is_artinian(I: Ideal) -> bool:
    """True iff the leading-term ideal contains a pure power of every
    variable; cross-checked against the eventually-zero HF criterion."""
    powers = _pure_power_exponents(I)
    if powers is None:
        return False
    bound = sum(k - 1 for k in powers) + 1
    if hilbert_function(I, bound) != 0:
        raise GradusError("Artinian criteria disagree; this is a bug")
    return True


@dataclass
class SocleReport:
    artinian: bool
    socle_degree: int | None
    initial_degree: int


def socle_degree(I: Ideal) -> SocleReport:
    """Top nonzero degree of the Hilbert function of an Artinian quotient,
    together with the initial degree of the defining ideal. The zero ring
    R/(1) has no nonzero degree, so its socle degree is None."""
    initial = I.min_generator_degree()
    powers = _pure_power_exponents(I)
    if powers is None:
        return SocleReport(False, None, initial)
    bound = sum(k - 1 for k in powers)
    omega = max((d for d in range(bound + 1) if hilbert_function(I, d) != 0), default=None)
    return SocleReport(True, omega, initial)


def delta_X(X) -> int:
    """Least degree where HF(R_X) reaches the number of points."""
    return X.delta()


def hilbert_report(I: Ideal, dmax: int, probe_limit: int = 40) -> dict:
    """CLI payload: values, polynomial, stabilization, Artinian data."""
    values = hilbert_values(I, dmax)
    out = {"values": values, "artinian": is_artinian(I)}
    try:
        hp = hilbert_polynomial(I, probe_limit)
        out["polynomial"] = str(hp)
        out["stable_from"] = hp.stable_from
    except StabilizationError:
        out["polynomial"] = None
        out["stable_from"] = None
    return out
