"""Projective point sets, general-position sampling, vanishing ideals, and
R_X on the points' values.

A point is a coordinate tuple normalized so its first nonzero entry is 1;
a PointSet certifies general position by checking that every degree-d
evaluation matrix has rank min(C(n+d, n), s), up to the first degree where
C(n+d, n) reaches s. The vanishing ideal comes from evaluation-matrix
kernels, with an independent oracle that intersects single-point ideals
instead. `PointValues` computes in R_X and R_X / J R_X by linear algebra in
k^s, with no Groebner basis.
"""
from __future__ import annotations

import random
from math import comb

import numpy as np

from .errors import GeneralPositionError, GradusError, VerificationError
from .field import (
    DEFAULT_PRIME, Field, PrimeField, field_from_string, kernel_basis, rank, row_space_basis,
)
from .groebner import Ideal, ideal_intersection
from .hilbert import SocleReport, hilbert_function
from .ring import Poly, RingSpec, monomials_of_degree


def normalize_point(field: Field, coords) -> tuple:
    coords = [field.normalize(c) for c in coords]
    lead = next((c for c in coords if not field.is_zero(c)), None)
    if lead is None:
        raise ValueError("projective point needs a nonzero coordinate")
    inv = field.inv(lead)
    return tuple(field.mul(inv, c) for c in coords)


class PointSet:
    """Distinct points of P^n in general position (certified, not assumed)."""

    __slots__ = ("n", "field", "points", "seed", "_ranks", "_ring")

    def __init__(self, n: int, field: Field, points, seed: int | None = None):
        self.n = n
        self.field = field
        pts = [normalize_point(field, p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("points are not pairwise distinct")
        for p in pts:
            if len(p) != n + 1:
                raise ValueError("point has the wrong number of coordinates")
        self.points = tuple(pts)
        self.seed = seed
        self._ranks: dict[int, int] = {}
        self._ring: RingSpec | None = None

    @property
    def s(self) -> int:
        return len(self.points)

    def ring(self) -> RingSpec:
        if self._ring is None:
            self._ring = RingSpec(self.n + 1, self.field)
        return self._ring

    def evaluation_rows(self, d: int) -> list[list]:
        """s x C(n+d, n) matrix: monomials of degree d evaluated at the points.

        Over F_p it is read off one power table, pw[k] = P^k entrywise, with
        one product per variable over the monomials' exponents; residues stay
        below p < 2^31, so every product fits in int64.
        """
        monos = monomials_of_degree(self.n + 1, d, self.ring().order)
        f = self.field
        if f.kind == "prime":
            p = f.p
            P = np.array(self.points, dtype=np.int64)
            pw = np.empty((d + 1,) + P.shape, dtype=np.int64)
            pw[0] = 1
            for k in range(1, d + 1):
                pw[k] = pw[k - 1] * P % p
            E = np.array(monos, dtype=np.intp)
            vals = pw[E[:, 0], :, 0]
            for v in range(1, self.n + 1):
                vals = vals * pw[E[:, v], :, v] % p
            return vals.T.tolist()
        rows = []
        for p in self.points:
            pows = [[f.one] for _ in range(self.n + 1)]
            for v in range(self.n + 1):
                for _ in range(d):
                    pows[v].append(f.mul(pows[v][-1], p[v]))
            row = []
            for e in monos:
                val = f.one
                for v, k in enumerate(e):
                    if k:
                        val = f.mul(val, pows[v][k])
                row.append(val)
            rows.append(row)
        return rows

    def rank_at(self, d: int) -> int:
        r = self._ranks.get(d)
        if r is None:
            r = rank(self.field, self.evaluation_rows(d))
            self._ranks[d] = r
        return r

    def is_general_position(self, up_to: int | None = None) -> bool:
        """Check rank = min(C(n+d, n), s) for every degree d <= up_to (default s).

        Stopping at d* = min{d : C(n+d, n) >= s} is exact. The rank at d is
        HF_X(d), capped at s, and HF_X is non-decreasing: over an infinite
        extension field some linear form vanishes at no point and so is a
        non-zero divisor on R_X, and rank does not change under field
        extension, so this holds over F_p too. Rank s at d* gives rank s above.
        """
        top = self.s if up_to is None else up_to
        for d in range(1, top + 1):
            full = comb(self.n + d, self.n)
            if self.rank_at(d) != min(full, self.s):
                return False
            if full >= self.s:
                break
        return True

    def delta(self) -> int:
        """Least degree with evaluation rank s (= delta_X for certified sets)."""
        d = 0
        while self.rank_at(d) < self.s:
            d += 1
        return d

    def to_json(self) -> dict:
        f = self.field
        return {
            "n": self.n,
            "field": f.spec_string(),
            "seed": self.seed,
            "points": [[f.scalar_str(c) for c in p] for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointSet":
        field = field_from_string(str(data["field"]))
        pts = [[field.parse_scalar(c) for c in p] for p in data["points"]]
        return cls(int(data["n"]), field, pts, data.get("seed"))

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and other.n == self.n
            and other.field == self.field
            and other.points == self.points
        )

    def __repr__(self):
        return f"PointSet(s={self.s}, n={self.n}, seed={self.seed})"


def random_general_points(s: int, n: int, seed: int,
                          field: Field | None = None,
                          max_tries: int = 60) -> PointSet:
    """s distinct random points of P^n certified in general position.

    Deterministic in (s, n, seed, field); degenerate draws are resampled up
    to the retry budget, which only runs out over tiny fields.
    """
    if s < 1:
        raise ValueError("need at least one point")
    field = field or PrimeField(DEFAULT_PRIME)
    rng = random.Random(seed)
    for _ in range(max_tries):
        pts: set[tuple] = set()
        stall = 0
        while len(pts) < s and stall < 200:
            coords = [field.random(rng) for _ in range(n + 1)]
            if all(field.is_zero(c) for c in coords):
                stall += 1
                continue
            p = normalize_point(field, coords)
            if p in pts:
                stall += 1
                continue
            pts.add(p)
        if len(pts) < s:
            continue
        X = PointSet(n, field, sorted(pts), seed=seed)
        if X.is_general_position():
            return X
    raise GeneralPositionError(
        f"no general-position sample of {s} points in P^{n} after {max_tries} tries"
    )


def evaluation_matrix(X: PointSet, d: int) -> list[list]:
    if d < 0:
        raise ValueError("degree must be non-negative")
    return X.evaluation_rows(d)


def _kernel_polys(X: PointSet, d: int) -> list[Poly]:
    ring = X.ring()
    monos = monomials_of_degree(X.n + 1, d, ring.order)
    vecs = kernel_basis(X.field, X.evaluation_rows(d), len(monos))
    return [Poly(ring, dict(zip(monos, v))) for v in vecs]


def vanishing_ideal(X: PointSet) -> Ideal:
    """I_X from evaluation kernels in degrees <= delta_X + 1, then verified:
    HF(R/I_X)_d must be min(C(n+d, n), s) through delta_X + 3. Each call
    builds it afresh; X does not keep it."""
    ring = X.ring()
    delta = X.delta()
    D = delta + 1
    for _ in range(3):
        gens: list[Poly] = []
        for d in range(1, D + 1):
            if comb(X.n + d, X.n) > X.s:
                gens.extend(_kernel_polys(X, d))
        I = Ideal(ring, gens)
        ok = all(
            hilbert_function(I, d) == min(comb(X.n + d, X.n), X.s)
            for d in range(D + 3)
        )
        if ok:
            return I
        D += 1  # generator degree bound was short; widen and retry
    raise VerificationError("vanishing ideal failed its Hilbert-function check")


def vanishing_ideal_oracle(X: PointSet) -> Ideal:
    """Independent route: intersect the single-point vanishing ideals."""
    singles = [
        vanishing_ideal(PointSet(X.n, X.field, [p]))
        for p in X.points
    ]
    result = singles[0]
    for one in singles[1:]:
        result = ideal_intersection(result, one)
    return result


def values_of(f: Poly, X: PointSet) -> list:
    """(f(P_1), ..., f(P_s)) at the normalised points of X."""
    return [f.evaluate(p) for p in X.points]


def is_nonzerodivisor(g: Poly, X: PointSet) -> bool:
    """On the reduced coordinate ring of X, g is a non-zero divisor exactly
    when it vanishes at no point; g = 0 is a zero divisor."""
    if g.is_zero():
        return False
    if not g.is_homogeneous():
        raise ValueError("is_nonzerodivisor needs a homogeneous form")
    return not any(map(X.field.is_zero, values_of(g, X)))


class PointValues:
    """R_X and R_X / J R_X, for a J given by homogeneous lifts, as value
    vectors at the points of X.

    Points are normalised, so evaluation ev_u: R_u -> k^s has kernel exactly
    (I_X)_u: it identifies (R_X)_u with V_u, the span of the degree-u
    monomials' value vectors, and it multiplies pointwise,
    ev(ab) = ev(a) * ev(b). V_u is 0 for u < 0 and all of k^s from delta_X
    on. The image of (I_X + J)_d is W_d = sum_j ev(j) * V_{d - deg j} over
    the generators j of J, so (R/(I_X + J))_d is V_d / W_d.

    `span(u)` and `annihilator(u)` are rows spanning V_u and its
    annihilator (w lies in V_u iff y . w = 0 for every annihilator row y);
    both are kept per degree for the life of this object, and X keeps none.
    """

    __slots__ = ("X", "field", "full", "gens", "_spans", "_annihilators")

    def __init__(self, X: PointSet, J: Ideal):
        if J.ring != X.ring():
            raise ValueError("J and the points live in different rings")
        if not all(j.is_homogeneous() for j in J.generators):
            raise ValueError("J must be given by homogeneous generators")
        self.X = X
        self.field = X.field
        self.full = X.delta()
        self.gens = [(values_of(j, X), j.degree()) for j in J.generators]
        self._spans: dict[int, list] = {}
        self._annihilators: dict[int, list] = {}

    def times(self, a: list, b: list) -> list:
        return list(map(self.field.mul, a, b))

    def _unit(self) -> list[list]:
        fld, s = self.field, self.X.s
        return [[fld.one if k == m else fld.zero for m in range(s)] for k in range(s)]

    def span(self, u: int) -> list[list]:
        """A basis of V_u."""
        got = self._spans.get(u)
        if got is None:
            if u < 0:
                got = []
            elif u >= self.full:
                got = self._unit()
            else:
                got = row_space_basis(self.field, list(zip(*self.X.evaluation_rows(u))), self.X.s)
            self._spans[u] = got
        return got

    def annihilator(self, u: int) -> list[list]:
        """A basis of the annihilator of V_u in k^s."""
        got = self._annihilators.get(u)
        if got is None:
            if u < 0:
                got = self._unit()
            elif u >= self.full:
                got = []
            else:
                got = kernel_basis(self.field, self.span(u), self.X.s)
            self._annihilators[u] = got
        return got

    def image_rows(self, d: int) -> list[list]:
        """Rows spanning W_d, the values of (I_X + J)_d."""
        return [self.times(v, b) for v, dj in self.gens for b in self.span(d - dj)]

    def contains(self, g: Poly) -> bool:
        """g in I_X + J, for a homogeneous g: ev(g) lies in W_{deg g}."""
        if g.ring != self.X.ring():
            raise ValueError("polynomial from a different ring")
        rows, s = self.image_rows(g.degree()), self.X.s
        return rank(self.field, rows + [values_of(g, self.X)], s) == rank(self.field, rows, s)

    def hilbert_function(self, d: int) -> int:
        """HF(R/(I_X + J))_d = dim V_d - dim W_d."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        return len(self.span(d)) - rank(self.field, self.image_rows(d), self.X.s)

    def socle(self) -> SocleReport:
        """Artinian flag, socle degree and initial degree of R/(I_X + J),
        equal to `socle_degree(ideal_sum(vanishing_ideal(X), J))`.

        - Artinian: V(I_X + J) is the set of points of X where every
          generator of J vanishes, as X is k-rational; so the quotient is
          Artinian iff every point has a generator not vanishing there.
        - Socle degree: then W_d = k^s once d >= delta_X + max deg j, since
          V_{d - deg j} = k^s for every j, so HF vanishes there. R/(I_X + J)
          is generated in degree 0, so HF is zero from its first zero on,
          and the socle degree is the degree just below it (None if HF(0)=0).
        - Initial degree: the least d with HF(d) < C(n+d, n); for n >= 1 it
          is at most s, as C(n+s, n) > s >= dim V_s.
        """
        n, s = self.X.n, self.X.s
        artinian = all(any(not self.field.is_zero(v[k]) for v, _ in self.gens)
                       for k in range(s))
        stop = self.full + max(dj for _, dj in self.gens) if artinian else s
        hf = []
        for d in range(stop + 1):
            hf.append(self.hilbert_function(d))
            if hf[-1] < comb(n + d, n) and (hf[-1] == 0 or not artinian):
                break
        else:
            raise GradusError("Hilbert function on values missed its proven stop; this is a bug")
        initial = next(d for d, h in enumerate(hf) if h < comb(n + d, n))
        if not artinian:
            return SocleReport(False, None, initial)
        return SocleReport(True, len(hf) - 2 if len(hf) > 1 else None, initial)
