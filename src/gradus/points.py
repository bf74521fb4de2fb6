"""Projective point sets, general-position sampling, and vanishing ideals.

A point is a coordinate tuple normalized so its first nonzero entry is 1;
a PointSet certifies general position by checking that every degree-d
evaluation matrix has rank min(C(n+d, n), s), up to the first degree where
C(n+d, n) reaches s. The vanishing ideal comes from evaluation-matrix
kernels, with an independent oracle that intersects single-point ideals
instead.
"""
from __future__ import annotations

import random
from math import comb

from .errors import GeneralPositionError, VerificationError
from .field import DEFAULT_PRIME, Field, PrimeField, field_from_string, kernel_basis, rank
from .groebner import Ideal, ideal_intersection
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
        """s x C(n+d, n) matrix: monomials of degree d evaluated at the points."""
        monos = monomials_of_degree(self.n + 1, d, self.ring().order)
        f = self.field
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
    from .hilbert import hilbert_function  # local import to avoid a cycle

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


def is_nonzerodivisor(g: Poly, X: PointSet) -> bool:
    """On the reduced coordinate ring of X, g is a non-zero divisor exactly
    when it vanishes at no point; g = 0 is a zero divisor."""
    if g.is_zero():
        return False
    if not g.is_homogeneous():
        raise ValueError("is_nonzerodivisor needs a homogeneous form")
    return all(not X.field.is_zero(g.evaluate(p)) for p in X.points)
