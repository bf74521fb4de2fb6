"""Projective point sets, general-position sampling, vanishing ideals, and
R_X on the points' values.

A point is a coordinate tuple normalized so its first nonzero entry is 1.
Evaluation ev_d: R_d -> k^s, f -> (f(P_1), ..., f(P_s)), has kernel (I_X)_d
and rank HF_X(d). General position means rank min(C(n+d, n), s) in every
degree d. `PointSet.is_general_position` certifies it from the ranks at
d* - 1 and d*, where d* = min{d : C(n+d, n) >= s}:

- ev_{d*-1} injective gives ev_d injective for every d < d*: if a non-zero
  f of degree d vanished on X, so would the non-zero x_0^{d*-1-d} * f;
- rank s at d* gives rank s above it, as HF_X is non-decreasing.

One sort and one elimination give a rank in every degree at once: give
each column of a matrix M an entry degree, sort the columns stably by it,
and take the column rank profile (`field.rank_profile`). A column is a
pivot exactly when it is not in the span of the columns left of it, so
the columns entering by degree d have rank equal to the number of pivots
among them, for every d (`_entry_degrees`).

So HF_X in every degree up to D comes from one elimination of ev_D. Take a
chart coordinate x_v that vanishes at no point of X (x_0 whenever no point
lies on x_0 = 0), and let a monomial m's column enter at D - e_v(m). The
columns entering by d are those divisible by x_v^{D-d}: they are
diag(x_v(P)^{D-d}) * ev_d, and that diagonal is invertible, so they have
rank HF_X(d). This is the affine Hilbert function of X in the chart
x_v != 0 (Kreuzer & Robbiano, Computational Commutative Algebra 2, section
6.3). When every coordinate vanishes at some point (all 13 points of
P^2(F_3), say), each degree takes a rank of its own.

The vanishing ideal comes from evaluation-matrix kernels, and so does its
reduced basis, with no F4 (Abbott, Bigatti, Kreuzer & Robbiano, JSC 30,
2000). The kernel block K_d spans (I_X)_d, so its RREF with the columns
descending has the leads in(I_X)_d as pivots and rows m - NF(m); those
whose lead no lower lead divides are the basis elements of degree d. The
blocks stop once those leads have the series Delta HF_X / (1 - t), which
proves the basis: in(G) = in(I_X) with G in the span of the generators.
With a point on x_n = 0 the stop can pass delta_X + 1; there a block is
the x_v times the block below, whose rank proves (F)_d = (I_X)_d.

An independent oracle builds each single-point ideal in closed form
instead (`gradus.groebner._point_ideal`), x_k minus c_k * x_l for k != l,
l the last index with p_l != 0 and c = p / p_l, with its reduced basis,
its Hilbert series 1/(1 - t) and the row c preset, and meets them in a
balanced tree, so that no meet below the root carries more than half of
the points. Its meets are linear algebra in k[x], which read a leaf only
through the complement of its degree-d part: the normal form modulo the
point ideal, the one row (c^m)_m, grown from c one degree at a time.
Below the root a node keeps only its parts, whose rows stack to its
complement, and its Hilbert series, proven from one rank of those rows
per degree (`gradus.groebner._series_meet`) up to the degree where the
sum of its two sides' ideals is Artinian, as two disjoint sets of
distinct points have no common zero. Only the root is an
`ideal_intersection`, one kernel per degree and the one reduced basis
built. So the oracle takes no `evaluation_array`, no kernel of it and no
F4.
`PointValues` computes in R_X and R_X / J R_X by linear algebra in k^s, with
no Groebner basis, on ndarrays in the field's matrix format. V_u is spanned
by the monomials' value vectors for every set, independent or not, so its
spanning rows are ev_u transposed, and the unit matrix from delta_X on.
With a chart, the values of (I_X + J)_d in every degree are one more
entry-degree elimination; without one, each degree takes a rank.
"""
from __future__ import annotations

import random
from math import comb

import numpy as np

from .errors import GeneralPositionError, GradusError, ParseError, VerificationError
from .field import (
    DEFAULT_PRIME, Field, PrimeField, _echelon, _kernel, _matrix, _zeros, field_from_string, rank,
    rank_profile,
)
from .groebner import Ideal, _point_ideal, _series_meet, ideal_intersection
from .hilbert import SocleReport
from .ring import (
    Poly, RingSpec, _columns, _divides, _form, _numerator, _reduced, _shift, _unit, expect_json,
    json_key,
)


def normalize_point(field: Field, coords) -> tuple:
    coords = [field.normalize(c) for c in coords]
    lead = next((c for c in coords if not field.is_zero(c)), None)
    if lead is None:
        raise ValueError("projective point needs a nonzero coordinate")
    if lead == field.one:
        return tuple(coords)
    inv = field.inv(lead)
    return tuple(field.mul(inv, c) for c in coords)


class PointSet:
    """A non-empty set of distinct points of P^n, normalised, each with
    n + 1 coordinates.

    That is all the constructor and `from_json` check: the points need not
    be in general position. `random_general_points` certifies general
    position through `is_general_position` before it returns a set.
    """

    __slots__ = ("n", "field", "points", "seed", "_arrays", "_ranks", "_ring")

    def __init__(self, n: int, field: Field, points, seed: int | None = None):
        self._set(n, field, [normalize_point(field, p) for p in points], seed)

    @classmethod
    def _normalised(cls, n: int, field: Field, pts: list[tuple], seed: int | None) -> "PointSet":
        """The set of points that are already normalised (the sampler's),
        with every check of the constructor but the normalisation."""
        X = cls.__new__(cls)
        X._set(n, field, pts, seed)
        return X

    def _set(self, n: int, field: Field, pts: list[tuple], seed: int | None) -> None:
        self.n = n
        self.field = field
        if not pts:
            raise ValueError("need at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("points are not pairwise distinct")
        for p in pts:
            if len(p) != n + 1:
                raise ValueError("point has the wrong number of coordinates")
        self.points = tuple(pts)
        self.seed = seed
        self._arrays: dict[int, np.ndarray] = {}
        self._ranks: dict[int, int] = {}
        self._ring: RingSpec | None = None

    @property
    def s(self) -> int:
        return len(self.points)

    def ring(self) -> RingSpec:
        if self._ring is None:
            self._ring = RingSpec(self.n + 1, self.field)
        return self._ring

    def evaluation_array(self, d: int) -> np.ndarray:
        """s x C(n+d, n) matrix in the field's format: monomials of degree d,
        in descending order, evaluated at the points. It is built once per
        degree and kept, read-only, for the life of the set.

        It is read off one power table, pw[k] = P^k entrywise, with one
        product per variable over the monomials' cached exponent array; over
        F_p residues stay below p < 2^31, so every product fits in int64.
        """
        got = self._arrays.get(d)
        if got is not None:
            return got
        f = self.field
        P = f.array(self.points)
        pw = np.empty((d + 1,) + P.shape, dtype=P.dtype)
        pw[0] = f.one
        for k in range(1, d + 1):
            pw[k] = f.reduce(pw[k - 1] * P)
        E = _columns(self.n + 1, self.ring().order, d)[1]
        vals = pw[E[:, 0], :, 0]
        for v in range(1, self.n + 1):
            vals = f.reduce(vals * pw[E[:, v], :, v])
        got = vals.T
        got.flags.writeable = False
        self._arrays[d] = got
        return got

    def chart(self) -> int | None:
        """The first v with x_v vanishing at no point of X; None when every
        coordinate vanishes at some point."""
        f = self.field
        return next((v for v in range(self.n + 1)
                     if not any(f.is_zero(p[v]) for p in self.points)), None)

    def chart_exponents(self, d: int, v: int) -> np.ndarray:
        """The x_v-exponent of each column of `evaluation_array(d)`."""
        return _columns(self.n + 1, self.ring().order, d)[1][:, v]

    def rank_at(self, d: int) -> int:
        """HF_X(d), the rank of ev_d. A miss with a chart coordinate x_v
        eliminates ev_D once, D = max(d, d*), a monomial m's column entering
        at D - e_v(m), and keeps the ranks of every degree up to D (module
        docstring); without a chart it takes the rank of ev_d alone."""
        r = self._ranks.get(d)
        if r is not None:
            return r
        v = self.chart()
        if v is None:
            r = self._ranks[d] = rank(self.field, self.evaluation_array(d))
            return r
        top = max(d, self._d_star())
        entered = _entry_degrees(self.field, self.evaluation_array(top),
                                 top - self.chart_exponents(top, v))
        self._ranks.update(enumerate(
            np.searchsorted(entered, np.arange(top + 1), side="right").tolist()))
        return self._ranks[d]

    def _d_star(self) -> int:
        """d* = min{d : C(n+d, n) >= s}; the rank is below s in lower degrees."""
        d = 0
        while comb(self.n + d, self.n) < self.s:
            d += 1
        return d

    def is_general_position(self) -> bool:
        """Check rank = min(C(n+d, n), s) in every degree d.

        Two ranks decide it (module docstring): full rank C(n+d, n) at
        d* - 1, and rank s at d*. HF_X is non-decreasing because over an
        infinite extension field some linear form vanishes at no point and
        so is a non-zero divisor on R_X, and rank does not change under
        field extension, so this holds over F_p too. Degree 0 needs no
        check: its rank is 1 = min(1, s).
        """
        d_star = self._d_star()
        for d in (d_star - 1, d_star):
            if d >= 1 and self.rank_at(d) != min(comb(self.n + d, self.n), self.s):
                return False
        return True

    def delta(self) -> int:
        """Least degree with evaluation rank s (= delta_X for certified sets).
        The scan starts at d*, as the rank is at most C(n+d, n) < s below it."""
        d = self._d_star()
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
        """The set `to_json` wrote; a wrong shape, a missing key, a
        coordinate that is not a string, or a list the constructor refuses
        is a ParseError."""
        expect_json(data, dict, "point set")
        field = field_from_string(json_key(data, "field", str, "point set"))
        pts = [[field.parse_scalar(expect_json(c, str, "a coordinate"))
                for c in expect_json(p, list, "a point")]
               for p in json_key(data, "points", list, "point set")]
        n = json_key(data, "n", int, "point set")
        try:
            return cls(n, field, pts, data.get("seed"))
        except ValueError as exc:
            raise ParseError(f"bad point set: {exc}") from None

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and other.n == self.n
            and other.field == self.field
            and other.points == self.points
        )

    def __repr__(self):
        return f"PointSet(s={self.s}, n={self.n}, seed={self.seed})"


_DEFAULT_FIELD = PrimeField(DEFAULT_PRIME)


def random_general_points(s: int, n: int, seed: int,
                          field: Field | None = None,
                          max_tries: int = 60) -> PointSet:
    """s distinct random points of P^n certified in general position.

    Deterministic in (s, n, seed, field); degenerate draws are resampled up
    to the retry budget, which only runs out over tiny fields.
    """
    if s < 1:
        raise ValueError("need at least one point")
    if n < 0:
        raise ValueError(f"no projective space P^{n}")
    if n == 0 and s > 1:
        raise ValueError(f"P^0 has one point; cannot sample {s}")
    field = field or _DEFAULT_FIELD
    rng = random.Random(seed)
    for _ in range(max_tries):
        pts: set[tuple] = set()
        stall = 0
        while len(pts) < s and stall < 200:
            coords = [field.random(rng) for _ in range(n + 1)]
            lead = next((c for c in coords if c), None)
            if lead is None:
                stall += 1
                continue
            inv = field.inv(lead)
            p = tuple(field.mul(inv, c) for c in coords)
            if p in pts:
                stall += 1
                continue
            pts.add(p)
        if len(pts) < s:
            continue
        X = PointSet._normalised(n, field, sorted(pts), seed)
        if X.is_general_position():
            return X
    raise GeneralPositionError(
        f"no general-position sample of {s} points in P^{n} after {max_tries} tries"
    )


def _entry_degrees(field: Field, M: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The entry degrees, ascending, of the pivots of M's column rank profile
    with the columns stably sorted by `degrees`: the columns entering by d
    have rank the number of them <= d (module docstring)."""
    order = np.argsort(degrees, kind="stable")
    return degrees[order][rank_profile(field, M[:, order], len(order))]


def evaluation_matrix(X: PointSet, d: int) -> list[list]:
    """`X.evaluation_array(d)` as row lists of canonical field elements."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return X.evaluation_array(d).tolist()


def _kernel_polys(X: PointSet, d: int) -> list[tuple[Poly, np.ndarray]]:
    """The kernel of ev_d, (I_X)_d, in ascending reduced echelon form
    (`field._kernel`), each row with its form."""
    ring = X.ring()
    monos = _columns(X.n + 1, ring.order, d)[0]
    return [(_form(ring, monos, row), row)
            for row in _kernel(X.field, X.evaluation_array(d), len(monos))[0]]


def vanishing_ideal(X: PointSet) -> Ideal:
    """I_X, generated by the evaluation kernels F_d = ker ev_d in the degrees
    d <= delta_X + 1 = reg(I_X) where HF_X(d) < C(n+d, n), so points off
    general position (collinear ones, say) get their low-degree generators
    too; with its reduced basis G and its Hilbert series preset, so no F4
    runs. Each call builds it afresh; X does not keep it.

    G comes degree by degree from blocks of rows spanning (F)_d (Abbott,
    Bigatti, Kreuzer & Robbiano, JSC 30, 2000): F_d itself up to
    delta_X + 1, and above it the x_v times the block below, as F has no
    generator there. A block lies in (I_X)_d, so once its rank is
    dim (I_X)_d = C(n+d, n) - HF_X(d) (VerificationError otherwise) it
    spans (F)_d = (I_X)_d, and its RREF with the columns descending has the
    leads in(I_X)_d as pivots, each row m - NF(m) with a standard tail. The
    rows whose lead no lead of lower degree divides are G's elements of
    degree d. The loop stops once those leads have the series
    HS(R/I_X) = Delta HF_X / (1 - t): then in(G) = in(I_X), and G, in (F),
    is the reduced basis of I_X, so (F) = I_X. The stop can pass
    delta_X + 1 when a point lies on x_n = 0 (so on every set with no
    chart). It gives up after degree s: by Gotzmann's persistence theorem
    the leads of degree <= s (>= delta_X) already have the constant
    Hilbert function s from there on, so no lead of G has a higher
    degree."""
    delta = X.delta()
    hf = [X.rank_at(d) for d in range(delta + 1)]  # HF_X, and s from delta_X on
    series = (tuple(a - b for a, b in zip(hf, [0] + hf)), 1)
    ring, n = X.ring(), X.n
    gens: list[Poly] = []
    basis: list[Poly] = []
    leads: list[tuple] = []
    for d in range(1, max(delta + 1, X.s) + 1):
        dim = comb(n + d, n) - hf[min(d, delta)]  # dim (I_X)_d
        if d > delta + 1:
            K = _times_variables(ring, K, d - 1)
        elif dim:
            block = _kernel_polys(X, d)
            gens += [g for g, _ in block]
            K = [row for _, row in block]
        if dim:
            K = _block_basis(ring, K, d, dim, leads, basis)
        if d > delta and _reduced(_numerator(leads), n + 1) == series:
            break
    else:
        raise VerificationError("vanishing ideal: the block leads miss the points' Hilbert "
                                "series; this is a bug")
    return Ideal._preset(ring, gens, basis, series)


def _block_basis(ring: RingSpec, K, d: int, dim: int, leads: list, basis: list) -> np.ndarray:
    """The RREF rows of a block K of rows (a list or an array) in (I_X)_d,
    its columns descending, whose rank must be dim (I_X)_d = `dim`. Appends
    to `leads` and `basis`, which hold the leads and the elements of I_X's
    reduced basis in lower degrees, those of degree d, ascending: the RREF
    rows whose lead no lower lead divides."""
    monos, M, _ = _columns(ring.nvars, ring.order, d)
    R, pivots = _echelon(_matrix(ring.field, K, len(monos)), ring.field)
    if len(pivots) != dim:
        raise VerificationError(f"vanishing ideal: a block of degree {d} has rank {len(pivots)}, "
                                f"not dim (I_X)_{d} = {dim}; this is a bug")
    new = np.flatnonzero(~_divides(leads, M[pivots]).any(axis=1)).tolist()
    leads += [monos[pivots[r]] for r in new]
    basis += [_form(ring, monos, R[r]) for r in reversed(new)]
    return R[:dim]


def _times_variables(ring: RingSpec, K: np.ndarray, d: int) -> np.ndarray:
    """The rows x_v * k, for every variable x_v and row k of K, over the
    degree-d monomials, as rows over those of degree d + 1."""
    nvars = ring.nvars
    out = _zeros(ring.field, nvars * len(K), comb(nvars + d, d + 1))
    for v in range(nvars):
        out[v * len(K):(v + 1) * len(K), _shift(nvars, ring.order, d, _unit(nvars, v))] = K
    return out


def vanishing_ideal_oracle(X: PointSet) -> Ideal:
    """Independent route: meet the single-point ideals, each in closed form
    (`_point_ideal`), in a balanced tree by linear algebra in k[x], with no
    `evaluation_array`, no kernel of it and no F4 of the points. A leaf's
    complement in degree d is the normal form modulo its point ideal, one
    row grown from the point's own row c = p / p_l, and a node's is its
    parts' rows stacked. Each node below the root keeps only those parts
    and its proven series (`_series_meet`, one rank per degree); the root
    is the one `ideal_intersection`, one kernel per degree, and builds the
    one reduced basis."""
    ring = X.ring()
    level = [_point_ideal(ring, p) for p in X.points]
    while len(level) > 2:
        paired = [_series_meet(a, b) for a, b in zip(level[::2], level[1::2])]
        level = paired + level[2 * len(paired):]
    return ideal_intersection(*level) if len(level) == 2 else level[0]


def values_of(f: Poly, X: PointSet) -> np.ndarray:
    """(f(P_1), ..., f(P_s)) at the normalised points of X, for a homogeneous
    f, in the field's format: the degree-d evaluation matrix times f's
    coefficient vector, scattered through the cached column index. Over F_p
    each product is reduced before the row sums, which then stay below
    C(n+d, n) * p."""
    if f.ring != X.ring():
        raise ValueError("polynomial from a different ring")
    if not f.is_homogeneous():
        raise ValueError("values_of needs a homogeneous form")
    fld = X.field
    if f.is_zero():
        return fld.array([fld.zero] * X.s)
    d = f.degree()
    index = _columns(X.n + 1, X.ring().order, d)[2]
    coeffs = np.zeros(len(index), dtype=np.int64 if fld.kind == "prime" else object)
    coeffs[[index[e] for e in f.terms]] = list(f.terms.values())
    return fld.reduce(fld.reduce(X.evaluation_array(d) * coeffs).sum(axis=1))


def is_nonzerodivisor(g: Poly, X: PointSet) -> bool:
    """On the reduced coordinate ring of X, g is a non-zero divisor exactly
    when it vanishes at no point; g = 0 is a zero divisor."""
    if not g.is_homogeneous():
        raise ValueError("is_nonzerodivisor needs a homogeneous form")
    return bool(np.all(values_of(g, X) != 0))


class PointValues:
    """R_X and R_X / J R_X, for a J given by homogeneous lifts, as value
    vectors at the points of X.

    Points are normalised, so evaluation ev_u: R_u -> k^s has kernel exactly
    (I_X)_u: it identifies (R_X)_u with V_u, the span of the degree-u
    monomials' value vectors, and it multiplies pointwise,
    ev(ab) = ev(a) * ev(b). V_u is 0 for u < 0 and all of k^s from delta_X
    on. The image of (I_X + J)_d is W_d = sum_j ev(j) * V_{d - deg j} over
    the generators j of J, so (R/(I_X + J))_d is V_d / W_d.

    With a chart coordinate x_v (module docstring), x = ev(x_v) has no zero
    entry, so for dmax = max deg j and T = delta_X + dmax, multiplying by
    x^(T - d) is injective on k^s. It maps W_d onto the span of the columns
    x^(dmax - dj) * ev(j) * ev(m), for the generators j (of degree dj) and
    the monomials m of degree delta_X, whose entry degree
    e = dj + delta_X - e_v(m) is at most d: with m = x_v^a * m', such a
    column is x^(T - e) * ev(j * m') = x^(T - d) * ev(x_v^(d - e) * j * m'),
    and V_u = k^s = V_{delta_X} covers the degrees d - dj > delta_X. So one
    entry-degree elimination of those columns (module docstring) gives
    dim W_d in every degree. Without a chart, `hilbert_function` takes a
    rank of `image_rows(d)` in each degree. Either way dim V_d is
    `X.rank_at(d)`.

    `span(u)` and `annihilator(u)` are rows spanning V_u and its
    annihilator (w lies in V_u iff y . w = 0 for every annihilator row y),
    as arrays in the field's matrix format with s columns. Spanning rows are
    all that Hom, `image_rows` and membership need, so below delta_X the
    span is X's read-only evaluation matrix transposed, whether or not its
    rows are independent. Annihilators are kept per degree for the life of
    this object.
    """

    __slots__ = ("X", "field", "full", "gens", "chart", "_entered", "_annihilators")

    def __init__(self, X: PointSet, J: Ideal):
        if J.ring != X.ring():
            raise ValueError("J and the points live in different rings")
        if not all(j.is_homogeneous() for j in J.generators):
            raise ValueError("J must be given by homogeneous generators")
        self.X = X
        self.field = X.field
        self.full = X.delta()
        self.gens = [(values_of(j, X), j.degree()) for j in J.generators]
        self.chart = X.chart()
        self._entered: np.ndarray | None = None
        self._annihilators: dict[int, np.ndarray] = {}

    def times(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise product; a value vector times each row of b broadcasts."""
        return self.field.reduce(a * b)

    def as_rows(self, rows) -> np.ndarray:
        """Rows (possibly none) as an array with s columns."""
        return self.field.array(rows).reshape(-1, self.X.s)

    def span(self, u: int) -> np.ndarray:
        """Rows spanning V_u: none for u < 0, the unit matrix from delta_X
        on, and the monomials' value vectors in between."""
        if u < 0:
            return self.as_rows([])
        if u >= self.full:
            return self.as_rows(np.eye(self.X.s, dtype=np.int64))
        return self.X.evaluation_array(u).T

    def annihilator(self, u: int) -> np.ndarray:
        """A basis of the annihilator of V_u in k^s."""
        got = self._annihilators.get(u)
        if got is None:
            if u < 0:  # V_u = 0: all of k^s
                got = self.span(self.full)
            elif u >= self.full:  # V_u = k^s: no row
                got = self.span(-1)
            else:
                got = _kernel(self.field, self.span(u), self.X.s)[0]
            self._annihilators[u] = got
        return got

    def image_rows(self, d: int) -> np.ndarray:
        """Rows spanning W_d, the values of (I_X + J)_d, in one array."""
        blocks = [self.times(v, self.span(d - dj)) for v, dj in self.gens]
        return np.concatenate(blocks) if blocks else self.span(-1)

    def contains(self, g: Poly) -> bool:
        """g in I_X + J, for a homogeneous g: ev(g) lies in W_{deg g}, that
        is, the last column of [image_rows; ev(g)] transposed is no pivot of
        its column rank profile, one elimination."""
        rows = self.image_rows(g.degree())
        with_g = np.concatenate([rows, values_of(g, self.X)[None, :]]).T
        return len(rows) not in rank_profile(self.field, with_g, len(rows) + 1)

    def image_degrees(self) -> np.ndarray:
        """The entry degrees of the pivot columns, ascending, of the one
        elimination that spans every W_d (class docstring); needs a chart."""
        if self._entered is None:
            X, v, top = self.X, self.chart, self.full
            x = self.field.array([p[v] for p in X.points])
            dmax = max((dj for _, dj in self.gens), default=0)
            ev, e_v = X.evaluation_array(top), X.chart_exponents(top, v)
            cols, degrees = [ev[:, :0]], [e_v[:0]]  # J = 0: no column, every W_d is 0
            for vals, dj in self.gens:
                for _ in range(dmax - dj):
                    vals = self.times(vals, x)
                cols.append(self.times(vals[:, None], ev))
                degrees.append(dj + top - e_v)
            self._entered = _entry_degrees(self.field, np.concatenate(cols, axis=1),
                                           np.concatenate(degrees))
        return self._entered

    def hilbert_function(self, d: int) -> int:
        """HF(R/(I_X + J))_d = dim V_d - dim W_d: HF_X(d) less, with a chart,
        the pivots of `image_degrees` that entered by degree d, and without
        one the rank of `image_rows(d)`."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        if self.chart is None:
            image = rank(self.field, self.image_rows(d), self.X.s)
        else:
            image = int(np.searchsorted(self.image_degrees(), d, side="right"))
        return self.X.rank_at(min(d, self.full)) - image

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
        artinian = bool(np.all(np.any([v != 0 for v, _ in self.gens], axis=0)))
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
