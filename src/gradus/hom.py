"""Graded dimensions of Hom(J, R_X), computed on the values at the points.

Points are normalised (first non-zero coordinate 1), so evaluation
ev_u: R_u -> k^s, f -> (f(P_1), ..., f(P_s)), has kernel exactly (I_X)_u:
it identifies (R_X)_u with V_u, the span of the degree-u monomials' value
vectors, and it multiplies pointwise, ev(ab) = ev(a) * ev(b). V_u is 0 for
u < 0 and all of k^s from delta_X on.

For a non-zero divisor g in J, evaluation at g embeds Hom(J, R_X) into R_X
as the colon ((I_X + (g)) : J), shifted by deg g. As g vanishes at no
point, (I_X + (g))_u is the preimage of g * V_{u - deg g}, so in degree
t = i + deg g the colon modulo I_X is

    {f in V_t : (j/g) * f in V_{t + deg j - deg g} for every generator j of J},

the kernel of one small matrix: the annihilator rows of V_t and of each
target, the latter scaled by j/g. Membership in I_X + J is a span test in
the same way. No Groebner basis is computed.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import GradusError
from .field import kernel_basis, rank, row_space_basis
from .groebner import Ideal
from .points import PointSet, is_nonzerodivisor
from .ring import Poly, poly_to_str


@dataclass
class HomProfile:
    """Graded dims of Hom_{R_X}(J, R_X), the witness used to compute them,
    and the sample's invariants."""

    dims: dict = dc_field(default_factory=dict)
    witness: str = ""
    witness_degree: int = 0
    delta: int = 0
    s: int = 0
    convention: str = "colon ((I_X + (g)) : J) shifted by deg g, g a non-zero divisor in J"

    def to_json(self) -> dict:
        return {
            "dims": {str(i): v for i, v in sorted(self.dims.items())},
            "witness": self.witness,
            "witness_degree": self.witness_degree,
            "delta": self.delta,
            "s": self.s,
            "convention": self.convention,
        }


def find_nzd_generator(J: Ideal, X: PointSet) -> Poly:
    """First generator of J that is a non-zero divisor on R_X."""
    for g in J.generators:
        if is_nonzerodivisor(g, X):
            return g
    raise GradusError(
        "no generator of J is a non-zero divisor on R_X; "
        "the colon route needs a regular ideal"
    )


class _Values:
    """R_X as value vectors at the points of X, with J's generators' values.

    `space(u)` is (rows spanning V_u, rows spanning its annihilator): w lies
    in V_u iff y . w = 0 for every annihilator row y. Both are kept per
    degree for the life of one call.
    """

    __slots__ = ("X", "field", "full", "gens", "_spaces")

    def __init__(self, J: Ideal, X: PointSet):
        if J.ring != X.ring():
            raise ValueError("J and the points live in different rings")
        self.X = X
        self.field = X.field
        self.full = X.delta()
        self.gens = [(self.of(j), j.degree()) for j in J.generators]
        self._spaces: dict[int, tuple[list, list]] = {}

    def of(self, f: Poly) -> list:
        return [f.evaluate(p) for p in self.X.points]

    def times(self, a: list, b: list) -> list:
        return list(map(self.field.mul, a, b))

    def space(self, u: int) -> tuple[list, list]:
        got = self._spaces.get(u)
        if got is None:
            fld, s = self.field, self.X.s
            if 0 <= u < self.full:
                span = row_space_basis(fld, list(zip(*self.X.evaluation_rows(u))), s)
                got = (span, kernel_basis(fld, span, s))
            else:
                unit = [[fld.one if k == m else fld.zero for m in range(s)] for k in range(s)]
                got = (unit, []) if u >= 0 else ([], unit)
            self._spaces[u] = got
        return got

    def contains(self, g: Poly) -> bool:
        """g in I_X + J, for a homogeneous g: ev(g) lies in the span of
        ev(j) * V_{deg g - deg j} over the generators j of J."""
        if g.ring != self.X.ring():
            raise ValueError("polynomial from a different ring")
        d, s = g.degree(), self.X.s
        rows = [self.times(v, b) for v, dj in self.gens for b in self.space(d - dj)[0]]
        return rank(self.field, rows + [self.of(g)], s) == rank(self.field, rows, s)

    def ratios(self, g: Poly) -> list[tuple[list, int]]:
        """(ev(j) / ev(g), deg j - deg g) per generator j, for a witness g
        that vanishes at no point."""
        inv = [self.field.inv(a) for a in self.of(g)]
        return [(self.times(v, inv), dj - g.degree()) for v, dj in self.gens]

    def colon_rows(self, ratios: list, t: int) -> list[list]:
        """Rows whose common kernel in k^s is ((I_X + (g)) : J)_t modulo I_X,
        given `ratios` = `self.ratios(g)`."""
        rows = list(self.space(t)[1])
        for ratio, shift in ratios:
            rows.extend(self.times(y, ratio) for y in self.space(t + shift)[1])
        return rows


def _witness(V: _Values, J: Ideal, X: PointSet, witness: Poly | None) -> Poly:
    """The supplied witness, checked to be a non-zero divisor lying in J,
    or else the first generator of J that is a non-zero divisor."""
    if witness is None:
        return find_nzd_generator(J, X)
    if not is_nonzerodivisor(witness, X):
        raise GradusError("supplied witness is a zero divisor on R_X")
    if not V.contains(witness):
        raise GradusError("supplied witness does not lie in J")
    return witness


def hom_graded_dims(J: Ideal, X: PointSet, degrees, witness: Poly | None = None) -> HomProfile:
    """dim_k Hom_{R_X}(J, R_X)_i for each i in `degrees`.

    J is given by homogeneous lifts in R; the profile does not depend on
    which non-zero-divisor witness is used (callers can pass one to check).
    """
    if not J.generators:
        raise ValueError("Hom needs a nonzero ideal J")
    V = _Values(J, X)
    g = _witness(V, J, X, witness)
    ratios = V.ratios(g)
    dg = g.degree()
    dims = {}
    for i in degrees:
        t = i + dg
        if t < 0:
            continue
        dims[i] = X.s - rank(X.field, V.colon_rows(ratios, t), X.s)
    return HomProfile(
        dims=dims,
        witness=poly_to_str(g),
        witness_degree=dg,
        delta=X.delta(),
        s=X.s,
    )


def theta_kernel_dims(J: Ideal, g: Poly, X: PointSet, degrees,
                      witness: Poly | None = None) -> dict[int, int]:
    """Per-degree kernel dimension of evaluation-at-g on Hom_{R_X}(J, R_X).

    All-zero over the probed range is injectivity evidence; a non-zero
    divisor g gives an injective map, a zero divisor does not.
    """
    if not g.is_homogeneous():
        raise ValueError("theta_kernel_dims needs a homogeneous form g")
    V = _Values(J, X)
    if not V.contains(g):
        raise GradusError("theta needs g in J")
    g0 = _witness(V, J, X, witness)
    ratios = V.ratios(g0)
    d0 = g0.degree()
    fld, s = X.field, X.s
    at_g0, at_g = V.of(g0), V.of(g)
    out = {}
    for i in degrees:
        t = i + d0
        if t < 0:
            continue
        hom = kernel_basis(fld, V.colon_rows(ratios, t), s)
        # the colon holds (I_X + (g0))_t, which is g0 * V_{t - deg g0} modulo I_X
        sub = [V.times(at_g0, b) for b in V.space(t - d0)[0]]
        if rank(fld, hom + sub, s) != len(hom):
            raise GradusError("Hom subspace misses (I_X + (g))_t; this is a bug")
        out[i] = len(hom) - rank(fld, [V.times(at_g, h) for h in hom], s)
    return out
