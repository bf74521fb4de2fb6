"""Graded dimensions of Hom(J, R_X), computed on the values at the points.

Evaluation at the normalised points identifies (R_X)_u with a subspace
V_u of k^s and multiplies pointwise (`gradus.points.PointValues`). V_u is
0 for u < 0 and all of k^s from delta_X on.

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
# row_space_basis is unused here but stays importable from gradus.hom, which
# perfbench's tracer tests read
from .field import kernel_basis, rank, row_space_basis  # noqa: F401
from .groebner import Ideal
from .points import PointSet, PointValues, is_nonzerodivisor, values_of
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


def _ratios(V: PointValues, g: Poly) -> list[tuple[list, int]]:
    """(ev(j) / ev(g), deg j - deg g) per generator j, for a witness g
    that vanishes at no point."""
    inv = [V.field.inv(a) for a in values_of(g, V.X)]
    return [(V.times(v, inv), dj - g.degree()) for v, dj in V.gens]


def _colon_rows(V: PointValues, ratios: list, t: int) -> list[list]:
    """Rows whose common kernel in k^s is ((I_X + (g)) : J)_t modulo I_X,
    given `ratios` = `_ratios(V, g)`."""
    rows = list(V.annihilator(t))
    for ratio, shift in ratios:
        rows.extend(V.times(y, ratio) for y in V.annihilator(t + shift))
    return rows


def _witness(V: PointValues, J: Ideal, X: PointSet, witness: Poly | None) -> Poly:
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
    V = PointValues(X, J)
    g = _witness(V, J, X, witness)
    ratios = _ratios(V, g)
    dg = g.degree()
    dims = {}
    for i in degrees:
        t = i + dg
        if t < 0:
            continue
        dims[i] = X.s - rank(X.field, _colon_rows(V, ratios, t), X.s)
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
    V = PointValues(X, J)
    if not V.contains(g):
        raise GradusError("theta needs g in J")
    g0 = _witness(V, J, X, witness)
    ratios = _ratios(V, g0)
    d0 = g0.degree()
    fld, s = X.field, X.s
    at_g0, at_g = values_of(g0, X), values_of(g, X)
    out = {}
    for i in degrees:
        t = i + d0
        if t < 0:
            continue
        hom = kernel_basis(fld, _colon_rows(V, ratios, t), s)
        # the colon holds (I_X + (g0))_t, which is g0 * V_{t - deg g0} modulo I_X
        sub = [V.times(at_g0, b) for b in V.span(t - d0)]
        if rank(fld, hom + sub, s) != len(hom):
            raise GradusError("Hom subspace misses (I_X + (g))_t; this is a bug")
        out[i] = len(hom) - rank(fld, [V.times(at_g, h) for h in hom], s)
    return out
