"""Graded dimensions of Hom(J, R_X) through the colon-ideal route.

For a non-zero-divisor g in J, evaluation at g embeds Hom(J, R_X) into R_X
as the colon ((I_X + (g)) : J), shifted by deg g. Graded dimensions and the
per-degree kernel of evaluation-at-g maps then reduce to Hilbert-function
differences and rank computations on multiplication matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import GradusError
from .field import rank, row_space_basis
from .groebner import Ideal, ideal_quotient, ideal_sum
from .hilbert import hilbert_function
from .points import PointSet, is_nonzerodivisor, vanishing_ideal
from .ring import Poly, monomials_of_degree, poly_to_str


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


def _check_witness(g: Poly, J: Ideal, X: PointSet):
    """An explicit witness must be a non-zero divisor lying in J."""
    if not is_nonzerodivisor(g, X):
        raise GradusError("supplied witness is a zero divisor on R_X")
    if not ideal_sum(vanishing_ideal(X), J).contains(g):
        raise GradusError("supplied witness does not lie in J")


def _colon_for_witness(X: PointSet, J: Ideal, g: Poly) -> tuple[Ideal, Ideal]:
    """(I_X, ((I_X + (g)) : (I_X + J))) for the chosen witness g."""
    I_X = vanishing_ideal(X)
    ring = I_X.ring
    G = ideal_sum(I_X, Ideal(ring, [g]))
    J_R = ideal_sum(I_X, J)
    return I_X, ideal_quotient(G, J_R)


def hom_graded_dims(J: Ideal, X: PointSet, degrees, witness: Poly | None = None) -> HomProfile:
    """dim_k Hom_{R_X}(J, R_X)_i for each i in `degrees`.

    J is given by homogeneous lifts in R; the profile does not depend on
    which non-zero-divisor witness is used (callers can pass one to check).
    """
    if not J.generators:
        raise ValueError("Hom needs a nonzero ideal J")
    if witness is not None:
        _check_witness(witness, J, X)
        g = witness
    else:
        g = find_nzd_generator(J, X)
    I_X, colon = _colon_for_witness(X, J, g)
    dg = g.degree()
    dims = {}
    for i in degrees:
        t = i + dg
        if t < 0:
            continue
        dims[i] = hilbert_function(I_X, t) - hilbert_function(colon, t)
    return HomProfile(
        dims=dims,
        witness=poly_to_str(g),
        witness_degree=dg,
        delta=X.delta(),
        s=X.s,
    )


def _subspace_rows(I_X: Ideal, sub: Ideal, t: int) -> list[list]:
    """Coordinate rows, over the degree-t standard monomials of R/I_X, of the
    image of sub_t in (R_X)_t."""
    ring = I_X.ring
    Q = I_X.quotient()
    rows = [
        Q.coords(c.mul_term(m, ring.field.one), t)
        for c in sub.groebner() if c.degree() <= t
        for m in monomials_of_degree(ring.nvars, t - c.degree(), ring.order)
    ]
    return row_space_basis(ring.field, rows, len(Q.basis(t)))


def theta_kernel_dims(J: Ideal, g: Poly, X: PointSet, degrees,
                      witness: Poly | None = None) -> dict[int, int]:
    """Per-degree kernel dimension of evaluation-at-g on Hom_{R_X}(J, R_X).

    All-zero over the probed range is injectivity evidence; a non-zero
    divisor g gives an injective map, a zero divisor does not.
    """
    I_X = vanishing_ideal(X)
    J_R = ideal_sum(I_X, J)
    if not J_R.contains(g):
        raise GradusError("theta needs g in J")
    if witness is not None:
        _check_witness(witness, J, X)
        g0 = witness
    else:
        g0 = find_nzd_generator(J, X)
    _, colon = _colon_for_witness(X, J, g0)
    fld = I_X.ring.field
    d0 = g0.degree()
    out = {}
    for i in degrees:
        t = i + d0
        if t < 0:
            continue
        hom_rows = _subspace_rows(I_X, colon, t)
        hom_dim = len(hom_rows)
        expect = hilbert_function(I_X, t) - hilbert_function(colon, t)
        if hom_dim != expect:
            raise GradusError("colon subspace dimension mismatch; this is a bug")
        if hom_dim == 0 or g.is_zero():
            out[i] = hom_dim  # zero map: everything is kernel
            continue
        Q = I_X.quotient()
        # the images under g of a basis of the subspace, one form per row
        images = [g * Poly(I_X.ring, dict(zip(Q.basis(t), v))) for v in hom_rows]
        out[i] = hom_dim - rank(fld, [Q.coords(h, t + g.degree()) for h in images])
    return out
