"""gradus: exact commutative algebra for point sets in projective space."""

from .field import (
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    Scalar,
    field_arith,
    field_from_string,
    kernel_basis,
    rank,
)
from .ring import (
    Poly,
    RingSpec,
    TermOrder,
    compare_monomials,
    leading_term,
    monomials_of_degree,
    parse_poly,
    poly_arith,
    poly_to_str,
)
from .groebner import (
    Ideal,
    equal_ideals,
    ideal_intersection,
    ideal_membership,
    ideal_quotient,
    ideal_sum,
    leading_term_ideal,
    normal_form,
    reduced_groebner,
)
from .points import (
    PointSet,
    evaluation_matrix,
    is_nonzerodivisor,
    random_general_points,
    vanishing_ideal,
    vanishing_ideal_oracle,
)
from .hilbert import (
    delta_X,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    hilbert_values,
    is_artinian,
    socle_degree,
)
from .betti import BettiTable, betti_consistency_check, graded_betti, render_betti
from .hom import HomProfile, hom_graded_dims, theta_kernel_dims
from .experiments import (
    build_reference_J,
    monomial_artinian_study,
    reproduce_reference,
    socle_group_scan,
    xi_group_size,
)

__version__ = "0.1.0"
