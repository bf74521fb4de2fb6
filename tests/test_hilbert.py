import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from gradus.experiments import reference_J
from gradus.field import field_from_string
from gradus.groebner import Ideal, ideal_sum, leading_term_ideal
from gradus.hilbert import (
    delta_X,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    hilbert_values,
    ideal_dimension_by_rank,
    is_artinian,
    socle_degree,
    standard_monomials,
)
from gradus.points import random_general_points, vanishing_ideal
from gradus.ring import (
    Poly, RingSpec, _minus, _numerator, _reduced, _times_one_minus_t, monomials_of_degree,
    order_from_string, parse_poly,
)

R = RingSpec(3)


def P(s):
    return parse_poly(R, s)


def test_hf_of_zero_ideal():
    Z = Ideal(R, [])
    assert hilbert_values(Z, 3) == [1, 3, 6, 10]


def test_hf_of_seven_points_with_rank_oracle():
    X = random_general_points(7, 2, seed=2)
    I = vanishing_ideal(X)
    assert hilbert_values(I, 5) == [1, 3, 6, 7, 7, 7]
    # evaluation-rank oracle agrees degree by degree
    for d in range(6):
        assert hilbert_function(I, d) == X.rank_at(d)


def test_hf_matches_rank_based_ideal_dimension():
    X = random_general_points(5, 2, seed=6)
    I = vanishing_ideal(X)
    for d in range(11):
        assert hilbert_function(I, d) == comb(2 + d, 2) - ideal_dimension_by_rank(I, d)


def test_jx6_quotient_sequence():
    X = random_general_points(7, 2, seed=8)
    quotient = ideal_sum(vanishing_ideal(X), reference_J(X.ring(), "JX6"))
    assert hilbert_values(quotient, 6) == [1, 3, 5, 3, 0, 0, 0]


def test_hilbert_polynomial_points_constant():
    for s, seed in [(4, 3), (7, 4)]:
        X = random_general_points(s, 2, seed=seed)
        I = vanishing_ideal(X)
        hp = hilbert_polynomial(I)
        assert hp.degree() == 0
        assert hp(10) == s
        assert hp.stable_from == delta_X(X)
        assert str(hp) == str(s)


def test_hilbert_polynomial_of_zero_ideal():
    hp = hilbert_polynomial(Ideal(R, []))
    # binom(d+2, 2) = 1 + 3/2 d + 1/2 d^2
    assert hp.coeffs == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    assert hp.stable_from == 0
    assert hp.degree() == 2
    assert str(hp) == "1/2*d^2+3/2*d+1"


def test_hilbert_polynomial_artinian_zero():
    A = Ideal(R, [P("x0"), P("x1"), P("x2")])
    hp = hilbert_polynomial(A)
    assert hp.degree() == -1
    assert hp.stable_from == 1
    assert str(hp) == "0"


def test_hilbert_polynomial_has_no_degree_limit():
    # R/(x0, x1^2*x2^40) is k[x1, x2]/(x1^2*x2^40): HF is d+1 through
    # degree 41, then 42; the series proves both, however late
    I = Ideal(R, [P("x0"), P("x1^2*x2^40")])
    hp = hilbert_polynomial(I)
    assert str(hp) == "42"
    assert hp.stable_from == 41
    assert hilbert_function(I, 40) == 41


def test_hilbert_polynomial_of_a_late_stabilizing_ideal():
    # HF is d+1 through degree 11, then 12 for good: any window of seven
    # values below degree 5 fits d+1
    I = Ideal(R, [P("x0"), P("x1^2*x2^10")])
    assert hilbert_series(I) == ((1,) * 12, 1)
    hp = hilbert_polynomial(I)
    assert str(hp) == "12" and hp.stable_from == 11
    assert hilbert_values(I, 13) == list(range(1, 13)) + [12, 12]


def _sample_ideals(ring, rng):
    """Random, monomial, zero and unit ideals of `ring`."""
    out = [Ideal(ring, []), Ideal(ring, [ring.one()])]
    for _ in range(4):
        gens = [ring.random_form(rng.randrange(1, 4), rng) for _ in range(rng.randrange(1, 5))]
        out.append(Ideal(ring, [g for g in gens if not g.is_zero()]))
    for _ in range(3):
        monos = [rng.choice(monomials_of_degree(ring.nvars, rng.randrange(1, 5), ring.order))
                 for _ in range(rng.randrange(1, 5))]
        out.append(Ideal(ring, [Poly(ring, {e: ring.field.one}) for e in monos]))
    return out


@pytest.mark.parametrize("field, order, nvars", [
    ("3", "grevlex", 3), ("32003", "grevlex", 3), ("Q", "grevlex", 3),
    ("32003", "lex", 3), ("32003", "grevlex", 4),
], ids=("F3", "F32003", "Q", "lex-F32003", "F32003-4vars"))
def test_series_matches_the_standard_monomials_and_the_rank_oracle(field, order, nvars):
    ring = RingSpec(nvars, field_from_string(field), order_from_string(order))
    rng = random.Random(f"{field}-{order}-{nvars}")
    for I in _sample_ideals(ring, rng):
        for d in range(8):
            hf = hilbert_function(I, d)
            assert hf == len(standard_monomials(I, d))
            assert hf == comb(nvars - 1 + d, nvars - 1) - ideal_dimension_by_rank(I, d)
        hp = hilbert_polynomial(I)
        for d in range(hp.stable_from, hp.stable_from + 6):
            assert hp(d) == hilbert_function(I, d)
        if hp.stable_from:
            assert hp(hp.stable_from - 1) != hilbert_function(I, hp.stable_from - 1)
        assert hp.degree() == hilbert_series(I)[1] - 1


def test_is_artinian_examples():
    assert is_artinian(Ideal(R, [P("x0"), P("x1"), P("x2")]))
    X = random_general_points(4, 2, seed=10)
    I = vanishing_ideal(X)
    assert not is_artinian(I)
    quotient = ideal_sum(I, reference_J(R, "JX1"))
    assert is_artinian(quotient)
    assert hilbert_values(Ideal(R, [P("x0"), P("x1"), P("x2")]), 2) == [1, 0, 0]


def test_artinian_criteria_agree_on_random_ideals():
    rng = random.Random(20)
    for _ in range(50):
        gens = [R.random_form(rng.randrange(1, 4), rng)
                for _ in range(rng.randrange(1, 5))]
        I = Ideal(R, [g for g in gens if not g.is_zero()])
        if not I.generators:
            continue
        flag = is_artinian(I)  # raises internally if the two criteria disagree
        bound = sum(g.degree() for g in I.groebner()) + 4
        if not flag:
            # HF must stay positive out to the probe bound
            assert hilbert_function(I, bound) > 0


def test_socle_examples():
    m2 = Ideal(R, [P("x0"), P("x1"), P("x2")])
    sq = Ideal(R, [a * b for a in m2.generators for b in m2.generators])
    rep = socle_degree(sq)
    assert (rep.artinian, rep.socle_degree, rep.initial_degree) == (True, 1, 2)

    X = random_general_points(7, 2, seed=12)
    quotient = ideal_sum(vanishing_ideal(X), reference_J(R, "JX6"))
    rep = socle_degree(quotient)
    assert rep.artinian
    assert rep.socle_degree == 3
    assert rep.initial_degree == 2
    assert rep.socle_degree == rep.initial_degree + 1

    non_art = socle_degree(vanishing_ideal(X))
    assert not non_art.artinian
    assert non_art.socle_degree is None


def test_socle_degree_of_the_zero_ring_is_none():
    # R/(1) = 0 has no nonzero degree; 0 would claim (R/I)_0 != 0
    for gens in (["1"], ["x0", "1"], ["x0^2", "x1", "3"]):
        unit = Ideal(R, [P(g) for g in gens])
        rep = socle_degree(unit)
        assert (rep.artinian, rep.socle_degree, rep.initial_degree) == (True, None, 0)
        assert hilbert_function(unit, 0) == 0


def test_delta_examples():
    assert delta_X(random_general_points(1, 2, seed=1)) == 0
    assert delta_X(random_general_points(4, 2, seed=1)) == 2
    assert delta_X(random_general_points(7, 2, seed=1)) == 3


def test_macaulay_invariance_for_points():
    X = random_general_points(6, 2, seed=30)
    I = vanishing_ideal(X)
    L = leading_term_ideal(I)
    for d in range(13):
        assert hilbert_function(I, d) == hilbert_function(L, d)


def test_unit_ideal_is_artinian_zero_ring():
    U = Ideal(R, [R.one()], check=False)
    assert is_artinian(U)
    assert hilbert_values(U, 2) == [0, 0, 0]


def _last_generator_split(leads):
    """The numerator by the textbook split on the last minimal generator m,
    K(M) = K(M') - t^deg m * K(M' : m) for M = M' + (m), kept here as the
    reference for the pivot split."""
    gens = []
    for e in sorted(set(leads), key=sum):
        if not any(all(a <= b for a, b in zip(g, e)) for g in gens):
            gens.append(e)
    if not gens or all(sum(g[v] > 0 for g in gens) <= 1 for v in range(len(gens[0]))):
        K = [1]
        for g in gens:
            K = _minus(K, [0] * sum(g) + K)
        return K
    m, rest = gens[-1], gens[:-1]
    colon = [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest]
    return _minus(_last_generator_split(rest), [0] * sum(m) + _last_generator_split(colon))


def _trimmed(K):
    K = list(K)
    while len(K) > 1 and K[-1] == 0:
        K.pop()
    return K


def _counted_numerator(gens, nvars):
    """K(t) from a count of the standard monomials of each degree up to the
    degree of the lcm of the generators, which bounds deg K (the Taylor
    resolution), so the count through it proves K."""
    top = sum(max((g[v] for g in gens), default=0) for v in range(nvars))
    G = np.array(gens, dtype=np.int64).reshape(len(gens), nvars)
    counts = []
    for d in range(top + 1):
        monos = np.array(monomials_of_degree(nvars, d), dtype=np.int64).reshape(-1, nvars)
        counts.append(int((~(G <= monos[:, None]).all(axis=2).any(axis=1)).sum()))
    return _trimmed(_times_one_minus_t(counts, nvars)[:top + 1])


def test_numerator_pivot_split_matches_a_count_and_the_last_generator_split():
    rng = random.Random(27)
    for _ in range(320):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(rng.randint(0, 7))]
        K = _trimmed(_numerator(gens))
        assert K == _counted_numerator(gens, nvars), gens
        assert K == _trimmed(_last_generator_split(gens)), gens


@pytest.mark.parametrize("gens", [
    [(1000, 0), (0, 1000), (500, 500)],
    [(10**6, 0), (0, 10**6), (5, 5)],
], ids=("x^1000", "x^10^6"))
def test_numerator_pivot_split_finishes_on_high_pure_powers(gens):
    K = _trimmed(_numerator(gens))
    assert K == _trimmed(_last_generator_split(gens))
    # (x^a, y^a, x^b * y^b) is Artinian, its standard monomials those of the
    # a x a square but its (a - b) x (a - b) corner
    a, b = gens[0][0], gens[2][0]
    h, dim = _reduced(K, 2)
    assert dim == 0 and sum(h) == a * a - (a - b) ** 2
