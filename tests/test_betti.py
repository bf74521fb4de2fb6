import random
from math import comb

import pytest

import gradus.betti as betti
from gradus.betti import (
    BettiTable,
    betti_consistency_check,
    graded_betti,
    render_betti,
)
from gradus.field import PrimeField, RationalField, rank
from gradus.groebner import Ideal, ideal_sum
from gradus.hilbert import hilbert_values, ideal_dimension_by_rank
from gradus.experiments import reference_J
from gradus.points import PointSet, random_general_points, vanishing_ideal
from gradus.ring import LEX, Poly, RingSpec, TermOrder, monomials_of_degree, parse_poly

R = RingSpec(3)


def P(s):
    return parse_poly(R, s)


def test_koszul_resolution_of_linear_form():
    T = graded_betti(Ideal(R, [P("x0")]))
    assert T.entries == {(0, 0): 1, (1, 1): 1}
    assert not T.truncated


def test_zero_ideal_table():
    T = graded_betti(Ideal(R, []))
    assert T.entries == {(0, 0): 1}
    assert betti_consistency_check(T, [comb(2 + d, 2) for d in range(8)])


def test_single_point_table():
    X = PointSet(2, R.field, [[1, 0, 0]])
    T = graded_betti(vanishing_ideal(X))
    assert T.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_two_point_table():
    X = random_general_points(2, 2, seed=31)
    I = vanishing_ideal(X)
    T = graded_betti(I)
    assert T.entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
    assert T.totals() == [1, 2, 1]
    assert betti_consistency_check(T, hilbert_values(I, 9))


def test_seven_point_table():
    X = random_general_points(7, 2, seed=32)
    I = vanishing_ideal(X)
    T = graded_betti(I)
    assert T.entries == {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}
    # spec arithmetic at d=5: 21 - 3*6 + 3 + 1 = 7
    assert betti_consistency_check(T, hilbert_values(I, 9))


def test_consistency_worked_example_four_points():
    X = random_general_points(4, 2, seed=33)
    I = vanishing_ideal(X)
    T = graded_betti(I)
    assert T.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    hf = hilbert_values(I, 4)
    # by hand: d=2 gives 6-2 = 4, d=4 gives 15-2*6+1 = 4
    assert hf[2] == 4 and hf[4] == 4
    assert betti_consistency_check(T, hf)
    # and a corrupted table fails
    bad = BettiTable(entries=dict(T.entries), nvars=3)
    bad.entries[(1, 2)] = 3
    assert not betti_consistency_check(bad, hf)


def _r1_times_degree_slice(I, j):
    """dim of R_1 * I_{j-1} by rank, for the beta_1 oracle."""
    ring = I.ring
    fld = ring.field
    monos = monomials_of_degree(ring.nvars, j, ring.order)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for g in I.groebner():
        dg = g.degree()
        if dg > j - 1:
            continue
        for m in monomials_of_degree(ring.nvars, j - 1 - dg, ring.order):
            for v in range(ring.nvars):
                row = [fld.zero] * len(monos)
                for e, c in g.terms.items():
                    ee = list(map(sum, zip(m, e)))
                    ee[v] += 1
                    row[index[tuple(ee)]] = c
                rows.append(row)
    return rank(fld, rows, len(monos)) if rows else 0


def test_beta1_equals_minimal_generator_count_by_rank():
    for s, seed in [(3, 40), (7, 41)]:
        X = random_general_points(s, 2, seed=seed)
        I = vanishing_ideal(X)
        T = graded_betti(I)
        top = max(j for (_, j) in T.entries) + 1
        for j in range(1, top + 1):
            expected = ideal_dimension_by_rank(I, j) - _r1_times_degree_slice(I, j)
            assert T.get(1, j) == expected


def test_artinian_depth_zero_has_third_syzygies():
    X = random_general_points(7, 2, seed=42)
    quotient = ideal_sum(vanishing_ideal(X), reference_J(R, "JX6"))
    T = graded_betti(quotient)
    assert any(i == 3 for (i, _) in T.entries)  # depth 0: Koszul length realized
    assert all(i <= 3 for (i, _) in T.entries)
    assert betti_consistency_check(T, hilbert_values(quotient, 8))
    assert not T.truncated


def test_truncation_flag():
    X = random_general_points(2, 2, seed=31)
    T = graded_betti(vanishing_ideal(X), max_degree=2)
    assert T.truncated
    assert (2, 3) not in T.entries


def test_render_matches_printed_layout():
    X = random_general_points(2, 2, seed=31)
    T = graded_betti(vanishing_ideal(X))
    assert render_betti(T) == "   1 2 1\n0: 1 1 -\n1: - 1 1"
    X3 = random_general_points(3, 2, seed=31)
    T3 = graded_betti(vanishing_ideal(X3))
    assert render_betti(T3) == "   1 3 2\n0: 1 - -\n1: - 3 2"
    lone = BettiTable(entries={(0, 0): 1}, nvars=3)
    assert render_betti(lone) == "   1\n0: 1"


def test_rational_field_betti():
    RQ = RingSpec(3, RationalField())
    T = graded_betti(Ideal(RQ, [parse_poly(RQ, "x0^2"), parse_poly(RQ, "x1")]))
    # complete intersection (x1, x0^2): Koszul gives 1,2,1 with degrees
    assert T.entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_json_shape():
    X = random_general_points(2, 2, seed=31)
    data = graded_betti(vanishing_ideal(X)).to_json()
    assert {"i": 1, "j": 2, "value": 1} in data["betti"]
    assert data["truncated"] is False


def test_json_carries_the_certificate():
    X = random_general_points(7, 2, seed=32)
    data = graded_betti(vanishing_ideal(X)).to_json()
    assert data["certificate"] == {"rule": "section", "bound": 5, "sections": 1}
    assert data["max_degree"] == 5
    artinian = ideal_sum(vanishing_ideal(X), reference_J(R, "JX6"))
    cert = graded_betti(artinian).to_json()["certificate"]
    assert cert["rule"] == "artinian" and cert["sections"] == 0
    assert graded_betti(Ideal(R, [])).to_json()["certificate"] == {
        "rule": "taylor", "bound": 0, "sections": 2}


def test_late_syzygies_beyond_the_old_degree_guess():
    # x2 divides a lead, so no section applies and the Taylor bound
    # deg lcm(x0, x1^2, x1*x2^10) = 13 certifies the table
    I = Ideal(R, [P("x0"), P("x1^2"), P("x1*x2^10")])
    T = graded_betti(I)
    assert (T.get(1, 11), T.get(2, 12), T.get(3, 13)) == (1, 2, 1)
    assert not T.truncated
    assert (T.certificate.rule, T.certificate.bound) == ("taylor", 13)
    assert betti_consistency_check(T, hilbert_values(I, 16))
    assert graded_betti(I, max_degree=12).truncated
    assert not graded_betti(I, max_degree=20).truncated


def test_negative_max_degree_is_rejected():
    with pytest.raises(ValueError):
        graded_betti(Ideal(R, [P("x0")]), max_degree=-1)


def _full_ring(I):
    """The slow path: Koszul ranks over R itself, out to the Taylor bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_section", lambda J: None)
        mp.setattr(betti, "is_artinian", lambda J: False)
        T = graded_betti(I)
    assert (T.certificate.rule, T.certificate.sections) == ("taylor", 0)
    return T


def _check_against_full_ring(I, rule, sections):
    T = graded_betti(I)
    assert (T.certificate.rule, T.certificate.sections) == (rule, sections)
    assert not T.truncated and T.nvars == I.ring.nvars
    assert T.entries == _full_ring(I).entries
    assert betti_consistency_check(T, hilbert_values(I, T.max_degree + 2))
    return T


def test_section_route_equals_full_ring_on_random_points():
    rng = random.Random(20)
    fld = PrimeField(32003)
    for n, sizes in ((1, range(1, 7)), (2, range(1, 11)), (3, range(1, 9))):
        for s in sizes:
            for _ in range(4):
                X = random_general_points(s, n, rng.randrange(2**31), fld)
                if any(p[-1] == 0 for p in X.points):
                    continue  # the zero-divisor case has its own test
                _check_against_full_ring(vanishing_ideal(X), "section", 1)


def test_section_route_equals_full_ring_over_q():
    RQ = RingSpec(3, RationalField())
    for s, seed in ((2, 50), (3, 51), (4, 52), (5, 53)):
        X = random_general_points(s, 2, seed, RQ.field)
        _check_against_full_ring(vanishing_ideal(X), "section", 1)


def test_point_on_the_last_hyperplane_takes_the_taylor_bound():
    fld = PrimeField(32003)
    pts = [[1, 2, 0], [1, 5, 7], [3, 1, 4], [2, 9, 1], [6, 1, 11]]
    T = _check_against_full_ring(vanishing_ideal(PointSet(2, fld, pts)), "taylor", 0)
    # the same points with x0 moved last: no point lies on x2 = 0 any more,
    # and a linear change of coordinates keeps the table
    moved = vanishing_ideal(PointSet(2, fld, [p[1:] + p[:1] for p in pts]))
    assert graded_betti(moved).certificate.rule == "section"
    assert graded_betti(moved).entries == T.entries


def test_artinian_and_zero_ideal_equal_full_ring():
    X = random_general_points(7, 2, seed=42)
    _check_against_full_ring(ideal_sum(vanishing_ideal(X), reference_J(R, "JX6")),
                             "artinian", 0)
    _check_against_full_ring(Ideal(R, [P("x0^2"), P("x1^3"), P("x2^2"), P("x0*x1*x2")]),
                             "artinian", 0)
    _check_against_full_ring(Ideal(R, []), "taylor", 2)
    R4 = RingSpec(4)
    _check_against_full_ring(Ideal(R4, []), "taylor", 3)


def test_lex_ring_takes_the_taylor_bound():
    X = random_general_points(6, 2, seed=43)
    I = vanishing_ideal(X)
    lex = RingSpec(3, X.field, TermOrder(LEX))
    I_lex = Ideal(lex, [Poly(lex, g.terms) for g in I.generators])
    T = _check_against_full_ring(I_lex, "taylor", 0)
    assert T.entries == graded_betti(I).entries


def test_graded_betti_refuses_the_unit_ideal():
    R = RingSpec(3)
    with pytest.raises(ValueError, match="needs a proper ideal"):
        graded_betti(Ideal(R, [R.one()]))


def test_render_betti_of_an_empty_and_of_a_truncated_table():
    assert render_betti(BettiTable()) == "(empty)"
    R = RingSpec(3)
    I = Ideal(R, [parse_poly(R, f"x{v}^2") for v in range(3)])
    assert render_betti(graded_betti(I, max_degree=2)).splitlines()[-1] == "(truncated at degree 2)"
