"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every expected value is
either a printed table/sequence, a hand-derived oracle value, or a property
checked exactly; tolerances are exact everywhere.
"""
import random
import time
from math import comb

from gradus.betti import betti_consistency_check, graded_betti
from gradus.experiments import (
    monomial_artinian_study,
    reference_J,
    socle_scan_report,
    xi_group_size,
)
from gradus.groebner import Ideal, equal_ideals, ideal_sum, leading_term_ideal
from gradus.hilbert import (
    delta_X,
    hilbert_function,
    hilbert_polynomial,
    hilbert_values,
    socle_degree,
)
from gradus.hom import hom_graded_dims, theta_kernel_dims
from gradus.points import (
    PointSet,
    is_nonzerodivisor,
    random_general_points,
    vanishing_ideal,
    vanishing_ideal_oracle,
)

_T0 = time.time()

TABLES = {
    2: ({(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}, [1, 2, 1]),
    3: ({(0, 0): 1, (1, 2): 3, (2, 3): 2}, [1, 3, 2]),
    4: ({(0, 0): 1, (1, 2): 2, (2, 4): 1}, [1, 2, 1]),
    7: ({(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}, [1, 3, 2]),
}

_table_cache: dict = {}


def _point_ideal(s, seed):
    key = (s, seed)
    if key not in _table_cache:
        X = random_general_points(s, 2, seed=seed)
        _table_cache[key] = (X, vanishing_ideal(X))
    return _table_cache[key]


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_betti_tables():
    for s, (entries, totals) in TABLES.items():
        t0 = time.time()
        _, I = _point_ideal(s, 100 + s)
        table = graded_betti(I)
        elapsed = time.time() - t0
        assert table.entries == entries, f"s={s}"
        assert table.totals() == totals
        assert elapsed < 5.0, f"s={s} took {elapsed:.2f}s"
    _report(1, "Betti tables for 2, 3, 4, 7 general points match the printed "
               "diagrams exactly, each under 5 s")


def test_criterion_2_reference_hilbert_sequences():
    cases = [
        (2, "JX1", [1, 1, 0, 0, 0, 0], 1),
        (3, "JX2", [1, 2, 0, 0, 0, 0], 1),
        (4, "JX3", [1, 2, 0, 0, 0, 0], 1),
        (7, "JX6", [1, 3, 5, 3, 0, 0], 3),
    ]
    for s, jkey, expected, omega in cases:
        for seed in (201, 202):
            X = random_general_points(s, 2, seed=seed)
            quotient = ideal_sum(vanishing_ideal(X), reference_J(X.ring(), jkey))
            assert hilbert_values(quotient, len(expected) - 1) == expected, (s, seed)
            rep = socle_degree(quotient)
            assert rep.artinian and rep.socle_degree == omega, (s, seed)
    _report(2, "verbatim J quotients give Hilb {1,1,0}, {1,2,0}, {1,2,0}, "
               "{1,3,5,3,0} with socle degrees 1,1,1,3 at 2 seeds each")


def test_criterion_3_example_2_11():
    report = monomial_artinian_study(seed=11)
    by_name = {a.name: a for a in report.assertions}
    assert by_name["Hilb(R_X/I)"].passed
    assert by_name["Hilb(R_X/I)"].computed == [1, 3, 6, 10, 15, 9, 2, 0, 0, 0]
    assert by_name["Hilb(R_X/I*)"].passed
    assert by_name["Hilb(R_X/I*)"].computed == [1, 3, 6, 10, 15, 15, 8, 0, 0, 0]
    assert by_name["all three quotients Artinian"].passed
    assert by_name["eventual-zero cross-check"].passed
    # the (I+I*) sequence is computed and reported, never asserted
    flagged = by_name["Hilb(R_X/(I+I*)) computed"]
    assert flagged.passed is None
    assert "typo" in str(flagged.expected)
    assert report.passed
    _report(3, "Example 2.11 sequences match exactly; all three quotients "
               "Artinian by both criteria; (I+I*) sequence reported with the "
               "printed value flagged")


def test_criterion_4_general_position_hilbert_law():
    for s in range(1, 26):
        for seed in (301, 302, 303):
            _, I = _point_ideal(s, seed)
            for d in range(s + 3):
                assert hilbert_function(I, d) == min(comb(d + 2, 2), s), (s, seed, d)
    _report(4, "HF(R/I_X)_d = min(C(d+2,2), s) for s = 1..25, d <= s+2, 3 seeds")


def test_criterion_5_oracle_equivalence():
    for s in range(1, 11):
        for seed in (401, 402, 403, 404, 405):
            X, I = _point_ideal(s, seed)
            assert equal_ideals(I, vanishing_ideal_oracle(X)), (s, seed)
    _report(5, "evaluation-kernel and intersection-oracle vanishing ideals have "
               "identical reduced GBs for s <= 10, 5 seeds")


def test_criterion_6_hilbert_polynomial_of_points():
    for s in range(2, 13):
        X, I = _point_ideal(s, 501)
        hp = hilbert_polynomial(I)
        assert hp.degree() <= 2
        assert hp.degree() == 0 and hp(0) == s, s
        assert hp.stable_from == delta_X(X), s
    _report(6, "hilbert_polynomial(I_X) is the constant s with stable_from = "
               "delta_X for s = 2..12; degree <= n throughout")


def _regular_pair(X, rng):
    """Two random forms, both non-zero divisors, with degrees (m, m+1) where
    m is the initial degree of I_X."""
    ring = X.ring()
    m = min(g.degree() for g in vanishing_ideal(X).groebner())
    while True:
        g1 = ring.random_form(m, rng)
        if not g1.is_zero() and is_nonzerodivisor(g1, X):
            break
    while True:
        g2 = ring.random_form(m + 1, rng)
        if not g2.is_zero() and is_nonzerodivisor(g2, X):
            break
    return Ideal(ring, [g1, g2])


def test_criterion_7_hom_dimension_reaches_s():
    for s in range(3, 10):
        for seed in (601, 602):
            X, _ = _point_ideal(s, seed)
            rng = random.Random(seed * 1000 + s)
            J = _regular_pair(X, rng)
            delta = X.delta()
            degrees = range(delta, delta + 4)
            prof1 = hom_graded_dims(J, X, degrees, witness=J.generators[0])
            prof2 = hom_graded_dims(J, X, degrees, witness=J.generators[1])
            assert prof1.dims == prof2.dims, (s, seed)  # witness independence
            assert all(prof1.dims[i] == s for i in degrees), (s, seed, prof1.dims)
    _report(7, "dim Hom(J, R_X)_i = s on [delta, delta+3] for s = 3..9, 2 seeds, "
               "independent of the NZD witness")


def test_criterion_8_theta_injectivity_matches_nzd():
    agreements = 0
    for trial in range(20):
        s = 3 + trial % 6
        X, _ = _point_ideal(s, 701 + trial)
        ring = X.ring()
        rng = random.Random(7000 + trial)
        while True:
            g0 = ring.random_form(2, rng)
            if not g0.is_zero() and is_nonzerodivisor(g0, X):
                break
        if trial % 2 == 0:
            g = ring.random_form(1 + trial % 2, rng)
        else:
            # a form vanishing at exactly one point: a zero divisor
            g = vanishing_ideal(PointSet(X.n, X.field, [X.points[0]])).generators[0]
        J = Ideal(ring, [g0, g])
        kernels = theta_kernel_dims(J, g, X, range(0, X.delta() + 4), witness=g0)
        injective_on_probe = all(v == 0 for v in kernels.values())
        assert injective_on_probe == is_nonzerodivisor(g, X), (trial, kernels)
        agreements += 1
    assert agreements == 20
    _report(8, "theta_g probed injectivity agrees with the pointwise NZD test "
               "on all 20 seeded trials")


def test_criterion_9_xi_law():
    report = socle_scan_report((2, 25), trials=3, seed=901)
    by_name = {a.name: a for a in report.assertions}
    assert by_name["group sizes"].computed == [3, 5, 7, 9]
    assert by_name["group ranges"].computed == [[2, 4], [5, 9], [10, 16], [17, 25]]
    assert [xi_group_size(n) for n in (1, 2, 3, 4)] == [3, 5, 7, 9]
    assert report.passed
    _report(9, "socle offset classes over s = 2..25 (3 seeds per s) have sizes "
               "3,5,7,9 = 2n+1 on contiguous ranges {2-4},{5-9},{10-16},{17-25}")


def test_criterion_10_internal_consistency():
    # Euler-characteristic identity for every table from criteria 1-3
    for s in TABLES:
        _, I = _point_ideal(s, 100 + s)
        table = graded_betti(I)
        assert betti_consistency_check(table, hilbert_values(I, 12)), s
    for s, jkey in [(2, "JX1"), (3, "JX2"), (4, "JX3"), (7, "JX6")]:
        X = random_general_points(s, 2, seed=201)
        quotient = ideal_sum(vanishing_ideal(X), reference_J(X.ring(), jkey))
        table = graded_betti(quotient)
        assert betti_consistency_check(table, hilbert_values(quotient, 12)), jkey
    # Macaulay invariance: HF(R/I) = HF(R/in(I)) in all probed degrees
    for s in TABLES:
        _, I = _point_ideal(s, 100 + s)
        L = leading_term_ideal(I)
        for d in range(13):
            assert hilbert_function(I, d) == hilbert_function(L, d), (s, d)
    elapsed = time.time() - _T0
    assert elapsed < 120.0, f"acceptance suite took {elapsed:.1f}s"
    _report(10, "consistency identity and Macaulay invariance hold everywhere; "
                "acceptance suite finished in under 120s")
    # the time varies from run to run, so it stays out of the PASS line
    print(f"acceptance suite elapsed: {elapsed:.1f}s")
