"""R_X on the points' values (`PointValues`) against the Groebner route.

The oracle is `socle_degree` and `hilbert_values` of I_X + J, with I_X from
`vanishing_ideal`; both run Buchberger, which the values route never does.
"""
import random
import sys
from collections import Counter

import pytest

import gradus.experiments
import gradus.groebner
import gradus.points
from gradus.experiments import build_scan_J, socle_group_scan
from gradus.field import PrimeField, RationalField
from gradus.groebner import Ideal, ideal_sum
from gradus.hilbert import hilbert_values, socle_degree
from gradus.points import PointSet, PointValues, normalize_point, random_general_points, vanishing_ideal
from gradus.ring import Poly, monomials_of_degree


def _assert_matches_groebner(X, J):
    """All three SocleReport fields and the HF head, values against Groebner."""
    V = PointValues(X, J)
    fast = V.socle()
    quotient = ideal_sum(vanishing_ideal(X), J)
    slow = socle_degree(quotient)
    assert (fast.artinian, fast.socle_degree, fast.initial_degree) == \
        (slow.artinian, slow.socle_degree, slow.initial_degree)
    top = X.delta() + max(j.degree() for j in J.generators) + 1
    assert [V.hilbert_function(d) for d in range(top + 1)] == hilbert_values(quotient, top)
    return fast


def _nonzero_form(ring, d, rng):
    while True:
        f = ring.random_form(d, rng)
        if not f.is_zero():
            return f


def _vanishing_at(ring, P, d, rng):
    """A non-zero form of degree d vanishing at the normalised point P: a
    random form minus its value times x_k^d, with P_k = 1."""
    k = next(i for i, c in enumerate(P) if c == 1)
    x_k = tuple(d if i == k else 0 for i in range(ring.nvars))
    while True:
        f = ring.random_form(d, rng)
        f = f - Poly(ring, {x_k: f.evaluate(P)})
        if not f.is_zero():
            return f


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_instances_match_groebner(seed):
    for s in range(2, 26):
        X = random_general_points(s, 2, seed=1000 * seed + s)
        J = build_scan_J(X.ring(), s, random.Random(100 * seed + s))
        rep = _assert_matches_groebner(X, J)
        assert rep.artinian


@pytest.mark.parametrize("field, n, s", [
    (RationalField(), 2, 6),
    (RationalField(), 3, 7),
    (PrimeField(32003), 3, 12),
    (PrimeField(3), 2, 5),
    (PrimeField(5), 2, 8),
    (PrimeField(7), 2, 10),
])
def test_other_fields_and_dimensions_match_groebner(field, n, s):
    X = random_general_points(s, n, seed=40 + s, field=field)
    ring = X.ring()
    rng = random.Random(s)
    for degs in ((1, 2), (2, 2), (2, 3)):
        J = Ideal(ring, [_nonzero_form(ring, d, rng) for d in degs])
        _assert_matches_groebner(X, J)


def test_common_zero_on_X_is_not_artinian():
    X = random_general_points(9, 2, seed=71)
    ring = X.ring()
    rng = random.Random(1)
    P = X.points[4]
    J = Ideal(ring, [_vanishing_at(ring, P, 2, rng), _vanishing_at(ring, P, 3, rng)])
    rep = _assert_matches_groebner(X, J)
    assert (rep.artinian, rep.socle_degree) == (False, None)


def test_generator_vanishing_at_some_points_only():
    X = random_general_points(10, 2, seed=72)
    ring = X.ring()
    rng = random.Random(2)
    f = _vanishing_at(ring, X.points[0], 2, rng)
    g = _vanishing_at(ring, X.points[1], 3, rng)
    assert f.evaluate(X.points[1]) != 0 and g.evaluate(X.points[0]) != 0
    assert _assert_matches_groebner(X, Ideal(ring, [f, g])).artinian
    assert _assert_matches_groebner(X, Ideal(ring, [f, _nonzero_form(ring, 3, rng)])).artinian
    assert not _assert_matches_groebner(X, Ideal(ring, [f])).artinian


def test_nonzero_constant_gives_the_zero_ring():
    X = random_general_points(5, 2, seed=73)
    ring = X.ring()
    J = Ideal(ring, [Poly(ring, {(0, 0, 0): 5}), _nonzero_form(ring, 2, random.Random(3))])
    rep = _assert_matches_groebner(X, J)
    assert (rep.artinian, rep.socle_degree, rep.initial_degree) == (True, None, 0)


def test_non_homogeneous_generator_is_refused():
    X = random_general_points(4, 2, seed=74)
    ring = X.ring()
    f = Poly(ring, {(1, 0, 0): 1, (0, 0, 0): 1})
    J = Ideal(ring, [f], check=False)
    with pytest.raises(ValueError):
        PointValues(X, J)


def test_scan_takes_a_retry_on_a_common_zero(monkeypatch):
    original = gradus.experiments.build_scan_J
    drawn = []

    def first_shares_a_zero(ring, s, rng):
        J = original(ring, s, rng)
        drawn.append(J)
        if len(drawn) > 1:
            return J
        # the sampler's first draw for this seed, as the scan makes it
        X = random_general_points(s, 2, seed=scan_sub)
        P = X.points[0]
        return Ideal(ring, [_vanishing_at(ring, P, j.degree(), rng) for j in J.generators])

    master = random.Random(5)
    scan_sub = master.randrange(2**30)
    monkeypatch.setattr(gradus.experiments, "build_scan_J", first_shares_a_zero)
    (row,) = socle_group_scan((12, 12), trials=1, seed=5)
    assert len(drawn) == 2
    assert (row.retries, row.seed, row.offset) == (1, scan_sub, row.group_index - 1)


def test_scan_runs_no_groebner_and_no_vanishing_ideal(monkeypatch):
    calls = Counter()
    targets = [(gradus.groebner, "buchberger"), (gradus.groebner, "ideal_sum"),
               (gradus.points, "vanishing_ideal")]
    for home, name in targets:
        original = getattr(home, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("gradus") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    rows = socle_group_scan((2, 12), trials=1, seed=9)
    assert len(rows) == 11
    for case in ("hilb_JX1", "hilb_JX6"):
        assert gradus.experiments.reproduce_reference(case, seed=2).passed
    assert calls == Counter()


def _loop_rows(X, d):
    """The evaluation rows by repeated multiplication, one point at a time."""
    f = X.field
    rows = []
    for p in X.points:
        row = []
        for e in monomials_of_degree(X.n + 1, d, X.ring().order):
            val = f.one
            for x, k in zip(p, e):
                for _ in range(k):
                    val = f.mul(val, x)
            row.append(val)
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1),
                                   RationalField()])
def test_evaluation_rows_match_repeated_multiplication(field):
    rng = random.Random(field.spec_string())
    for n in (1, 2, 3):
        pts = set()
        for _ in range(40):
            coords = [field.random(rng) if rng.random() < 0.7 else field.zero
                      for _ in range(n + 1)]
            if any(not field.is_zero(c) for c in coords):
                pts.add(normalize_point(field, coords))
        X = PointSet(n, field, sorted(pts)[:7])
        for d in range(8):
            rows = X.evaluation_rows(d)
            assert rows == _loop_rows(X, d), (n, d)
            assert all(type(v) is type(field.one) for row in rows for v in row)
