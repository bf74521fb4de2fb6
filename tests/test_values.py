"""R_X on the points' values (`PointValues`) against the Groebner route.

The oracle is `socle_degree` and `hilbert_values` of I_X + J, with I_X from
`vanishing_ideal`; both run Buchberger, which the values route never does.
"""
import random
import sys
from collections import Counter
from math import comb

import numpy as np
import pytest

import gradus.experiments
import gradus.field
import gradus.groebner
import gradus.hilbert
import gradus.points
from gradus.experiments import build_scan_J, socle_group_scan
from gradus.field import PrimeField, RationalField, rank, row_space_basis
from gradus.groebner import Ideal, ideal_sum
from gradus.hilbert import hilbert_values, socle_degree
from gradus.hom import hom_graded_dims
from gradus.points import (
    PointSet, PointValues, evaluation_matrix, is_nonzerodivisor, normalize_point,
    random_general_points, values_of, vanishing_ideal,
)
from gradus.ring import Poly, RingSpec, monomials_of_degree, parse_poly
from test_hom import _assert_matches_colon
from test_points import FAMILY_FIELDS, _chart_families, _projective_plane, _short_below_d_star


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


def _off_general_position(p):
    """(X, a degree where ev_X is not injective, a form vanishing at no
    point of X): four points on x2 = 0 over F_p, or for p = 3 all 13 points
    of P^2(F_3)."""
    if p != 3:
        X = PointSet(2, PrimeField(p), [(1, t, 0) for t in range(4)])
        return X, 1, Poly(X.ring(), {(1, 0, 0): 1})
    X = PointSet(2, PrimeField(3), _projective_plane(3))
    ring = X.ring()
    # over F_3, x^2 is 1 off zero, so with w nonzero coordinates this is
    # w^3 + [w = 3] = w + [w = 3] mod 3: 1, 2, 1
    q = Poly(ring, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    return X, 4, q * q * q + Poly(ring, {(2, 2, 2): 1})


@pytest.mark.parametrize("p", [32003, 5, 3], ids=("collinear-F32003", "collinear-F5", "P2(F3)"))
def test_values_match_oracles_off_general_position(p):
    X, flat, g0 = _off_general_position(p)
    assert not X.is_general_position() and X.rank_at(flat) < comb(X.n + flat, X.n)
    assert is_nonzerodivisor(g0, X)
    ring = X.ring()
    rng = random.Random(p)
    for degs in ((1, 2), (2, 3)):
        J = Ideal(ring, [_nonzero_form(ring, d, rng) for d in degs])
        _assert_matches_groebner(X, J)
        J = Ideal(ring, [g0, *J.generators])
        _assert_matches_groebner(X, J)
        _assert_matches_colon(J, X, g0, J.generators[1], range(-1, X.delta() + 3))


def _short_spans():
    """Sets where ev_u is not injective below delta_X: the conic and the
    plane that need the rank below d*, four collinear points over F_5 and
    over Q, P^2(F_3), and four points on x1 = x2, one of them on x0 = 0."""
    sets = [X for X, _ in _short_below_d_star()]
    for fld in (PrimeField(5), RationalField()):
        sets.append(PointSet(2, fld, [(1, t, 0) for t in range(4)]))
    sets.append(PointSet(2, PrimeField(3), _projective_plane(3)))
    sets.append(PointSet(2, PrimeField(32003), [(0, 1, 1)] + [(1, t, t) for t in range(1, 4)]))
    return sets


@pytest.mark.parametrize("X", _short_spans(), ids=("conic", "plane", "collinear-F5",
                                                  "collinear-Q", "P2(F3)", "off-x0"))
def test_spans_off_injectivity_match_row_reduced_bases(X):
    fld, s = X.field, X.s
    V = PointValues(X, Ideal(X.ring(), []))
    delta = X.delta()
    assert any(X.rank_at(u) < comb(X.n + u, X.n) for u in range(delta))
    for u in range(-1, delta + 2):
        span, ann = V.span(u), V.annihilator(u)
        hf = 0 if u < 0 else rank(fld, X.evaluation_array(u))
        assert span.shape[1] == ann.shape[1] == s
        assert rank(fld, span, s) == hf, u
        if u >= 0:
            assert row_space_basis(fld, span, s) == \
                row_space_basis(fld, X.evaluation_array(u).T, s), u
        assert len(ann) == s - hf, u
        assert not np.any(fld.reduce(ann.dot(span.T)) != 0), u


@pytest.mark.parametrize("ring, text", [
    (RingSpec(4), "x0+x3"),
    (RingSpec(3, RationalField()), "1/2*x0+x1"),
    (RingSpec(3, PrimeField(7)), "x0+3*x1"),
], ids=("four-variables", "Q", "F7"))
def test_forms_from_another_ring_are_refused(ring, text):
    X = random_general_points(4, 2, seed=5)  # over F_32003
    g = parse_poly(ring, text)
    J = Ideal(X.ring(), [parse_poly(X.ring(), "x0+x1"), parse_poly(X.ring(), "x2^2")])
    with pytest.raises(ValueError, match="polynomial from a different ring"):
        values_of(g, X)
    with pytest.raises(ValueError, match="polynomial from a different ring"):
        is_nonzerodivisor(g, X)
    with pytest.raises(ValueError, match="polynomial from a different ring"):
        hom_graded_dims(J, X, range(3), witness=g)
    with pytest.raises(ValueError, match="polynomial from a different ring"):
        PointValues(X, J).contains(g)


@pytest.mark.parametrize("fld", [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1),
                                 RationalField()], ids=lambda f: f.spec_string())
def test_membership_in_one_elimination_matches_two_ranks(monkeypatch, fld):
    """`contains` reads membership off one column rank profile; it agrees
    with rank([W; ev(g)]) == rank(W) on forms inside I_X + J and outside."""
    X = random_general_points(4 if fld == PrimeField(3) else 8, 2, seed=66, field=fld)
    ring = X.ring()
    rng = random.Random(15)
    j1, j2 = _nonzero_form(ring, 2, rng), _nonzero_form(ring, 3, rng)
    V = PointValues(X, Ideal(ring, [j1, j2]))

    def two_ranks(g):
        rows = V.image_rows(g.degree())
        with_g = np.concatenate([rows, values_of(g, X)[None, :]])
        return rank(fld, with_g, X.s) == rank(fld, rows, X.s)

    eliminations = []
    plain = gradus.field._echelon
    monkeypatch.setattr(gradus.field, "_echelon",
                        lambda *a, **k: eliminations.append(a) or plain(*a, **k))
    seen = Counter()
    for d in range(1, X.delta() + 4):
        forms = [ring.random_form(d, rng)]
        if d >= 2:
            forms.append(ring.random_form(d - 2, rng) * j1
                         + (ring.random_form(d - 3, rng) * j2 if d >= 3 else ring.zero()))
        for g in forms:
            before = len(eliminations)
            got = V.contains(g)
            assert len(eliminations) == before + 1
            assert got == two_ranks(g), (d, g)
            seen[got] += 1
    assert seen[True] and seen[False]


def test_scan_slice_makes_no_elimination_and_two_rank_misses_per_set(monkeypatch):
    calls = Counter()
    for name in ("rref", "row_space_basis"):
        original = getattr(gradus.field, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("gradus") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    misses = {}
    rank_at = PointSet.rank_at

    def counted_rank_at(self, d):
        held = misses.setdefault(id(self), (self, []))[1]
        if d not in self._ranks:
            held.append(d)
        return rank_at(self, d)

    monkeypatch.setattr(PointSet, "rank_at", counted_rank_at)
    rows = socle_group_scan((2, 25), trials=1, seed=13)
    assert len(rows) == 24
    assert calls == Counter()
    assert misses and all(len(held) <= 2 for _, held in misses.values())


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
            rows = evaluation_matrix(X, d)
            assert rows == _loop_rows(X, d), (n, d)
            assert all(type(v) is type(field.one) for row in rows for v in row)


def _test_ideals(X, rng):
    """(kind, J): a random J, a J whose generators all vanish at one point
    of X (not Artinian), a J with a constant generator, and J = 0."""
    ring, fld = X.ring(), X.field
    P = X.points[rng.randrange(X.s)]
    one = Poly(ring, {(0,) * ring.nvars: fld.one})
    return [
        ("random", Ideal(ring, [_nonzero_form(ring, d, rng) for d in (1, rng.randint(2, 3))])),
        ("common-zero", Ideal(ring, [_vanishing_at(ring, P, d, rng) for d in (1, 2)])),
        ("constant", Ideal(ring, [_nonzero_form(ring, 2, rng), one])),
        ("zero", Ideal(ring, [])),
    ]


@pytest.mark.parametrize("fld", FAMILY_FIELDS, ids=lambda f: f.spec_string())
def test_values_filtration_matches_ranks_per_degree(fld):
    rng = random.Random(f"filtration:{fld.spec_string()}")
    sets = [X for _, X in _chart_families(fld)]
    if fld == PrimeField(3):
        sets.append(PointSet(2, fld, _projective_plane(3)))  # no chart: the fallback
    for k, X in enumerate(sets):
        for kind, J in _test_ideals(X, rng):
            V = PointValues(X, J)
            per_degree = PointValues(X, J)
            per_degree.chart = None  # force the rank of image_rows(d) in each degree
            top = X.delta() + max((j.degree() for j in J.generators), default=0) + 2
            want = [rank(fld, V.span(d), X.s) - rank(fld, V.image_rows(d), X.s)
                    for d in range(top + 1)]
            assert [V.hilbert_function(d) for d in range(top + 1)] == want, (kind, X.points)
            assert [per_degree.hilbert_function(d) for d in range(top + 1)] == want
            fast = V.socle()
            assert fast == per_degree.socle(), (kind, X.points)
            if kind in ("common-zero", "zero"):
                assert not fast.artinian
            if kind == "constant":
                assert (fast.artinian, fast.socle_degree, fast.initial_degree) == (True, None, 0)
            if kind != "zero" and k % 4 == 0:
                _assert_matches_groebner(X, J)


@pytest.mark.parametrize("call", [lambda X, I: gradus.hilbert.hilbert_function(I, -1),
                                  lambda X, I: evaluation_matrix(X, -1),
                                  lambda X, I: PointValues(X, I).hilbert_function(-1)],
                         ids=["hilbert_function", "evaluation_matrix",
                              "PointValues.hilbert_function"])
def test_a_negative_degree_is_refused(call):
    X = random_general_points(4, 2, seed=3)
    with pytest.raises(ValueError, match="non-negative"):
        call(X, Ideal(X.ring(), [parse_poly(X.ring(), "x0")]))


@pytest.mark.parametrize("call", [values_of, is_nonzerodivisor])
def test_a_non_homogeneous_form_is_refused(call):
    X = random_general_points(4, 2, seed=3)
    with pytest.raises(ValueError, match="homogeneous"):
        call(parse_poly(X.ring(), "x0^2+x1"), X)


def test_point_values_refuse_j_from_another_ring():
    X = random_general_points(4, 2, seed=3)
    other = RingSpec(4, X.field)
    with pytest.raises(ValueError, match="different rings"):
        PointValues(X, Ideal(other, [parse_poly(other, "x0")]))
