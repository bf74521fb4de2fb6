import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

import gradus.points
from gradus.errors import GeneralPositionError, VerificationError
from gradus.field import PrimeField, RationalField, rank
from gradus.groebner import Ideal, equal_ideals, normal_form
from gradus.hilbert import hilbert_function, hilbert_series, standard_monomials
from gradus.points import (
    PointSet,
    evaluation_matrix,
    is_nonzerodivisor,
    normalize_point,
    random_general_points,
    vanishing_ideal,
    vanishing_ideal_oracle,
)
from gradus.ring import parse_poly

F = PrimeField(32003)


def test_normalize_point():
    assert normalize_point(F, [0, 5, 10]) == (0, 1, F.div(10, 5))
    with pytest.raises(ValueError):
        normalize_point(F, [0, 0, 0])


@pytest.mark.parametrize("fld, coords, want", [
    (F, [1, 5, 32002], (1, 5, 32002)),
    (F, [32004, -1, 7], (1, 32002, 7)),
    (F, [0, 1, 7], (0, 1, 7)),
    (RationalField(), [1, Fraction(-2, 3), 0], (1, Fraction(-2, 3), 0)),
], ids=("normalised", "lead-one-mod-p", "lead-second", "Q"))
def test_normalize_point_takes_no_inverse_when_the_lead_is_one(monkeypatch, fld, coords, want):
    def no_inverse(self, a):
        raise AssertionError("normalize_point inverted a lead that is already 1")

    monkeypatch.setattr(type(fld), "inv", no_inverse)
    got = normalize_point(fld, coords)
    assert got == want and all(type(c) is type(fld.one) for c in got)


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet(2, F, [[1, 2, 3], [2, 4, 6]])  # same projective point


def test_pointset_rejects_an_empty_list():
    with pytest.raises(ValueError, match="at least one point"):
        PointSet(2, F, [])


def test_sampler_deterministic_and_distinct():
    X1 = random_general_points(6, 2, seed=42)
    X2 = random_general_points(6, 2, seed=42)
    assert X1 == X2
    assert X1.to_json() == X2.to_json()
    assert len(set(X1.points)) == 6
    X3 = random_general_points(6, 2, seed=43)
    assert X1 != X3


def test_sampler_without_a_field_shares_one_default_field():
    """Draws with no field share one F_32003, and equal draws with it given."""
    a, b = random_general_points(5, 2, seed=1), random_general_points(6, 3, seed=2)
    assert a.field is b.field
    assert a == random_general_points(5, 2, seed=1, field=PrimeField(32003))


def test_sampler_certificate_and_tiny_field_exhaustion():
    X = random_general_points(1, 2, seed=0)
    assert X.is_general_position()
    # F_5 has only 31 points in P^2 and collinearity is unavoidable for 30
    with pytest.raises(GeneralPositionError):
        random_general_points(30, 2, seed=0, field=PrimeField(5), max_tries=3)


@pytest.mark.parametrize("s, n", [(0, 2), (-3, 2), (3, -1), (3, 0), (2, 0)])
def test_sampler_refuses_bad_sizes_before_sampling(s, n):
    with pytest.raises(ValueError):
        random_general_points(s, n, seed=1, max_tries=1)


def test_sampler_takes_the_one_point_of_p0():
    X = random_general_points(1, 0, seed=1)
    assert X.points == ((1,),) and X.delta() == 0


def test_four_points_no_three_collinear_determinant_oracle():
    X = random_general_points(4, 2, seed=9)
    f = X.field
    for a, b, c in combinations(X.points, 3):
        det = f.zero
        for sgn, (i, j, k) in [(1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
                               (-1, (0, 2, 1)), (-1, (2, 1, 0)), (-1, (1, 0, 2))]:
            prod = f.mul(f.mul(a[i], b[j]), c[k])
            det = f.add(det, prod if sgn > 0 else f.neg(prod))
        assert not f.is_zero(det)


def test_evaluation_matrix_examples():
    X = random_general_points(5, 2, seed=3)
    col = evaluation_matrix(X, 0)
    assert col == [[1]] * 5
    single = PointSet(2, F, [[1, 0, 0]])
    assert evaluation_matrix(single, 1) == [[1, 0, 0]]
    # rank = min(C(n+d, n), s) in every degree for certified sets
    for d in range(1, 6):
        assert rank(F, evaluation_matrix(X, d)) == min(comb(2 + d, 2), 5)


@pytest.mark.parametrize("fld", [F, RationalField()], ids=lambda f: f.spec_string())
def test_evaluation_array_is_built_once_and_read_only(fld):
    X = random_general_points(9, 2, seed=4, field=fld)
    for d in (0, 2, 3):
        A = X.evaluation_array(d)
        assert X.evaluation_array(d) is A
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = A[0, 0]
        assert A.tolist() == evaluation_matrix(X, d)
    # rank_at and the value spans read the same array
    assert X.rank_at(2) == rank(fld, X.evaluation_array(2))


def test_vanishing_ideal_single_point():
    X = PointSet(2, F, [[1, 0, 0]])
    I = vanishing_ideal(X)
    assert [str(g) for g in I.groebner()] == ["x2", "x1"]


def test_vanishing_ideal_generator_degrees():
    # 2 general points: one linear and one quadric minimal generator
    X2 = random_general_points(2, 2, seed=5)
    assert sorted(g.degree() for g in vanishing_ideal(X2).groebner()) == [1, 2]
    # 3 general points: three quadrics
    X3 = random_general_points(3, 2, seed=5)
    assert sorted(g.degree() for g in vanishing_ideal(X3).groebner()) == [2, 2, 2]


def test_vanishing_ideal_generators_vanish():
    X = random_general_points(6, 2, seed=1)
    I = vanishing_ideal(X)
    for g in I.generators:
        for p in X.points:
            assert X.field.is_zero(g.evaluate(p))


def test_hilbert_law_small():
    for s in (1, 4, 8):
        X = random_general_points(s, 2, seed=17)
        I = vanishing_ideal(X)
        for d in range(s + 3):
            assert hilbert_function(I, d) == min(comb(2 + d, 2), s)


def test_oracle_equivalence_small():
    for s, seed in [(1, 4), (2, 8), (7, 15)]:
        X = random_general_points(s, 2, seed=seed)
        assert equal_ideals(vanishing_ideal(X), vanishing_ideal_oracle(X))


def _one_point_cases():
    """(n, point) for n = 1..3: zeros in the first, a middle and the last
    coordinate, none, and the last non-zero coordinate not 1."""
    for n in (1, 2, 3):
        yield n, [0] + [1] * n
        yield n, [1] * n + [0]
        yield n, [1] + [2] * n
        if n > 1:
            yield n, [1, 0] + [2] * (n - 1)
            yield n, [1] + [0] * (n - 1) + [2]


@pytest.mark.parametrize("fld", [PrimeField(3), F, RationalField()], ids=lambda f: f.spec_string())
def test_point_ideals_in_closed_form_are_the_vanishing_ideals(monkeypatch, fld):
    """The closed-form ideal of one point is `vanishing_ideal` of it: its
    generators are that ideal's reduced basis, preset, so no F4 runs."""
    import gradus.groebner
    for n, p in _one_point_cases():
        X = PointSet(n, fld, [p])
        want = vanishing_ideal(X).groebner()
        with monkeypatch.context() as m:
            m.setattr(gradus.groebner, "_f4", None)  # a call would raise
            got = gradus.points._point_ideal(X.ring(), X.points[0])
            assert list(got.generators) == got.groebner() == want, (n, p)
        assert equal_ideals(got, vanishing_ideal(X))
        # its preset series is the one its leads give
        assert hilbert_series(got) == hilbert_series(vanishing_ideal(X)) == ((1,), 1)


def test_oracle_intersects_closed_form_leaves_with_no_kernel_and_no_f4(monkeypatch):
    """The oracle runs s - 2 series-only meets below the root and one
    `ideal_intersection` at it, and neither an evaluation kernel, nor
    `vanishing_ideal`, nor F4, nor Buchberger."""
    import gradus.groebner
    X = random_general_points(20, 2, seed=1)
    want = vanishing_ideal(X).groebner()
    calls = {"_series_meet": [], "ideal_intersection": []}
    for name, log in calls.items():
        plain = getattr(gradus.points, name)
        monkeypatch.setattr(gradus.points, name,
                            lambda A, B, plain=plain, log=log: log.append((A, B)) or plain(A, B))
    for module, name in ((gradus.points, "vanishing_ideal"), (gradus.points, "_kernel_polys"),
                         (gradus.groebner, "_f4"), (gradus.groebner, "buchberger")):
        monkeypatch.setattr(module, name, None)
    got = vanishing_ideal_oracle(X)
    assert len(calls["_series_meet"]) == X.s - 2
    assert len(calls["ideal_intersection"]) == 1
    assert list(got.generators) == want


COLLINEAR = [[1, 0, 0], [1, 1, 0], [1, 2, 0]]


@pytest.mark.parametrize("fld", [F, PrimeField(5), RationalField()], ids=lambda f: f.spec_string())
@pytest.mark.parametrize("extra", [[], [[1, 3, 0], [0, 0, 1]]], ids=("three", "five"))
def test_vanishing_ideal_of_points_off_general_position(fld, extra):
    # three or four points on the line x2 = 0, the five-point set with one
    # more off it: HF_X falls short of min(C(n+d, n), s) in low degrees
    X = PointSet(2, fld, COLLINEAR + extra)
    I = vanishing_ideal(X)
    assert equal_ideals(I, vanishing_ideal_oracle(X))
    for d in range(X.delta() + 4):
        assert hilbert_function(I, d) == X.rank_at(d)
    ring = X.ring()
    if not extra:
        line_and_cubic = [parse_poly(ring, "x2"), parse_poly(ring, "x1^3-3*x0*x1^2+2*x0^2*x1")]
        assert equal_ideals(I, Ideal(ring, line_and_cubic))


def test_vanishing_ideal_of_every_point_of_the_plane_over_f3():
    fld = PrimeField(3)
    X = PointSet(2, fld, sorted({normalize_point(fld, p)
                                 for p in product(range(3), repeat=3) if any(p)}))
    assert X.s == 13 and not X.is_general_position()
    I = vanishing_ideal(X)
    assert equal_ideals(I, vanishing_ideal_oracle(X))
    for d in range(X.delta() + 4):
        assert hilbert_function(I, d) == X.rank_at(d)


def test_vanishing_ideal_proof_rejects_a_dropped_generator(monkeypatch):
    # 7 general points: HF_X = 1, 3, 6, 7, ... and three cubics in I_X; with
    # one dropped, HF(R/I)_3 = 8 and the series differ
    X = random_general_points(7, 2, seed=3)
    kernel = gradus.points._kernel_polys
    monkeypatch.setattr(gradus.points, "_kernel_polys",
                        lambda X, d: kernel(X, d)[1:] if d == 3 else kernel(X, d))
    with pytest.raises(VerificationError, match="this is a bug"):
        vanishing_ideal(X)


def _mult_injective_all_degrees(g, X, top):
    """Rank oracle: multiplication by g on (R_X)_d is injective for d <= top."""
    I = vanishing_ideal(X)
    ring = I.ring
    fld = ring.field
    gb = I.groebner()
    for d in range(top + 1):
        src = standard_monomials(I, d)
        dst = standard_monomials(I, d + g.degree())
        index = {e: i for i, e in enumerate(dst)}
        rows = []
        for b in src:
            prod = g.mul_term(b, fld.one)
            nf = normal_form(prod, gb)
            row = [fld.zero] * len(dst)
            for e, c in nf.terms.items():
                row[index[e]] = c
            rows.append(row)
        if rows and rank(fld, rows, len(dst)) < len(src):
            return False
    return True


def test_nonzerodivisor_examples_and_rank_oracle():
    X = random_general_points(5, 2, seed=23)
    ring = X.ring()
    rng = random.Random(1)
    ell = ring.random_form(1, rng)
    assert is_nonzerodivisor(ell, X)  # random over F_32003: nonvanishing whp
    # a separator through exactly the first point is a zero divisor
    sep = vanishing_ideal(PointSet(2, F, [X.points[0]])).generators[0]
    assert not is_nonzerodivisor(sep, X)
    assert not is_nonzerodivisor(ring.zero(), X)
    delta = X.delta()
    assert _mult_injective_all_degrees(ell, X, delta + 2)
    assert not _mult_injective_all_degrees(sep, X, delta + 2)


def test_pointset_json_roundtrip():
    X = random_general_points(3, 2, seed=77)
    Y = PointSet.from_json(X.to_json())
    assert X == Y
    assert Y.to_json()["field"] == "32003"


def test_rational_mode_cross_check():
    from gradus.field import RationalField

    X = random_general_points(3, 2, seed=2, field=RationalField())
    I = vanishing_ideal(X)
    for d in range(5):
        assert hilbert_function(I, d) == min(comb(2 + d, 2), 3)
    assert equal_ideals(I, vanishing_ideal_oracle(X))


FAMILY_FIELDS = [PrimeField(3), PrimeField(5), F, RationalField()]


def _nonzero(fld, rng):
    while True:
        c = fld.random(rng)
        if not fld.is_zero(c):
            return c


def _chart_families(fld):
    """(family, X) pairs that have a chart coordinate: sampled general sets
    in P^1-P^3, collinear sets in P^2 and P^3, and sets with one point on
    x_0 = 0 and no zero coordinate elsewhere, whose chart is x_1, with
    values other than 1."""
    rng = random.Random(f"charts:{fld.spec_string()}")
    out = []
    for n, sizes in ((1, (2, 4)), (2, (3, 6)), (3, (4, 8))):
        for s in sizes:
            out.append(("general", random_general_points(s, n, seed=rng.randrange(99), field=fld)))
    for n in (2, 3):
        count = 5 if fld.kind == "rational" else min(5, fld.p)
        line = [(1, t, 2 * t) + (0,) * (n - 2) for t in range(count)]
        out.append(("collinear", PointSet(n, fld, line)))
    for n, s in ((1, 3), (2, 5), (3, 6)):
        pts = {(fld.zero, fld.one) + tuple(_nonzero(fld, rng) for _ in range(n - 1))}
        while len(pts) < s:
            pts.add(normalize_point(fld, [_nonzero(fld, rng) for _ in range(n + 1)]))
        out.append(("off-x0", PointSet(n, fld, sorted(pts))))
    return out


def _ranks_by_degree(X):
    """rank(ev_d) for d = 0, ..., delta_X + 1, one rank per degree."""
    got = []
    while not got or got[-1] < X.s:
        got.append(rank(X.field, X.evaluation_array(len(got))))
    got.append(rank(X.field, X.evaluation_array(len(got))))
    return got


@pytest.mark.parametrize("fld", FAMILY_FIELDS, ids=lambda f: f.spec_string())
def test_rank_at_prefix_route_matches_ranks_per_degree(fld):
    families = _chart_families(fld)
    assert {name for name, _ in families} == {"general", "collinear", "off-x0"}
    charts = set()
    for name, X in families:
        want = _ranks_by_degree(X)
        chart = X.chart()  # a sampled set over F_3 or F_5 may have none
        assert chart == {"collinear": 0, "off-x0": 1}.get(name, chart)
        charts.add(chart)
        up = PointSet(X.n, fld, X.points)
        up.rank_at(0)  # with a chart, one elimination at d* fills every degree up to it
        assert sorted(up._ranks) == (list(range(up._d_star() + 1)) if chart is not None else [0])
        assert [up.rank_at(d) for d in range(len(want))] == want, (name, X.points)
        down = PointSet(X.n, fld, X.points)
        assert [down.rank_at(d) for d in reversed(range(len(want)))] == want[::-1]
        if name == "general":
            assert X.is_general_position()
        if name == "collinear":
            assert not X.is_general_position() and X.delta() == X.s - 1
    assert {0, 1} <= charts


def test_rank_at_without_a_chart_takes_one_rank_per_degree():
    X = PointSet(2, PrimeField(3), _projective_plane(3))
    assert X.chart() is None
    want = _ranks_by_degree(X)
    fresh = PointSet(2, X.field, X.points)
    fresh.rank_at(0)
    assert list(fresh._ranks) == [0]
    assert [fresh.rank_at(d) for d in range(len(want))] == want == [1, 3, 6, 10, 12, 13, 13]


@pytest.mark.parametrize("fld", [PrimeField(3), F, RationalField()], ids=lambda f: f.spec_string())
def test_entry_degrees_count_the_rank_of_each_prefix(fld):
    rng = random.Random(f"entry:{fld.spec_string()}")
    for trial in range(40):
        m, k = rng.choice([0, 1, 3, 6]), rng.randrange(9)
        rows = [[fld.random(rng) if rng.random() < 0.6 else fld.zero for _ in range(k)]
                for _ in range(m)]
        for row in rows:  # some all-zero columns, and some repeated ones
            for c in range(k):
                if c % 4 == 3:
                    row[c] = fld.zero
                elif c % 5 == 4:
                    row[c] = row[c - 1]
        M = fld.array(rows).reshape(m, k)
        degrees = np.array([rng.randrange(4) for _ in range(k)], dtype=np.intp)
        got = gradus.points._entry_degrees(fld, M, degrees)
        assert list(got) == sorted(got)
        for d in range(-1, 5):
            want = rank(fld, M[:, degrees <= d], int(np.sum(degrees <= d)))
            assert int(np.sum(got <= d)) == want, (trial, d, rows, degrees)


def _general_by_full_check(X):
    """The check before the early stop: rank = min(C(n+d, n), s) for all d <= s."""
    return all(
        rank(X.field, X.evaluation_array(d)) == min(comb(X.n + d, X.n), X.s)
        for d in range(1, X.s + 1)
    )


def _projective_plane(p):
    """Every point of P^2(F_p), first nonzero coordinate 1."""
    return ([(1, a, b) for a in range(p) for b in range(p)]
            + [(0, 1, b) for b in range(p)] + [(0, 0, 1)])


def test_general_position_early_stop_matches_full_check(monkeypatch):
    rng = random.Random(31)
    sets = []
    for p in (3, 5, 7, 32003):
        fld = PrimeField(p)
        for n in (1, 2, 3):
            for s in range(1, 9):
                vecs = ([fld.random(rng) for _ in range(n + 1)] for _ in range(s))
                pts = {normalize_point(fld, v) for v in vecs if any(v)}
                if pts:
                    sets.append(PointSet(n, fld, sorted(pts)))
        line = [(1, t, 0) for t in range(min(p, 6))]  # collinear: on x2 = 0
        for s in range(3, len(line) + 1):
            sets.append(PointSet(2, fld, line[:s]))
    F3, F5 = PrimeField(3), PrimeField(5)
    sets.append(PointSet(2, F3, _projective_plane(3)))  # all 13 points of P^2(F_3)
    sets.append(PointSet(2, F5, _projective_plane(5)[:30]))
    outcomes = set()
    for X in sets:
        got = X.is_general_position()
        assert got == _general_by_full_check(X), X.points
        outcomes.add(got)
        d_star = next(d for d in range(1, X.s + 1) if comb(X.n + d, X.n) >= X.s)
        assert max(X._ranks, default=0) <= d_star
    assert outcomes == {True, False}
    # every set the F_5 sampler draws before it gives up
    checked = []
    early = PointSet.is_general_position

    def compare(self):
        got = early(self)
        assert got == _general_by_full_check(self)
        checked.append(got)
        return got

    monkeypatch.setattr(PointSet, "is_general_position", compare)
    with pytest.raises(GeneralPositionError):
        random_general_points(30, 2, seed=0, field=F5, max_tries=3)
    assert checked == [False] * 3


def _short_below_d_star():
    """(X, d*) with rank s at d* but a form of degree d* - 1 through every
    point: seven points on the conic x0*x2 = x1^2 (HF 1, 3, 5, 7) and five
    points on the plane x3 = 0 of P^3 (HF 1, 3, 5)."""
    conic = PointSet(2, F, [(1, t, t * t) for t in range(7)])
    plane = PointSet(3, F, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)])
    return [(conic, 3), (plane, 2)]


def test_general_position_needs_the_rank_below_d_star():
    for X, d_star in _short_below_d_star():
        assert X.rank_at(d_star) == X.s
        assert X.rank_at(d_star - 1) < comb(X.n + d_star - 1, X.n)
        assert X.rank_at(d_star - 2) == comb(X.n + d_star - 2, X.n)
        assert not X.is_general_position() and not _general_by_full_check(X)
        assert X.delta() == d_star


@pytest.mark.parametrize("X", [
    PointSet(2, F, COLLINEAR),
    PointSet(2, RationalField(), COLLINEAR + [[1, 3, 0], [1, 4, 0]]),
    PointSet(2, PrimeField(3), _projective_plane(3)),
    PointSet(2, F, [[1, 2, 0], [1, 5, 7], [0, 1, 3], [1, 1, 1], [2, 3, 5]]),
    PointSet(3, PrimeField(5), [[1, 2, 3, 0]]),
    random_general_points(1, 2, seed=3),
    random_general_points(7, 3, seed=3),
], ids=("collinear", "five-collinear-Q", "P2-F3", "one-on-x2=0", "s1-on-x3=0",
        "s1", "s7-P3"))
def test_oracle_is_the_vanishing_ideal_off_general_position(X):
    want = vanishing_ideal(X).groebner()
    got = vanishing_ideal_oracle(X)
    assert got.groebner() == want
    if X.s > 1:  # the root of the tree is an intersection: its reduced grevlex basis
        assert list(got.generators) == want


def _oracle_tree_sets():
    """(id, X) for the oracle's property test: s = 1..6 (no meet at s = 1,
    only the root at s = 2, a node carried over at odd s) and the collinear
    sets over F_32003, F_(2^31 - 1) and Q; over F_3, s = 1..6 drawn from
    the plane, three collinear points, all 13 points of P^2(F_3), and 8
    points of P^3(F_3) with no chart."""
    for fld in (F, PrimeField(2**31 - 1), RationalField()):
        for s in range(1, 7):
            yield f"{fld.spec_string()}-s{s}", random_general_points(s, 2, seed=s, field=fld)
        for extra in ([], [[1, 3, 0], [0, 0, 1]]):
            yield f"{fld.spec_string()}-collinear{3 + len(extra)}", PointSet(2, fld, COLLINEAR + extra)
    f3 = PrimeField(3)
    plane = _projective_plane(3)
    for s in range(1, 7):
        yield f"3-s{s}", PointSet(2, f3, random.Random(s).sample(plane, s))
    yield "3-collinear3", PointSet(2, f3, COLLINEAR)
    yield "3-P2-all", PointSet(2, f3, plane)
    yield "3-P3-s8", random_general_points(8, 3, seed=1, field=f3)


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in _oracle_tree_sets()])
def test_oracle_nodes_carry_the_series_of_their_points(monkeypatch, X):
    """Every series-only node below the root has the series of the
    vanishing ideal of its points, and the oracle's basis is that of the
    full-meet tree (`_intersect_all` of the same point ideals) and of
    `vanishing_ideal`."""
    import gradus.groebner as gb_module
    if X.n == 3:  # the P^3 set has a point on every coordinate hyperplane
        assert X.chart() is None
    nodes = []
    plain = gradus.points._series_meet
    monkeypatch.setattr(gradus.points, "_series_meet",
                        lambda A, B: nodes.append(plain(A, B)) or nodes[-1])
    got = vanishing_ideal_oracle(X)
    assert len(nodes) == max(X.s - 2, 0)
    for node in nodes:
        points = [P._point_rows[1][0].tolist() for P in node._parts]
        assert hilbert_series(node) == hilbert_series(vanishing_ideal(PointSet(X.n, X.field, points)))
    ring = X.ring()
    tree = gb_module._intersect_all([gradus.points._point_ideal(ring, p) for p in X.points])
    want = vanishing_ideal(X).groebner()
    assert got.groebner() == tree.groebner() == want
    assert list(got.generators) == list(tree.generators)


@pytest.mark.parametrize("X", [
    PointSet(2, PrimeField(3), _projective_plane(3)),
    random_general_points(8, 3, seed=1, field=PrimeField(3)),
    random_general_points(20, 2, seed=1),
    PointSet(2, RationalField(), COLLINEAR + [[1, 3, 0], [0, 0, 1]]),
], ids=("P2-F3", "P3-F3-s8", "s20", "collinear5-Q"))
def test_oracle_root_proves_its_series_from_the_artinian_sum(monkeypatch, X):
    """With no F4, no Buchberger and no ideal sum, the oracle is still I_X:
    the root meets nodes, whose sum is Artinian, and reads its target
    series off the degrees it has met."""
    import gradus.groebner as gb_module
    want = vanishing_ideal(X).groebner()
    for name in ("_f4", "buchberger", "ideal_sum"):
        monkeypatch.setattr(gb_module, name, None)
    assert vanishing_ideal_oracle(X).groebner() == want


# five points of P^2 with a chart, x_1, but one point on x_2 = 0: the
# reduced basis has an element of degree 4 > delta_X + 1 = 3
PAST_DELTA = [[1, 2, 0], [1, 5, 7], [0, 1, 3], [1, 1, 1], [2, 3, 5]]


def _block_basis_sets():
    """(id, X) for the block-basis property test: general sets in P^2 and
    P^3 over F_32003, F_(2^31 - 1) and Q, and off general position the
    collinear sets and PAST_DELTA; over F_3, sets drawn from the plane, the
    collinear set with one more point, all 13 points of P^2(F_3), and 8
    points of P^3(F_3) with no chart."""
    for fld in (F, PrimeField(2**31 - 1), RationalField()):
        for n, s in ((2, 1), (2, 6), (2, 12), (3, 5), (3, 14)):
            yield f"{fld.spec_string()}-P{n}-s{s}", random_general_points(s, n, seed=s, field=fld)
        for extra in ([], [[1, 3, 0], [0, 0, 1]]):
            yield f"{fld.spec_string()}-collinear{3 + len(extra)}", PointSet(2, fld, COLLINEAR + extra)
        yield f"{fld.spec_string()}-past-delta", PointSet(2, fld, PAST_DELTA)
    f3 = PrimeField(3)
    plane = _projective_plane(3)
    for s in (2, 4, 7, 10):
        yield f"3-s{s}", PointSet(2, f3, random.Random(s).sample(plane, s))
    yield "3-collinear4", PointSet(2, f3, COLLINEAR + [[0, 0, 1]])
    yield "3-P2-all", PointSet(2, f3, plane)
    yield "3-P3-s8", random_general_points(8, 3, seed=1, field=f3)


def _no_call(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("X", [pytest.param(X, id=name) for name, X in _block_basis_sets()])
def test_vanishing_ideal_presets_the_reduced_basis_of_its_kernel_blocks(monkeypatch, X):
    """The basis read off the kernel blocks, with no F4 and no Buchberger,
    is the one F4 builds from the generators, term by term in order, and
    the preset series is the one its leads give."""
    import gradus.groebner
    with monkeypatch.context() as m:
        for name in ("_f4", "buchberger"):
            m.setattr(gradus.groebner, name, _no_call)
        I = vanishing_ideal(X)
        got = I.groebner()
    F4 = Ideal(X.ring(), I.generators)
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in F4.groebner()]
    assert hilbert_series(I) == hilbert_series(F4)
    if X.n == 3 and X.field == PrimeField(3):
        assert X.chart() is None


@pytest.mark.parametrize("fld", [F, RationalField()], ids=lambda f: f.spec_string())
def test_block_basis_stop_passes_delta_plus_one(fld):
    """With a point on x_2 = 0 the stop goes past delta_X + 1, where the
    block is the x_v times the block below, whose rank proves
    (F)_d = (I_X)_d, and the basis is still F4's."""
    X = PointSet(2, fld, PAST_DELTA)
    assert X.chart() == 1
    I = vanishing_ideal(X)
    assert max(g.degree() for g in I.groebner()) == X.delta() + 2 == 4
    assert max(g.degree() for g in I.generators) == X.delta() + 1
    assert I.groebner() == Ideal(X.ring(), I.generators).groebner()


def _cut_rows_of(monkeypatch, name: str, size: int, cut):
    """Patch gradus.points.<name>, `_kernel` or `_times_variables`, to
    return only cut(rows) of the rows it makes on `size` columns."""
    plain = getattr(gradus.points, name)

    def short(*args):
        got = plain(*args)
        rows = got[0] if name == "_kernel" else got
        if rows.shape[1] != size:
            return got
        return (cut(rows),) + got[1:] if name == "_kernel" else cut(rows)
    monkeypatch.setattr(gradus.points, name, short)


@pytest.mark.parametrize("name, degree, cut", [
    ("_kernel", 2, lambda K: K[1:]),  # the generator block at delta_X, one row
    ("_kernel", 3, lambda K: K[1:]),  # the generator block at delta_X + 1
    ("_times_variables", 4, lambda B: B[:len(B) // 3]),  # x_0 times the block of degree 3 only
], ids=("block-at-delta", "block-at-delta+1", "multiples-past-delta+1"))
def test_vanishing_ideal_rejects_a_block_short_of_rows(monkeypatch, name, degree, cut):
    X = PointSet(2, F, PAST_DELTA)
    _cut_rows_of(monkeypatch, name, comb(2 + degree, 2), cut)
    with pytest.raises(VerificationError, match="this is a bug"):
        vanishing_ideal(X)


@pytest.mark.parametrize("fld", [F, RationalField()], ids=lambda f: f.spec_string())
def test_sampler_skips_only_the_normalisation(monkeypatch, fld):
    """The sampler's points are already normalised, so its set takes no
    `normalize_point`, and equals the set the public constructor makes of
    them; the private path still refuses a repeated point."""
    with monkeypatch.context() as m:
        m.setattr(gradus.points, "normalize_point", _no_call)
        X = random_general_points(9, 2, seed=4, field=fld)
    assert X == PointSet(2, fld, X.points, X.seed) and X.seed == 4
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointSet._normalised(2, fld, [X.points[0], X.points[0]], None)


def test_vanishing_ideal_gives_up_by_degree_s(monkeypatch):
    """The leads of I_X's reduced basis have degree <= s (Gotzmann's
    persistence), so a series that never matches raises by then."""
    checks = []
    monkeypatch.setattr(gradus.points, "_numerator", lambda leads: checks.append(leads) or [0])
    X = random_general_points(6, 2, seed=1)
    with pytest.raises(VerificationError, match="miss the points' Hilbert series"):
        vanishing_ideal(X)
    assert len(checks) == X.s - X.delta()  # one check in each degree from delta_X + 1 to s
