import random
import sys
from collections import Counter

import pytest

import gradus.groebner
from gradus.errors import GradusError
from gradus.experiments import build_scan_J
from gradus.field import PrimeField, RationalField, rank, row_space_basis
from gradus.groebner import Ideal, ideal_quotient, ideal_sum
from gradus.hilbert import hilbert_function, hilbert_values
from gradus.hom import find_nzd_generator, hom_graded_dims, theta_kernel_dims
from gradus.points import (
    PointSet, PointValues, is_nonzerodivisor, random_general_points, vanishing_ideal,
)
from gradus.ring import Poly, monomials_of_degree


def _separator(X, k=0):
    """A form vanishing at exactly the k-th point (a zero divisor on R_X)."""
    return vanishing_ideal(PointSet(X.n, X.field, [X.points[k]])).generators[0]


def test_principal_ideal_dims_are_shifted_hilbert():
    X = random_general_points(4, 2, seed=50)
    ring = X.ring()
    rng = random.Random(0)
    ell = ring.random_form(1, rng)
    assert is_nonzerodivisor(ell, X)
    prof = hom_graded_dims(Ideal(ring, [ell]), X, range(0, 6))
    hf = hilbert_values(vanishing_ideal(X), 7)
    assert prof.dims == {i: hf[i + 1] for i in range(6)}
    assert prof.dims[2] == 4 == prof.s
    assert prof.delta == 2
    assert prof.witness_degree == 1


def test_witness_independence():
    X = random_general_points(6, 2, seed=51)
    ring = X.ring()
    rng = random.Random(1)
    q, c = ring.random_form(2, rng), ring.random_form(3, rng)
    J = Ideal(ring, [q, c])
    prof_q = hom_graded_dims(J, X, range(0, 7), witness=q)
    prof_c = hom_graded_dims(J, X, range(0, 7), witness=c)
    assert prof_q.dims == prof_c.dims
    assert prof_q.witness != prof_c.witness


def test_dims_reach_s_at_delta():
    X = random_general_points(5, 2, seed=52)
    ring = X.ring()
    rng = random.Random(2)
    I_X = vanishing_ideal(X)
    m = min(g.degree() for g in I_X.groebner())
    J = Ideal(ring, [ring.random_form(m, rng), ring.random_form(m + 1, rng)])
    prof = hom_graded_dims(J, X, range(0, X.delta() + 4))
    for i in range(X.delta(), X.delta() + 4):
        assert prof.dims[i] == X.s


def test_no_nzd_generator_errors():
    X = random_general_points(3, 2, seed=53)
    ring = X.ring()
    sep = _separator(X)
    J = Ideal(ring, [sep, sep * sep])
    with pytest.raises(GradusError):
        find_nzd_generator(J, X)
    with pytest.raises(GradusError):
        hom_graded_dims(J, X, range(0, 3))


def test_zero_divisor_witness_rejected():
    X = random_general_points(3, 2, seed=54)
    ring = X.ring()
    rng = random.Random(3)
    q = ring.random_form(2, rng)
    J = Ideal(ring, [q])
    with pytest.raises(GradusError):
        hom_graded_dims(J, X, range(0, 3), witness=_separator(X))


def test_witness_outside_J_rejected():
    X = random_general_points(3, 2, seed=54)
    ring = X.ring()
    rng = random.Random(8)
    J = Ideal(ring, [ring.random_form(2, rng)])
    stray = ring.random_form(1, rng)  # NZD, but not in I_X + J
    with pytest.raises(GradusError):
        hom_graded_dims(J, X, range(0, 3), witness=stray)


def test_theta_injective_for_nzd():
    X = random_general_points(5, 2, seed=55)
    ring = X.ring()
    rng = random.Random(4)
    q, c = ring.random_form(2, rng), ring.random_form(3, rng)
    J = Ideal(ring, [q, c])
    kd = theta_kernel_dims(J, q, X, range(0, X.delta() + 4))
    assert all(v == 0 for v in kd.values())
    # principal J generated by an NZD: theta_g injective
    Jp = Ideal(ring, [q])
    kdp = theta_kernel_dims(Jp, q, X, range(0, X.delta() + 4))
    assert all(v == 0 for v in kdp.values())


def test_theta_kernel_for_zero_divisor():
    X = random_general_points(5, 2, seed=56)
    ring = X.ring()
    rng = random.Random(5)
    q = ring.random_form(2, rng)
    sep = _separator(X)
    assert not is_nonzerodivisor(sep, X)
    J = Ideal(ring, [q, sep])
    kd = theta_kernel_dims(J, sep, X, range(0, X.delta() + 4))
    assert any(v > 0 for v in kd.values())


def test_theta_g_must_lie_in_J():
    X = random_general_points(4, 2, seed=57)
    ring = X.ring()
    rng = random.Random(6)
    q = ring.random_form(2, rng)
    other = ring.random_form(1, rng)
    with pytest.raises(GradusError):
        theta_kernel_dims(Ideal(ring, [q]), other, X, range(0, 3))


def test_profile_json():
    X = random_general_points(3, 2, seed=58)
    ring = X.ring()
    rng = random.Random(7)
    J = Ideal(ring, [ring.random_form(1, rng)])
    data = hom_graded_dims(J, X, range(0, 4)).to_json()
    assert set(data) == {"dims", "witness", "witness_degree", "delta", "s", "convention"}
    assert data["s"] == 3


def test_theta_rejects_a_non_homogeneous_g():
    X = random_general_points(5, 2, seed=59)
    ring = X.ring()
    rng = random.Random(9)
    q, c = ring.random_form(2, rng), ring.random_form(3, rng)
    with pytest.raises(ValueError, match="homogeneous"):
        theta_kernel_dims(Ideal(ring, [q, c]), q + c, X, range(0, 4))


# -- the colon route, rebuilt here as the reference ---------------------------


def _coordinates(Q, forms, d):
    """Coordinates over Q.basis(d) of the degree-d `forms`, one row each,
    read from the one normal-form matrix of the monomials they use."""
    fld = Q.ring.field
    monos = list({e: None for f in forms for e in f.terms})
    col = {e: k for k, e in enumerate(monos)}
    nf = Q.normal_forms(monos, d).T  # row k: the coordinates of monos[k]
    return [fld.reduce(sum(fld.reduce(c * nf[col[e]]) for e, c in f.terms.items()))
            for f in forms]


def _colon_route(J, X, g0, g, degrees):
    """(Hom dims, theta_g kernel dims) from the colon ((I_X + (g0)) : (I_X + J))
    by Groebner bases: Hilbert-function differences, and the rank of g times
    a basis of the colon's degree-t part in R/I_X. The degrees u run upwards
    so that each one's normal forms are computed once: degree u holds the
    colon's part for t = u and the images of the part for t = u - deg g."""
    I_X = vanishing_ideal(X)
    ring, fld = I_X.ring, I_X.ring.field
    colon = ideal_quotient(ideal_sum(I_X, Ideal(ring, [g0])), ideal_sum(I_X, J))
    Q = I_X.quotient()
    index = {i + g0.degree(): i for i in degrees if i + g0.degree() >= 0}  # t -> i
    dg = 0 if g.is_zero() else g.degree()
    dims, theta, subs = {}, {}, {}
    for u in range(min(index, default=0), max(index, default=-1) + dg + 1):
        if u in index:
            dims[index[u]] = hilbert_function(I_X, u) - hilbert_function(colon, u)
            forms = [c.mul_term(m, fld.one)
                     for c in colon.groebner() if c.degree() <= u
                     for m in monomials_of_degree(ring.nvars, u - c.degree(), ring.order)]
            subs[u] = row_space_basis(fld, _coordinates(Q, forms, u), len(Q.basis(u)))
            assert len(subs[u]) == dims[index[u]]
        if u - dg in index:
            sub = subs[u - dg]
            images = [g * Poly(ring, dict(zip(Q.basis(u - dg), v))) for v in sub]
            theta[index[u - dg]] = len(sub) - (rank(fld, _coordinates(Q, images, u))
                                               if images and not g.is_zero() else 0)
    return dims, theta


def _assert_matches_colon(J, X, g0, g, degrees):
    dims, theta = _colon_route(J, X, g0, g, degrees)
    assert hom_graded_dims(J, X, degrees, witness=g0).dims == dims
    assert theta_kernel_dims(J, g, X, degrees, witness=g0) == theta
    return dims, theta


def _nzd_draw(X, degs, rng, tries=40):
    """J from random forms of the given degrees, redrawn until its first
    generator is a non-zero divisor; None when no draw gives one."""
    ring = X.ring()
    for _ in range(tries):
        J = Ideal(ring, [f for f in (ring.random_form(d, rng) for d in degs) if not f.is_zero()])
        if len(J.generators) == len(degs) and is_nonzerodivisor(J.generators[0], X):
            return J
    return None


@pytest.mark.parametrize("s", range(2, 26))
def test_values_route_matches_colon_on_scan_instances(s):
    X = random_general_points(s, 2, seed=400 + s)
    rng = random.Random(500 + s)
    J = build_scan_J(X.ring(), s, rng)
    while not is_nonzerodivisor(J.generators[0], X):
        J = build_scan_J(X.ring(), s, rng)
    g0, g = J.generators
    degrees = range(-2, X.delta() + 3)
    dims, _ = _assert_matches_colon(J, X, g0, g, degrees)
    assert hom_graded_dims(J, X, degrees).dims == dims


@pytest.mark.parametrize("field, n, s, seed", [
    (RationalField(), 2, 4, 1), (RationalField(), 2, 7, 2),
    (PrimeField(32003), 3, 6, 3), (PrimeField(32003), 3, 11, 4),
    (PrimeField(3), 2, 4, 5), (PrimeField(5), 2, 6, 6), (PrimeField(7), 2, 8, 7),
    (PrimeField(7), 3, 6, 8), (PrimeField(2**31 - 1), 2, 20, 9), (PrimeField(1073741789), 2, 12, 10),
])
def test_values_route_matches_colon_over_other_fields_and_P3(field, n, s, seed):
    X = random_general_points(s, n, seed=seed, field=field)
    rng = random.Random(seed)
    checked = 0
    for degs in ((1, 2), (2, 2), (2, 3)):
        J = _nzd_draw(X, degs, rng)
        if J is None:
            continue  # every draw had a zero-divisor first generator
        g0, g = J.generators
        _assert_matches_colon(J, X, g0, g, range(-1, X.delta() + 3))
        checked += 1
    assert checked


def test_values_route_matches_colon_with_a_zero_divisor_generator():
    X = random_general_points(7, 2, seed=60)
    ring = X.ring()
    q = ring.random_form(2, random.Random(10))
    sep = _separator(X, 2)
    J = Ideal(ring, [q, sep])
    _, theta = _assert_matches_colon(J, X, q, sep, range(-1, X.delta() + 3))
    assert any(theta.values())
    _assert_matches_colon(J, X, q, q, range(0, X.delta() + 3))


def test_values_route_matches_colon_on_the_theta_acceptance_trials():
    # the 20 trials of acceptance criterion 8, with the same seeds
    for trial in range(20):
        X = random_general_points(3 + trial % 6, 2, seed=701 + trial)
        ring = X.ring()
        rng = random.Random(7000 + trial)
        while True:
            g0 = ring.random_form(2, rng)
            if not g0.is_zero() and is_nonzerodivisor(g0, X):
                break
        if trial % 2 == 0:
            g = ring.random_form(1 + trial % 2, rng)
        else:
            g = _separator(X)
        _assert_matches_colon(Ideal(ring, [g0, g]), X, g0, g, range(0, X.delta() + 4))


@pytest.mark.parametrize("field", [PrimeField(32003), RationalField()])
def test_values_membership_matches_groebner_membership(field):
    X = random_general_points(8, 2, seed=62, field=field)
    ring = X.ring()
    rng = random.Random(11)
    j1, j2 = ring.random_form(2, rng), ring.random_form(3, rng)
    J = Ideal(ring, [j1, j2])
    I_X = vanishing_ideal(X)
    slow = ideal_sum(I_X, J)
    fast = PointValues(X, J)
    h = I_X.generators[0]
    cases = [(ring.zero(), True), (h, True), (h * ring.random_form(1, rng), True)]
    for d in (3, 4, 5):
        member = (ring.random_form(d - 2, rng) * j1 + ring.random_form(d - 3, rng) * j2
                  + ring.random_form(d - h.degree(), rng) * h)
        cases.append((member, True))
    for d in (1, 2, 3):
        cases.append((ring.random_form(d, rng), False))
    cases.append((j1 + ring.random_form(2, rng), False))
    for f, expected in cases:
        assert slow.contains(f) == expected
        assert fast.contains(f) == expected, f


def test_hom_ranks_eliminate_only_non_empty_colon_matrices(monkeypatch):
    """From delta_X on the colon in a degree can have no rows; its rank is 0
    with no elimination. For s = 20 in P^2 over degrees 0..delta_X + 3 the
    ranks make one `_echelon` call per non-empty colon matrix, and some
    colon matrices are empty."""
    import gradus.field as field_module
    import gradus.hom as hom_module
    X = random_general_points(20, 2, seed=63)
    rng = random.Random(12)
    J = build_scan_J(X.ring(), 20, rng)
    while not all(is_nonzerodivisor(j, X) for j in J.generators):
        J = build_scan_J(X.ring(), 20, rng)
    colons, ranked = [], []
    plain_rows, plain_echelon = hom_module._colon_rows, field_module._echelon

    def recorded_rows(*args):
        rows = plain_rows(*args)
        colons.append(len(rows))
        return rows

    def attributed(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "rank_profile":
            ranked.append(args[0].shape)
        return plain_echelon(*args, **kwargs)

    monkeypatch.setattr(hom_module, "_colon_rows", recorded_rows)
    monkeypatch.setattr(field_module, "_echelon", attributed)
    hom_graded_dims(J, X, range(0, X.delta() + 4))
    assert 0 in colons
    assert len(ranked) == sum(map(bool, colons))


def test_hom_and_theta_compute_no_groebner_basis(monkeypatch):
    X = random_general_points(20, 2, seed=63)
    ring = X.ring()
    rng = random.Random(12)
    J = build_scan_J(ring, 20, rng)
    while not all(is_nonzerodivisor(j, X) for j in J.generators):
        J = build_scan_J(ring, 20, rng)
    calls = Counter()
    for name in ("buchberger", "ideal_quotient", "ideal_intersection"):
        original = getattr(gradus.groebner, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("gradus") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    degrees = range(0, X.delta() + 4)
    g0, g1 = J.generators
    hom_graded_dims(J, X, degrees)
    hom_graded_dims(J, X, degrees, witness=g1)
    theta_kernel_dims(J, g0, X, degrees)
    assert calls == Counter()


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(2**31 - 1), RationalField()],
                         ids=lambda f: f.spec_string())
def test_theta_refuses_a_hom_basis_short_of_a_row(monkeypatch, field):
    """theta checks that its Hom basis holds (I_X + (g0))_t by a product
    that is exact at every p: the full basis passes, and with one row
    dropped in every degree, the degrees where g0 * V_{t - deg g0} is all
    of k^s are refused."""
    import gradus.hom as hom_module
    X = random_general_points(20 if field.kind == "prime" else 7, 2, seed=64, field=field)
    J = _nzd_draw(X, (2, 3), random.Random(13))
    g0 = J.generators[0]
    degrees = range(0, X.delta() + 1)
    assert not any(theta_kernel_dims(J, g0, X, degrees).values())
    plain = hom_module._kernel

    def short(*args):
        N, free = plain(*args)
        return N[:-1], free[:-1]

    monkeypatch.setattr(hom_module, "_kernel", short)
    with pytest.raises(GradusError, match="Hom subspace misses"):
        theta_kernel_dims(J, g0, X, degrees)


def test_theta_takes_a_rank_only_where_g_vanishes(monkeypatch):
    """A g that vanishes at no point holds the kernel basis's identity block
    in its support, so theta takes no rank; a zero divisor g takes them
    where it vanishes at a free column, and finds a kernel."""
    X = random_general_points(20, 2, seed=65)
    ring = X.ring()
    rng = random.Random(14)
    J = build_scan_J(ring, 20, rng)
    while not all(is_nonzerodivisor(j, X) for j in J.generators):
        J = build_scan_J(ring, 20, rng)
    calls = []
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("gradus") and getattr(mod, "rank", None) is rank:
            monkeypatch.setattr(mod, "rank", lambda *a, **k: calls.append(a) or rank(*a, **k))
    degrees = range(0, X.delta() + 4)
    g0, g1 = J.generators
    assert not any(theta_kernel_dims(J, g1, X, degrees, witness=g0).values())
    assert calls == []
    sep = _separator(X)
    assert any(theta_kernel_dims(Ideal(ring, [g0, sep]), sep, X, degrees).values())
    assert calls


def test_hom_refuses_the_zero_ideal():
    X = random_general_points(4, 2, seed=3)
    with pytest.raises(ValueError, match="nonzero ideal"):
        hom_graded_dims(Ideal(X.ring(), []), X, range(3))
