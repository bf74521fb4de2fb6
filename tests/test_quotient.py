"""GradedQuotient against the reference route it replaces: `normal_form`
of the whole form, then a scatter into the standard basis."""
import gc
import random
import weakref
from math import comb

import numpy as np
import pytest

import gradus.betti as betti
import gradus.groebner as groebner
from gradus.betti import graded_betti
from gradus.field import PrimeField, RationalField
from gradus.groebner import GradedQuotient, Ideal, normal_form
from gradus.points import PointSet, random_general_points, vanishing_ideal, vanishing_ideal_oracle
from gradus.ring import ELIM, GREVLEX, LEX, Poly, RingSpec, TermOrder, monomials_of_degree

FIELDS = [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1), RationalField()]


def _scatter(f: Poly, gb: list, basis: list) -> list:
    """Reference coordinates: full normal form, then one slot per monomial."""
    fld = f.ring.field
    index = {e: k for k, e in enumerate(basis)}
    col = [fld.zero] * len(basis)
    for e, c in normal_form(f, gb).terms.items():
        col[index[e]] = c
    return col


def _projective_plane(p):
    """Every point of P^2(F_p), first nonzero coordinate 1."""
    return ([(1, a, b) for a in range(p) for b in range(p)]
            + [(0, 1, b) for b in range(p)] + [(0, 0, 1)])


def _point_ideal(fld, s, seed):
    if fld == PrimeField(3):
        # P^2(F_3) has few general sets; the intersection oracle takes any set
        pts = random.Random(seed).sample(_projective_plane(3), s)
        return vanishing_ideal_oracle(PointSet(2, fld, pts))
    return vanishing_ideal(random_general_points(s, 2, seed=seed, field=fld))


def _artinian_ideal(fld, seed):
    """Pure powers of every variable plus random forms of degree 2 and 3."""
    rng = random.Random(seed)
    ring = RingSpec(3, fld)
    gens = [Poly(ring, {e: fld.one}) for e in ((3, 0, 0), (0, 4, 0), (0, 0, 3))]
    gens += [ring.random_form(rng.choice((2, 3)), rng) for _ in range(2)]
    return Ideal(ring, [g for g in gens if not g.is_zero()])


def _ideals(fld):
    yield _point_ideal(fld, 4 if fld == PrimeField(3) else 6, seed=5)
    for seed in (1, 2):
        yield _artinian_ideal(fld, seed)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_coords_and_mult_match_normal_form_scatter(fld):
    rng = random.Random(7)
    for I in _ideals(fld):
        ring, gb, Q = I.ring, I.groebner(), I.quotient()
        for d in range(6):
            # the normal forms of monomials in any order, one column each
            every = monomials_of_degree(ring.nvars, d, ring.order)
            monos = rng.sample(every, min(d + 2, len(every)))
            N = Q.normal_forms(monos, d)
            if fld.kind == "prime":
                assert isinstance(N, np.ndarray) and N.dtype == np.int64
            assert N.shape == (len(Q.basis(d)), len(monos))
            cols = [_scatter(Poly(ring, {m: fld.one}), gb, Q.basis(d)) for m in monos]
            assert N.tolist() == [[col[r] for col in cols] for r in range(len(Q.basis(d)))]
            for k in (1, 2):
                g = ring.random_form(k, rng)
                if g.is_zero():
                    continue
                src, dst = Q.basis(d), Q.basis(d + k)
                cols = [_scatter(g.mul_term(b, fld.one), gb, dst) for b in src]
                want = [[col[r] for col in cols] for r in range(len(dst))]
                M = Q.mult(g, d)
                if fld.kind == "prime":
                    assert isinstance(M, np.ndarray) and M.dtype == np.int64
                    assert M.shape == (len(dst), len(src))
                    assert M.tolist() == want
                else:
                    assert M.tolist() == want


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_prepared_basis_matches_groebner(fld):
    for I in _ideals(fld):
        for order in (TermOrder(GREVLEX), TermOrder(LEX)):
            ring = RingSpec(3, fld, order)
            J = I if I.ring == ring else Ideal(ring, [Poly(ring, g.terms) for g in I.generators])
            want = [(g.leading()[0], g.monic().terms) for g in J.groebner()]
            assert J.prepared() == want
            assert J.leading_monomials() == [lead for lead, _ in want]
            assert all(terms[lead] == fld.one for lead, terms in J.prepared())


def test_quotient_and_memo_die_with_their_ideal():
    ring = RingSpec(3)
    gens = vanishing_ideal(random_general_points(6, 2, seed=3)).generators
    I = Ideal(ring, gens)
    Q = I.quotient()
    Q.mult(ring.variable(0), 1)
    Q.mult(ring.variable(0), 2)
    assert Q.nf, "the multiplication map should have filled the memo"
    assert {sum(e) for e in Q.nf} == {3}  # one degree is kept, not all
    refs = [weakref.ref(Q), weakref.ref(next(iter(Q.nf.values())))]
    del I, Q
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_betti_koszul_matrices_stay_small_on_fifty_points(monkeypatch):
    # the full-ring Koszul complex out to the old degree guess took 540,180 cells
    X = random_general_points(50, 2, seed=1)
    I = vanishing_ideal(X)
    cells = []
    rank = betti.rank

    def counting_rank(fld, rows, *args, **kwargs):
        cells.append(len(rows) * len(rows[0]) if len(rows) else 0)
        return rank(fld, rows, *args, **kwargs)

    monkeypatch.setattr(betti, "rank", counting_rank)
    T = graded_betti(I)
    assert T.certificate.rule == "section"
    assert cells and sum(cells) < 5000


def test_betti_reduces_each_monomial_once_and_never_remonics(monkeypatch):
    X = random_general_points(7, 2, seed=15)
    I = Ideal(X.ring(), vanishing_ideal(X).generators)
    I.groebner()
    reduced = []
    monic_calls = []
    nf_terms, monic = groebner._nf_terms, Poly.monic

    def counting_nf(terms, *args, **kwargs):
        reduced.extend(terms)
        return nf_terms(terms, *args, **kwargs)

    def counting_monic(self, *args, **kwargs):
        monic_calls.append(self)
        return monic(self, *args, **kwargs)

    monkeypatch.setattr(groebner, "_nf_terms", counting_nf)
    monkeypatch.setattr(Poly, "monic", counting_monic)
    T = graded_betti(I)
    assert T.entries == {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}
    assert reduced, "the Koszul blocks need normal forms"
    assert len(reduced) == len(set(reduced))
    assert monic_calls == []


# -- standard monomials as an order ideal, against the brute-force filter --


def _brute_basis(I, d):
    """Every degree-d monomial no lead divides, descending in the order."""
    leads = I.leading_monomials()
    return [e for e in monomials_of_degree(I.ring.nvars, d, I.ring.order)
            if not any(all(a <= b for a, b in zip(le, e)) for le in leads)]


def _taylor_bound(I):
    """deg lcm of the leads; HF(R/I) = HF(R/in(I)) is polynomial past the
    regularity of R/in(I), which the Taylor complex puts at most here."""
    lcm = [0] * I.ring.nvars
    for lead in I.leading_monomials():
        lcm = [max(a, b) for a, b in zip(lcm, lead)]
    return sum(lcm)


def _basis_cases():
    rng = random.Random(23)
    orders = (TermOrder(GREVLEX), TermOrder(LEX), TermOrder(ELIM, 1))
    for nvars in (1, 2, 3, 4):
        for order in orders:
            if order.kind == ELIM and nvars < 2:
                continue
            ring = RingSpec(nvars, PrimeField(32003), order)
            yield Ideal(ring, [])
            yield Ideal(ring, [ring.one()])
            for _ in range(3):
                gens = [ring.random_form(rng.randrange(1, 4), rng)
                        for _ in range(rng.randrange(1, nvars + 2))]
                yield Ideal(ring, [g for g in gens if not g.is_zero()])
            for _ in range(4):
                # monomial ideals: the leads are whatever monomials were drawn
                monos = [tuple(rng.randrange(3) for _ in range(nvars)) for _ in range(4)]
                yield Ideal(ring, [Poly(ring, {e: 1}) for e in monos if any(e)])
    ring = RingSpec(3, PrimeField(3))
    yield Ideal(ring, [ring.random_form(2, rng), ring.variable(0) * ring.variable(1)])
    yield vanishing_ideal(random_general_points(7, 2, seed=9))


def test_basis_matches_brute_force_filter():
    for I in _basis_cases():
        Q = I.quotient()
        top = _taylor_bound(I) + 2
        assert Q.basis(-1) == []
        for d in range(top + 1):
            assert Q.basis(d) == _brute_basis(I, d), (I, d)
        # a degree asked for first, with the ones below it not built yet
        fresh = GradedQuotient(I)
        assert fresh.basis(top) == _brute_basis(I, top)


def test_basis_builds_each_degree_from_the_one_below():
    # 6 points in P^2: basis(d) has 6 monomials for d >= 2
    I = vanishing_ideal(random_general_points(6, 2, seed=3))
    Q = GradedQuotient(I)
    assert Q.basis(0) == [(0, 0, 0)]
    for d in range(1, 25):
        assert len(Q.basis(d)) == min(comb(d + 2, 2), 6)
