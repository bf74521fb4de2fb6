"""GradedQuotient against the reference route it replaces: `normal_form`
of the whole form, then a scatter into the standard basis."""
import gc
import random
import weakref

import numpy as np
import pytest

import gradus.betti as betti
import gradus.groebner as groebner
import gradus.hilbert as hilbert
from gradus.betti import graded_betti
from gradus.field import PrimeField, RationalField
from gradus.groebner import Ideal, normal_form
from gradus.points import PointSet, random_general_points, vanishing_ideal, vanishing_ideal_oracle
from gradus.ring import GREVLEX, LEX, Poly, RingSpec, TermOrder

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
            for _ in range(3):
                f = ring.random_form(d, rng)
                got = Q.coords(f, d)
                if fld.kind == "prime":
                    assert isinstance(got, np.ndarray) and got.dtype == np.int64
                assert list(got) == _scatter(f, gb, Q.basis(d))
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
                    assert M == want


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_prepared_basis_matches_groebner(fld):
    for I in _ideals(fld):
        for order in (TermOrder(GREVLEX), TermOrder(LEX)):
            want = [(g.leading(order)[0], g.monic(order).terms) for g in I.groebner(order)]
            assert I.prepared(order) == want
            assert I.leading_monomials(order) == [lead for lead, _ in want]
            assert all(terms[lead] == fld.one for lead, terms in I.prepared(order))


def test_quotient_and_memo_die_with_their_ideal():
    ring = RingSpec(3)
    gens = vanishing_ideal(random_general_points(6, 2, seed=3)).generators
    I = Ideal(ring, gens)
    Q = I.quotient()
    Q.mult(ring.variable(0), 2)
    assert Q.nf, "the multiplication map should have filled the memo"
    assert {sum(e) for e in Q.nf} == {Q.nf.degree}  # one degree is kept, not all
    refs = [weakref.ref(Q), weakref.ref(Q.nf)]
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
        cells.append(len(rows) * len(rows[0]) if rows else 0)
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
    monkeypatch.setattr(hilbert, "_nf_terms", counting_nf)
    monkeypatch.setattr(Poly, "monic", counting_monic)
    T = graded_betti(I)
    assert T.entries == {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}
    assert reduced, "the Koszul blocks need normal forms"
    assert len(reduced) == len(set(reduced))
    assert monic_calls == []
