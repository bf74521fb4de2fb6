import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradus.errors import ParseError
from gradus.field import PrimeField, RationalField
from gradus.ring import (
    Poly,
    RingSpec,
    TermOrder,
    _divides,
    compare_monomials,
    leading_term,
    mono_divides,
    mono_mul,
    monomials_of_degree,
    parse_poly,
    poly_arith,
    poly_to_str,
)

R = RingSpec(3)
RQ = RingSpec(3, RationalField())


def P(s, ring=R):
    return parse_poly(ring, s)


def test_compare_examples():
    grevlex = TermOrder()
    assert compare_monomials((1, 0, 2), (0, 2, 1), grevlex) == -1  # x0*x2^2 < x1^2*x2
    assert compare_monomials((1, 0, 0), (0, 5, 5), TermOrder("lex")) == 1
    assert compare_monomials((2, 1, 0), (2, 1, 0), grevlex) == 0
    # higher total degree always wins in grevlex
    assert compare_monomials((0, 0, 3), (2, 0, 0), grevlex) == 1


def test_poly_product_examples():
    assert poly_to_str(P("x0+x1") * P("x0-x1")) == "x0^2-x1^2"
    f = P("x0^2+3*x1*x2")
    assert (f - f).is_zero()
    assert poly_arith(f, -f, "add").is_zero()
    # hand-expanded square over Q
    sq = P("x0+x1+x2", RQ) * P("x0+x1+x2", RQ)
    assert sq == P("x0^2+x1^2+x2^2+2*x0*x1+2*x0*x2+2*x1*x2", RQ)


def test_product_of_homogeneous_is_homogeneous():
    rng = random.Random(1)
    for _ in range(20):
        f = R.random_form(rng.randrange(1, 4), rng)
        g = R.random_form(rng.randrange(1, 4), rng)
        h = f * g
        assert h.is_homogeneous()
        if not h.is_zero():
            assert h.degree() == f.degree() + g.degree()


def test_mixed_ring_rejected():
    with pytest.raises(ValueError):
        P("x0") + parse_poly(RingSpec(2), "x0")
    with pytest.raises(ValueError):
        P("x0") * P("x0", RQ)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_divides_is_mono_divides_on_every_pair(nvars):
    """Entry (i, k) of `_divides(leads, M)` is mono_divides(leads[k], M[i]),
    with the leads as tuples or as an array: random exponents, no lead,
    a lead equal to a monomial, and the zero monomial."""
    rng = random.Random(f"divides/{nvars}")
    for _ in range(20):
        M = np.array([[rng.randrange(4) for _ in range(nvars)]
                      for _ in range(rng.randrange(1, 8))] + [[0] * nvars], dtype=np.int64)
        leads = [tuple(rng.randrange(3) for _ in range(nvars)) for _ in range(rng.randrange(6))]
        leads.append(tuple(M[0].tolist()))
        for given in ([], leads, np.array(leads, dtype=np.int64)):
            got = _divides(given, M)
            assert got.shape == (len(M), len(given))
            assert got.tolist() == [[mono_divides(tuple(lead), tuple(m)) for lead in given]
                                    for m in M.tolist()]


def test_leading_term_examples():
    assert leading_term(P("x0^2+x1*x2")) == ((2, 0, 0), 1)
    e, _ = leading_term(P("x1^5+x0*x2^4", RingSpec(3, order=TermOrder("lex"))))
    assert e == (1, 0, 4)
    assert leading_term(P("x0^5")) == ((5, 0, 0), 1)
    with pytest.raises(ValueError):
        leading_term(R.zero())


def test_monomials_of_degree_counts():
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert len(monomials_of_degree(3, 2)) == 6
    assert len(monomials_of_degree(3, 5)) == 21
    for d in range(13):
        assert len(monomials_of_degree(3, d)) == comb(2 + d, d)
    # strictly descending, no duplicates
    ms = monomials_of_degree(3, 4)
    keys = [TermOrder().key(e) for e in ms]
    assert keys == sorted(keys, reverse=True)
    assert len(set(ms)) == len(ms)


exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)


@given(exps, exps, exps)
def test_order_axioms(a, b, c):
    for order in (TermOrder(), TermOrder("lex"), TermOrder("elim", 1)):
        ka, kb, kc = order.key(a), order.key(b), order.key(c)
        # totality with equality only on equal monomials
        assert (ka == kb) == (a == b)
        # transitivity comes from tuple comparison; multiplicativity we check
        if ka < kb:
            assert order.key(mono_mul(a, c)) < order.key(mono_mul(b, c))


@given(exps, exps)
def test_order_respects_degree(a, b):
    # grevlex refines total degree; the elimination order does so only
    # within a block-degree class (that is what makes it eliminate)
    if sum(a) < sum(b):
        assert TermOrder().key(a) < TermOrder().key(b)
    elim = TermOrder("elim", 1)
    if a[0] == b[0] and sum(a) < sum(b):
        assert elim.key(a) < elim.key(b)
    if a[0] < b[0]:
        assert elim.key(a) < elim.key(b)


def test_distributivity_random():
    rng = random.Random(7)
    for _ in range(15):
        f = R.random_form(2, rng)
        g = R.random_form(2, rng)
        h = R.random_form(1, rng)
        assert (f + g) * h == f * h + g * h


def test_leading_term_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        f = R.random_form(rng.randrange(1, 4), rng)
        g = R.random_form(rng.randrange(1, 4), rng)
        if f.is_zero() or g.is_zero():
            continue
        (ef, cf), (eg, cg) = f.leading(), g.leading()
        eh, ch = (f * g).leading()
        assert eh == mono_mul(ef, eg)
        assert ch == R.field.mul(cf, cg)


def test_parse_roundtrip_exact():
    for text in ["x0^2+x1*x2-3*x2^2", "0", "5", "-x0+2*x1", "1/2*x0^2-7/3*x1*x2"]:
        f = parse_poly(RQ, text)
        assert parse_poly(RQ, poly_to_str(f)) == f
    rng = random.Random(4)
    for _ in range(25):
        f = R.random_form(rng.randrange(0, 4), rng)
        assert parse_poly(R, poly_to_str(f)) == f
    # canonical text is stable
    s = poly_to_str(P("x1*x2 + x0^2 - 3*x2^2"))
    assert poly_to_str(parse_poly(R, s)) == s


def test_parse_errors():
    for bad in ["", "x3", "x0^", "x0 x1", "2^x0", "x0+", "y0", "x0*", "x0*x1*", "2*", "x0**x1"]:
        with pytest.raises(ParseError):
            parse_poly(R, bad)


def test_parse_collects_repeated_factors():
    assert P("x0*x0*x1") == P("x0^2*x1")
    assert P("2*x0*3*x1") == P("6*x0*x1")
    assert P("x0-x0").is_zero()


def _evaluate_by_repeated_mul(f, coords):
    fld = f.ring.field
    total = fld.zero
    for e, c in f.terms.items():
        for x, k in zip(coords, e):
            for _ in range(k):
                c = fld.mul(c, x)
        total = fld.add(total, c)
    return total


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1),
                                   RationalField()])
def test_evaluate_matches_repeated_multiplication(field):
    rng = random.Random(field.spec_string())
    ring = RingSpec(3, field)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 8)):
            e = tuple(rng.randrange(6) for _ in range(3))
            terms[e] = field.random(rng)
        f = Poly(ring, terms)
        coords = tuple(field.random(rng) if rng.random() < 0.6 else field.zero for _ in range(3))
        value = f.evaluate(coords)
        assert value == _evaluate_by_repeated_mul(f, coords)
        assert type(value) is type(field.one)


def test_evaluate():
    f = P("x0^2+x1*x2-3*x2^2")
    fld = R.field
    val = f.evaluate((1, 2, 3))
    assert val == fld.normalize(1 + 6 - 27)
