import heapq
import itertools
import random
from fractions import Fraction

import pytest

from gradus.field import PrimeField, RationalField, rank
from gradus.groebner import (
    Ideal,
    _f4,
    _intersect_all,
    _nf_terms,
    buchberger,
    equal_ideals,
    ideal_intersection,
    ideal_membership,
    ideal_quotient,
    ideal_sum,
    is_groebner_basis,
    leading_term_ideal,
    normal_form,
    reduce_basis,
    reduced_groebner,
    reduced_groebner_from_gens,
    s_polynomial,
)
from gradus.hilbert import hilbert_function
from gradus.ring import (
    ELIM,
    GREVLEX,
    LEX,
    Poly,
    RingSpec,
    TermOrder,
    monomials_of_degree,
    parse_poly,
)

R = RingSpec(3)


def P(s, ring=R):
    return parse_poly(ring, s)


def I(*gens, ring=R):
    return Ideal(ring, [P(g, ring) for g in gens])


def test_normal_form_examples():
    assert normal_form(P("x0^2"), [P("x0")]).is_zero()
    assert normal_form(P("x1"), [P("x0")]) == P("x1")
    # oracle: reducing by (x0-x2, x1-x2) substitutes x0 -> x2, x1 -> x2
    assert normal_form(P("x0*x1+x2^2"), [P("x0-x2"), P("x1-x2")]) == P("2*x2^2")


def test_normal_form_division_identity():
    rng = random.Random(2)
    G = [P("x0^2-x1*x2"), P("x1^2-x0*x2")]
    for _ in range(10):
        f = R.random_form(rng.randrange(1, 5), rng)
        r, qs = normal_form(f, G, with_quotients=True)
        # f = sum q_i g_i + r, exactly
        acc = r
        for q, g in zip(qs, G):
            acc = acc + q * g
        assert acc == f
        # idempotence
        assert normal_form(r, G) == r


def test_normal_form_no_lead_divisible():
    G = [P("x0^2-x1*x2"), P("x1^3")]
    r = normal_form(P("x0^4+x1^4+x2^4"), G)
    leads = [g.leading()[0] for g in G]
    from gradus.ring import mono_divides
    for e in r.terms:
        assert not any(mono_divides(le, e) for le in leads)


def test_reduced_groebner_examples():
    gb = reduced_groebner(I("x0-x1", "x1-x2"))
    # same ideal as {x0-x2, x1-x2}: mutual normal forms vanish
    other = [P("x0-x2"), P("x1-x2")]
    assert all(normal_form(g, other).is_zero() for g in gb)
    assert all(normal_form(g, gb).is_zero() for g in other)
    assert I("x0", "x0^2").groebner() == [P("x0")]
    assert I("3*x0^2-3*x1*x2").groebner() == [P("x0^2-x1*x2")]


def test_reduced_groebner_unique_under_permutation():
    rng = random.Random(5)
    gens = [R.random_form(2, rng) for _ in range(3)]
    base = Ideal(R, gens).groebner()
    for _ in range(4):
        perm = gens[:]
        rng.shuffle(perm)
        dup = perm + [perm[0]]
        assert Ideal(R, dup).groebner() == base


def test_buchberger_certificate():
    rng = random.Random(9)
    for _ in range(5):
        gens = [R.random_form(rng.randrange(1, 3), rng) for _ in range(rng.randrange(2, 4))]
        gb = Ideal(R, gens).groebner()
        assert is_groebner_basis(gb)
        # every input generator reduces to zero against the output
        assert all(normal_form(g, gb).is_zero() for g in gens)


def test_reduced_property():
    # no term of any element is divisible by another element's lead; all monic
    from gradus.ring import mono_divides
    gb = I("x0^2-x1^2", "x0*x1-x2^2", "x1^3-x0*x2^2").groebner()
    for k, g in enumerate(gb):
        assert g.leading()[1] == R.field.one
        for e in g.terms:
            for j, h in enumerate(gb):
                if j != k:
                    assert not mono_divides(h.leading()[0], e)


def test_membership_examples():
    assert ideal_membership(P("x0^2"), I("x0"))
    assert not ideal_membership(P("x1"), I("x0"))
    rng = random.Random(1)
    J = I("x0^2-x1*x2", "x1^2-x0*x2")
    for _ in range(5):
        g = J.generators[rng.randrange(2)]
        h = R.random_form(rng.randrange(1, 3), rng)
        assert ideal_membership(g * h, J)


def test_ideal_sum():
    assert equal_ideals(ideal_sum(I("x0"), I("x1")), I("x0", "x1"))
    A = I("x0^2-x1*x2")
    assert equal_ideals(ideal_sum(A, Ideal(R, [])), A)
    assert equal_ideals(ideal_sum(A, A), A)


def test_intersection_examples():
    assert equal_ideals(ideal_intersection(I("x0"), I("x1")), I("x0*x1"))
    A = I("x0^2-x1*x2", "x1^2")
    assert equal_ideals(ideal_intersection(A, A), A)


def test_intersection_soundness():
    rng = random.Random(3)
    A = I("x0^2-x1*x2")
    B = I("x1^2-x0*x2", "x0*x1")
    M = ideal_intersection(A, B)
    probes = [R.random_form(d, rng) for d in (2, 3, 4) for _ in range(4)]
    probes += [A.generators[0] * R.random_form(1, rng), B.generators[0] * R.random_form(2, rng)]
    probes += [g for g in M.groebner()]
    for f in probes:
        if f.is_zero():
            continue
        assert M.contains(f) == (A.contains(f) and B.contains(f))


def test_quotient_examples():
    assert equal_ideals(ideal_quotient(I("x0*x1"), I("x1")), I("x0"))
    A = I("x0^2-x1*x2", "x1^3")
    unit = Ideal(R, [R.one()], check=False)
    assert equal_ideals(ideal_quotient(A, unit), A)
    Q = ideal_quotient(I("x0^2", "x0*x1"), I("x0"))
    # both inclusions, by membership
    assert Q.contains(P("x0")) and Q.contains(P("x1"))
    assert equal_ideals(Q, I("x0", "x1"))


def test_quotient_soundness():
    A = I("x0^2-x1*x2", "x1^3")
    B = I("x0*x1", "x2^2")
    Q = ideal_quotient(A, B)
    for q in Q.groebner():
        for g in B.generators:
            assert A.contains(q * g)


def test_leading_term_ideal():
    A = I("x0^2-x1*x2", "x1^2-x0*x2")
    L = leading_term_ideal(A)
    for g in L.generators:
        assert len(g.terms) == 1
    # a monomial ideal is its own leading-term ideal
    assert equal_ideals(leading_term_ideal(L), L)


def test_macaulay_hilbert_invariance():
    # HF(R/I) = HF(R/in(I)) degree by degree
    A = I("x0^2-x1*x2", "x1^3-x2^3", "x0*x1^2-x2^3")
    L = leading_term_ideal(A)
    for d in range(13):
        assert hilbert_function(A, d) == hilbert_function(L, d)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        I("x0^2+x1")
    with pytest.raises(ValueError):
        Ideal(R, [R.zero()])


def test_ideal_json_roundtrip():
    A = I("x0^2-x1*x2", "x1^2-x0*x2")
    data = A.to_json()
    B = Ideal.from_json(data)
    assert equal_ideals(A, B)
    assert data["ring"]["order"] == "grevlex"


def test_spoly_reduces_for_gb():
    gb = I("x0^2-x1*x2", "x1^2-x0*x2").groebner()
    for i in range(len(gb)):
        for j in range(i):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_rational_field_gb():
    RQ = RingSpec(3, RationalField())
    A = Ideal(RQ, [parse_poly(RQ, "x0^2-x1*x2"), parse_poly(RQ, "3*x1^2-x0*x2")])
    gb = A.groebner()
    assert is_groebner_basis(gb)
    assert all(g.leading()[1] == 1 for g in gb)


# -- the division kernel, the Buchberger loop and ideal sums against the
# -- slow paths they replace ----------------------------------------------

FIELDS = [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1), RationalField()]
ORDERS = [TermOrder(GREVLEX), TermOrder(LEX), TermOrder(ELIM, 1), TermOrder(ELIM, 2)]


def _reference_nf_terms(terms, basis, order, field, quotients=None):
    """Reference reducer: first divisor by index, a lazy max-heap, every
    coefficient reduced as it is formed through the field's methods."""
    def neg_key(e):
        if order.kind == GREVLEX:
            return (-sum(e), tuple(reversed(e)))
        if order.kind == ELIM:
            return (-sum(e[: order.block]), -sum(e), tuple(reversed(e)))
        return tuple(-x for x in e)

    work = dict(terms)
    heap = [(neg_key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None or field.is_zero(c):
            continue
        hit = next((i for i, (lead, _) in enumerate(basis)
                    if all(x <= y for x, y in zip(lead, e))), -1)
        if hit < 0:
            remainder[e] = c
            continue
        lead, gterms = basis[hit]
        q = tuple(x - y for x, y in zip(e, lead))
        if quotients is not None:
            quotients[hit][q] = field.add(quotients[hit].get(q, field.zero), c)
        for me, mc in gterms.items():
            if me == lead:
                continue
            x = tuple(a + b for a, b in zip(q, me))
            delta = field.mul(c, mc)
            cur = work.get(x)
            if cur is None:
                work[x] = field.neg(delta)
                heapq.heappush(heap, (neg_key(x), x))
            else:
                work[x] = field.sub(cur, delta)
    return remainder


def _random_poly(ring, rng, nterms, max_deg):
    """Sparse, not necessarily homogeneous: the kernel also divides the
    (1 - t) generators of the elimination route."""
    fld = ring.field
    terms = {}
    for _ in range(nterms):
        d = rng.randrange(max_deg + 1)
        cut = sorted(rng.randrange(d + 1) for _ in range(ring.nvars - 1))
        e = tuple(b - a for a, b in zip([0] + cut, cut + [d]))
        terms[e] = fld.random(rng)
    return Poly(ring, terms)


def _monic_basis(ring, rng, size):
    basis = []
    while len(basis) < size:
        g = _random_poly(ring, rng, rng.randrange(1, 5), 3)
        if not g.is_zero():
            g = g.monic()
            basis.append((g.leading()[0], g.terms))
    return basis


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name())
def test_nf_terms_matches_reference_reducer(fld, order):
    rng = random.Random(f"{fld.spec_string()}/{order.name()}")
    for nvars in (3, 4):
        ring = RingSpec(nvars, fld, order)
        for _ in range(12):
            basis = _monic_basis(ring, rng, rng.randrange(1, 5))
            f = _random_poly(ring, rng, rng.randrange(1, 12), 6)
            terms = dict(f.terms)
            terms[(0,) * nvars] = fld.zero  # a zero entry, as S-polynomials have
            assert _nf_terms(terms, basis, ring) == _reference_nf_terms(terms, basis, order, fld)
            got_q, want_q = [{} for _ in basis], [{} for _ in basis]
            rem = _nf_terms(terms, basis, ring, got_q)
            assert rem == _reference_nf_terms(terms, basis, order, fld, want_q)
            assert got_q == want_q
            keys = [order.key(e) for e in rem]
            assert keys == sorted(keys, reverse=True), "remainder not descending"
            assert all(not fld.is_zero(c) and c == fld.normalize(c) for c in rem.values())


def test_buchberger_monics_each_input_once_and_no_new_element(monkeypatch):
    ring = RingSpec(3)
    gens = [P("3*x0^2-x1*x2"), P("5*x1^2-x0*x2"), P("7*x0*x1-x2^2"), ring.zero()]
    calls = []
    monic = Poly.monic

    def counting_monic(self, *args, **kwargs):
        calls.append(self)
        return monic(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "monic", counting_monic)
    G = buchberger(gens)
    assert len(G) > 3, "the instance should produce new basis elements"
    assert calls == gens[:3]
    calls.clear()
    reduce_basis(G)
    assert calls == []


def test_reduce_basis_on_non_monic_redundant_input_with_zeros():
    rng = random.Random(11)
    for fld in FIELDS:
        for order in (TermOrder(GREVLEX), TermOrder(LEX)):
            ring = RingSpec(3, fld, order)
            gens = [ring.random_form(rng.randrange(1, 4), rng) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            want = reduced_groebner_from_gens(gens)
            G = buchberger(gens)
            messy = [g.scale(fld.random(rng) or fld.one) for g in G]  # not monic
            messy += [G[0] * ring.random_form(1, rng), G[-1], ring.zero()]  # redundant
            messy.insert(1, ring.zero())
            rng.shuffle(messy)
            got = reduce_basis(messy)
            assert got == want
            leads = [g.leading() for g in got]
            assert all(c == fld.one for _, c in leads)
            assert [order.key(e) for e, _ in leads] == sorted(order.key(e) for e, _ in leads)
    assert reduce_basis([]) == []
    assert reduce_basis([R.zero()]) == []


def _sum_cases(ring, rng):
    """Pairs (A, B) of ideals with assorted cached bases and nesting."""
    def form():
        return ring.random_form(rng.randrange(1, 3), rng)
    A = Ideal(ring, [g for g in (form(), form()) if not g.is_zero()])
    B = Ideal(ring, [g for g in (form(),) if not g.is_zero()])
    C = Ideal(ring, [g for g in (form(), form()) if not g.is_zero()])
    yield A, B
    yield ideal_sum(A, B), C
    yield A, ideal_sum(B, ideal_sum(C, A))
    yield Ideal(ring, []), A
    yield A, A


@pytest.mark.parametrize("order", [TermOrder(GREVLEX), TermOrder(LEX)], ids=lambda o: o.name())
def test_ideal_sum_groebner_matches_raw_generators(order):
    rng = random.Random(17)
    for fld in (PrimeField(32003), RationalField()):
        ring = RingSpec(3, fld, order)
        for cached in itertools.product((False, True), repeat=2):
            for A, B in _sum_cases(ring, rng):
                for S, want_cached in zip((A, B), cached):
                    if want_cached:
                        S.groebner()
                held = [S._gb for S in (A, B)]
                total = ideal_sum(A, B)
                assert total.generators == A.generators + B.generators
                want = reduced_groebner_from_gens(list(total.generators))
                assert total.groebner() == want
                # the sum never computes its summands' bases
                assert [S._gb for S in (A, B)] == held


# -- the F4 degree loop of Ideal.groebner against plain Buchberger ---------

GRADED_FIELDS = [PrimeField(3), PrimeField(5), PrimeField(32003), PrimeField(2**31 - 1),
                 RationalField()]

# In 4 variables, grevlex: reduced-basis degrees 2, 2, 2, 3, 3, 3, 5, so a gap
# at 4 and an element three degrees above every generator.
GAP_IDEAL = ("x1^2-x0*x2", "x0*x1-x3^2", "x1*x2-x0*x1")


def _monomial(ring, e):
    return Poly(ring, {tuple(e): ring.field.one})


def _graded_cases(ring, rng):
    """Homogeneous generator lists, each non-empty."""
    n = ring.nvars
    top = 3 if n <= 3 else 2

    def form(d):
        while True:
            f = ring.random_form(d, rng)
            if not f.is_zero():
                return f

    yield [form(rng.randint(1, top)) for _ in range(rng.randint(1, 3))]
    # redundant: a form with a multiple, a rescaling and sums
    f, g = form(1), form(2)
    scale = ring.field.random(rng) or ring.field.one
    yield [f, f * form(1), f.scale(scale), g, f * ring.variable(0) + g]
    # generators in non-consecutive degrees
    yield [form(1), form(3)] if n > 1 else [form(2), form(4)]
    # monomial ideals
    yield [_monomial(ring, [rng.randint(0, 2) for _ in range(n)] if n > 1 else [2]),
           _monomial(ring, [0] * (n - 1) + [3])]
    # the unit ideal, alone and with a redundant form
    yield [ring.one()]
    yield [ring.one(), form(2)]
    if n >= 3:
        # (x0, x1^2*x2^10): generators eleven degrees apart
        yield [ring.variable(0), _monomial(ring, [0, 2, 10] + [0] * (n - 3))]
        # three quadrics: the basis goes above the top generator degree
        yield [form(2) for _ in range(3)]


def _points_generator_lists(fld):
    """The generators of I_X for the sets off general position that
    `tests/test_points.py` checks, in degrees 1 .. delta_X + 1."""
    from gradus.points import PointSet, vanishing_ideal
    collinear = [[1, 0, 0], [1, 1, 0], [1, 2, 0]]
    for extra in ([], [[1, 3, 0], [0, 0, 1]]):
        points = collinear + extra
        if len({tuple(map(fld.normalize, p)) for p in points}) < len(points):
            continue  # over F_3, (1:3:0) is (1:0:0)
        yield list(vanishing_ideal(PointSet(2, fld, points)).generators)


@pytest.mark.parametrize("fld", GRADED_FIELDS, ids=lambda f: f.spec_string())
@pytest.mark.parametrize("order", [TermOrder(GREVLEX), TermOrder(LEX)], ids=lambda o: o.name())
def test_degree_wise_groebner_matches_buchberger(fld, order):
    rng = random.Random(f"graded/{fld.spec_string()}/{order.name()}")
    cases = []
    for nvars in (1, 2, 3, 4):
        ring = RingSpec(nvars, fld, order)
        for _ in range(3):
            cases.extend(_graded_cases(ring, rng))
    cases.extend(
        [Poly(RingSpec(3, fld, order), g.terms) for g in gens]
        for gens in _points_generator_lists(fld)
    )
    ring4 = RingSpec(4, fld, order)
    cases.extend([P(g, ring4) for g in gens] for gens in (GAP_IDEAL, ("x0*x1", "x1^2-x0*x2")))
    for gens in cases:
        gens = [g for g in gens if not g.is_zero()]  # a sum may cancel
        got = Ideal(gens[0].ring, gens).groebner()
        assert got == reduce_basis(buchberger(gens)), gens
        assert is_groebner_basis(got)


def test_degree_wise_groebner_special_ideals():
    assert I("x0", "x1^2*x2^10").groebner() == [R.variable(0), P("x1^2*x2^10")]
    assert Ideal(R, [R.one(), P("x0^2")]).groebner() == [R.one()]
    assert Ideal(R, [], check=False).groebner() == []


@pytest.mark.parametrize("order", [TermOrder(LEX), TermOrder(ELIM, 1)], ids=lambda o: o.name())
def test_one_basis_per_ideal_in_the_rings_order(monkeypatch, order):
    """Every read of an ideal's basis (its reduced basis, prepared form,
    leads, membership, leading-term ideal and Hilbert series) reads the one
    basis F4 makes once, in the ring's order, which is Buchberger's. An
    intersection in a ring that is not grevlex presets no basis: its
    generators are the reduced grevlex basis, and F4 of them gives its own
    on first use."""
    import gradus.groebner as gb_module
    from gradus.hilbert import hilbert_series
    ring = RingSpec(3, order=order)
    plain_f4, runs = gb_module._f4, []

    def counting_f4(r, gens):
        runs.append(list(gens))
        return plain_f4(r, gens)

    monkeypatch.setattr(gb_module, "_f4", counting_f4)
    gens = ("x0^2-x1*x2", "x1^3-x0*x2^2", "x0*x1-x2^2")
    A = I(*gens, ring=ring)
    want = reduce_basis(buchberger(list(A.generators)))
    assert want != I(*gens).groebner(), "the instance should depend on the order"
    runs.clear()
    assert A.groebner() == want and A.groebner() is A.groebner()
    assert A.prepared() == [(g.leading()[0], g.terms) for g in want]
    assert A.leading_monomials() == [g.leading()[0] for g in want]
    assert all(A.contains(g) for g in want + list(A.generators))
    assert not A.contains(P("x2^2", ring))
    assert [g.terms for g in leading_term_ideal(A).generators] == \
        [{g.leading()[0]: 1} for g in want]
    assert hilbert_series(A) == hilbert_series(I(*gens))  # HS(R/I) = HS(R/in(I)) in any order
    assert len([gs for gs in runs if gs == list(A.generators)]) == 1

    M = ideal_intersection(I("x0^2-x1*x2", "x1^2", ring=ring), I("x1^2-x0*x2", "x0*x1", ring=ring))
    assert M._gb is None
    runs.clear()
    got = M.groebner()
    assert runs == [list(M.generators)]
    assert got == sorted(plain_f4(ring, list(M.generators)), key=lambda g: order.key(g.leading()[0]))
    assert got == reduce_basis(buchberger(list(M.generators)))


def test_homogeneous_groebner_runs_no_buchberger(monkeypatch):
    """The F4 degree loop alone gives the basis of a homogeneous ideal."""
    import gradus.groebner as gb_module
    from gradus.points import random_general_points, vanishing_ideal
    calls = []
    plain = gb_module.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    ideals = [vanishing_ideal(random_general_points(s, n, seed=1, field=fld))
              for s, n, fld in ((50, 2, PrimeField(32003)), (20, 3, PrimeField(32003)),
                                (7, 2, RationalField()))]
    ideals.append(I(*GAP_IDEAL, ring=RingSpec(4)))
    monkeypatch.setattr(gb_module, "buchberger", counting)
    for J in ideals:
        gb = Ideal(J.ring, J.generators).groebner()
        assert calls == []
        # the name imported here is the unpatched function
        assert gb == reduce_basis(buchberger(list(J.generators)))
    assert [g.degree() for g in ideals[-1].groebner()] == [2, 2, 2, 3, 3, 3, 5]


def _f4_cases(fld):
    """(ring, generators) for the reduced-output check over one field."""
    from gradus.points import random_general_points, vanishing_ideal
    instances = {"32003": ((50, 2), (20, 3)), "Q": ((7, 2),)}.get(fld.spec_string(), ())
    for s, n in instances:  # I_X of the points-betti instances
        J = vanishing_ideal(random_general_points(s, n, seed=1, field=fld))
        yield J.ring, list(J.generators)
    for order in (TermOrder(GREVLEX), TermOrder(LEX)):
        ring = RingSpec(4, fld, order)
        yield ring, [P(g, ring) for g in GAP_IDEAL]
    rng = random.Random(f"f4/{fld.spec_string()}")
    lex = RingSpec(3, fld, TermOrder(LEX))
    for _ in range(3):
        yield lex, [g for g in (lex.random_form(d, rng) for d in (1, 2, 2, 3)) if not g.is_zero()]
    for gens in _points_generator_lists(fld):
        yield gens[0].ring, gens


@pytest.mark.parametrize("fld", [PrimeField(3), PrimeField(32003), RationalField()],
                         ids=lambda f: f.spec_string())
def test_f4_output_is_already_reduced(fld):
    """Sorted by lead, F4's basis is what `reduce_basis` would make of it,
    down to the order of each element's terms, and it is what
    `Ideal.groebner` returns."""
    for ring, gens in _f4_cases(fld):
        G = _f4(ring, gens)
        got = sorted(G, key=lambda g: ring.order.key(g.leading()[0]))
        want = reduce_basis(G)
        assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
        assert Ideal(ring, gens).groebner() == got


# -- F4 on integer rows over Q against Buchberger on Fractions ---------------


def _large_rational(rng):
    """A 20-digit integer, or one over a denominator of up to 20 digits."""
    num = rng.choice((1, -1)) * rng.randrange(10**19, 10**20)
    return Fraction(num, rng.choice((1, 1, rng.randrange(2, 10**20))))


def _large_form(ring, rng, d, nterms):
    monos = monomials_of_degree(ring.nvars, d, ring.order)
    return Poly(ring, {e: _large_rational(rng) for e in rng.sample(monos, min(nterms, len(monos)))})


@pytest.mark.parametrize("order", [TermOrder(GREVLEX), TermOrder(LEX)], ids=lambda o: o.name())
def test_f4_over_q_with_large_coefficients_matches_buchberger(order):
    rng = random.Random(f"f4/Q/large/{order.name()}")
    cases = []
    for nvars in (2, 3):
        ring = RingSpec(nvars, RationalField(), order)
        for _ in range(4):
            cases.append([_large_form(ring, rng, rng.randint(1, 3), rng.randint(2, 4))
                          for _ in range(rng.randint(2, 3))])
    ring4 = RingSpec(4, RationalField(), order)
    gap = [P(g, ring4) for g in GAP_IDEAL]
    # the gap ideal itself with each generator scaled, and with a large
    # coefficient on every term
    scaled = [g.scale(_large_rational(rng)) for g in gap]
    cases.append(scaled)
    cases.append([Poly(ring4, {e: _large_rational(rng) for e in g.terms}) for g in gap])
    for gens in cases:
        got = Ideal(gens[0].ring, gens).groebner()
        assert got == reduced_groebner_from_gens(gens), gens
    assert Ideal(ring4, scaled).groebner() == Ideal(ring4, gap).groebner()


# -- intersections degree by degree against affine Buchberger --------------


def _intersection_by_buchberger(I, J):
    """I ∩ J as the t-free part of Buchberger's reduced basis of the affine
    t*I + (1-t)*J, under the block order on t; the reference
    `ideal_intersection` must reproduce."""
    ring = I.ring
    ext = RingSpec(ring.nvars + 1, ring.field, TermOrder(ELIM, 1))
    t = ext.variable(0)

    def up(f):
        return Poly(ext, {(0,) + e: c for e, c in f.terms.items()})

    gens = [t * up(f) for f in I.groebner()] + [(ext.one() - t) * up(g) for g in J.groebner()]
    gb = reduced_groebner_from_gens(gens)
    return [Poly(ring, {e[1:]: c for e, c in g.terms.items()})
            for g in gb if g.leading()[0][0] == 0]


def _assert_intersection_matches_reference(A, B):
    want = _intersection_by_buchberger(A, B)
    M = ideal_intersection(A, B)
    # the same generators in the same order, each listing its lead first
    assert list(M.generators) == want
    grevlex = TermOrder(GREVLEX)
    assert all(next(iter(g.terms)) == max(g.terms, key=grevlex.key) for g in M.generators)
    assert M.groebner() == Ideal(A.ring, want).groebner()


@pytest.mark.parametrize("fld", [PrimeField(3), PrimeField(32003), RationalField()],
                         ids=lambda f: f.spec_string())
@pytest.mark.parametrize("order", [TermOrder(GREVLEX), TermOrder(LEX)], ids=lambda o: o.name())
def test_intersection_matches_buchberger_elimination(fld, order):
    rng = random.Random(f"meet/{fld.spec_string()}/{order.name()}")
    for nvars in (2, 3):
        ring = RingSpec(nvars, fld, order)
        cases = [Ideal(ring, gens) for gens in _graded_cases(ring, rng)]
        for A in cases:
            B = cases[rng.randrange(len(cases))]
            _assert_intersection_matches_reference(A, B)
            _assert_intersection_matches_reference(A, A)
            # A inside A + B, both ways round
            _assert_intersection_matches_reference(A, ideal_sum(A, B))
            _assert_intersection_matches_reference(ideal_sum(B, A), A)


def _distinct_points(fld, n, count, rng):
    """`count` distinct normalised points of P^n with coordinates 0 to 3."""
    from gradus.points import normalize_point
    pts: dict = {}
    while len(pts) < count:
        coords = [fld.normalize(rng.randrange(4)) for _ in range(n + 1)]
        if not all(fld.is_zero(c) for c in coords):
            pts.setdefault(normalize_point(fld, coords), None)
    return list(pts)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_intersection_from_the_larger_initial_degree_matches_buchberger(fld):
    """`ideal_intersection` starts at the larger initial degree and reads
    the degrees below it off the children's series. It equals the
    elimination reference, both ways round, on the ideals of 16 points and
    of 4 points (the root of the oracle's tree at s = 20; in P^3 over F_3,
    whose plane has 13 points) and on two pairs of ideals of no points. In
    the last the sum is R_1 in degree 1 already, below the start."""
    from gradus.points import PointSet, vanishing_ideal
    n = 3 if fld == PrimeField(3) else 2
    pts = _distinct_points(fld, n, 20, random.Random(f"start/{fld.spec_string()}"))
    sixteen, four = (vanishing_ideal(PointSet(n, fld, part)) for part in (pts[:16], pts[16:]))
    assert sixteen.min_generator_degree() > four.min_generator_degree()
    ring = RingSpec(3, fld)
    for A, B in ((sixteen, four),
                 (I("x0^2-x1*x2", "x1^3", ring=ring), I("x0*x1*x2-x2^3", "x1^4", ring=ring)),
                 (I("x0", "x1", "x2", ring=ring), I("x0*x1-x2^2", "x1^3", ring=ring))):
        _assert_intersection_matches_reference(A, B)
        _assert_intersection_matches_reference(B, A)


def test_oracle_matches_buchberger_elimination():
    """The intersection oracle, fed by either route, is I_X."""
    from gradus.points import (
        PointSet,
        random_general_points,
        vanishing_ideal,
        vanishing_ideal_oracle,
    )
    sets = [random_general_points(s, 2, seed=5, field=PrimeField(32003)) for s in (9, 20)]
    sets.append(random_general_points(8, 3, seed=1, field=PrimeField(3)))
    for X in sets:
        want = vanishing_ideal(PointSet(X.n, X.field, [X.points[0]]))
        for p in X.points[1:]:
            single = vanishing_ideal(PointSet(X.n, X.field, [p]))
            want = Ideal(X.ring(), _intersection_by_buchberger(want, single))
        got = vanishing_ideal_oracle(X)
        assert list(got.generators) == list(want.generators)
        assert got.groebner() == want.groebner() == vanishing_ideal(X).groebner()


@pytest.mark.parametrize("fld", [PrimeField(3), PrimeField(32003), RationalField()],
                         ids=lambda f: f.spec_string())
def test_intersection_tree_matches_the_left_fold(fld):
    """`_intersect_all` pairs neighbours level by level; the ideal, its
    basis and its generator list are those of the left fold it replaced,
    for every length from 1 to 5 (odd lengths carry an ideal over)."""
    rng = random.Random(f"tree/{fld.spec_string()}")
    for order in (TermOrder(GREVLEX), TermOrder(LEX)):
        ring = RingSpec(3, fld, order)
        pool = [Ideal(ring, gens) for gens in itertools.islice(_graded_cases(ring, rng), 6)]
        for _ in range(4):
            while (f := ring.random_form(rng.randint(1, 2), rng)).is_zero():
                pass
            pool.append(Ideal(ring, [f]))
        for length in [1, 2, 3, 4, 5] * 2:
            ideals = [pool[rng.randrange(len(pool))] for _ in range(length)]
            want = ideals[0]
            for J in ideals[1:]:
                want = ideal_intersection(want, J)
            got = _intersect_all(ideals)
            assert list(got.generators) == list(want.generators)
            assert got.groebner() == want.groebner()


def test_intersections_and_colons_run_no_buchberger(monkeypatch):
    """`ideal_intersection`, `ideal_quotient` and the oracle run no
    Buchberger: linear algebra in each degree, and the F4 degree loop for
    the bases of their inputs."""
    import gradus.groebner as gb_module
    from gradus.points import random_general_points, vanishing_ideal_oracle
    calls = []
    plain = gb_module.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(gb_module, "buchberger", counting)
    vanishing_ideal_oracle(random_general_points(20, 2, seed=1))
    ideal_intersection(I("x0^2-x1*x2", "x1^2"), I("x1^2-x0*x2", "x0*x1")).groebner()
    ideal_quotient(I("x0^2-x1*x2", "x1^3"), I("x0*x1", "x2^2")).groebner()
    lex = RingSpec(3, order=TermOrder(LEX))
    ideal_quotient(I("x0^2", "x0*x1", ring=lex), I("x0", ring=lex)).groebner()
    assert calls == []


@pytest.mark.parametrize("A, B, columns, sums", [
    (("x0-x2", "x1-x2"), ("x0-x1", "x1-2*x2"), 6, 0),
    (("x0^2", "x1^3"), ("x0*x1",), 10, 1),
], ids=("two-points", "sum-not-artinian"))
def test_intersection_rejects_a_degree_of_the_wrong_dimension(monkeypatch, A, B, columns, sums):
    """Once the target series is known, every (I ∩ J)_d must have the
    dimension it gives. One row is dropped from (I ∩ J)_d in the degree
    with `columns` monomials: for two points, whose sum is Artinian, the
    series is known from degree 1 and degree 2 is refused; for
    (x0^2, x1^3) ∩ (x0*x1) it comes from the basis of the sum, and the
    missing x0^2*x1 of degree 3 is refused then."""
    import gradus.groebner as gb_module
    from gradus.errors import VerificationError
    plain_meet, plain_sum = gb_module._meet_in_degree, gb_module.ideal_sum
    made = []

    def short(field, A, B, n):
        K, pivots = plain_meet(field, A, B, n)
        return (K[:-1], pivots[:-1]) if n == columns else (K, pivots)

    def counting_sum(*args):
        made.append(args)
        return plain_sum(*args)

    monkeypatch.setattr(gb_module, "_meet_in_degree", short)
    monkeypatch.setattr(gb_module, "ideal_sum", counting_sum)
    with pytest.raises(VerificationError, match=r"dim \(I ∩ J\)_\d is"):
        ideal_intersection(I(*A), I(*B))
    assert len(made) == sums


def _meet_cases(fld, ring):
    """(name, A, B, whether A + B is Artinian) for the intersection property
    test: point sets with no common point and with one, I_X and a principal
    (g) with g through a point of X and through none, A ∩ (A + B), and the
    unit ideal."""
    from gradus.points import PointSet, vanishing_ideal
    pts = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 0], [0, 1, 2], [1, 0, 1]]

    def ideal_of(points):
        gens = vanishing_ideal(PointSet(2, fld, points)).generators
        return Ideal(ring, [Poly(ring, g.terms) for g in gens])

    X1, X2, X3 = ideal_of(pts[:3]), ideal_of(pts[3:5]), ideal_of(pts[2:4] + pts[5:])
    off = I("x0^2-x1*x2", "x1^3", ring=ring)
    yield "disjoint-points", X1, X2, True
    yield "disjoint-points-reversed", X2, X1, True
    yield "shared-point", X1, X3, False
    yield "principal-through-a-point", X2, I("x1*x2-x0*x2", ring=ring), False  # (1:1:1)
    yield "principal-through-none", X2, I("x0^2", ring=ring), True
    yield "inside-the-sum", off, ideal_sum(off, X1), False
    yield "inside-the-sum-reversed", ideal_sum(X1, off), X1, False
    yield "unit", Ideal(ring, [ring.one()]), X3, True


@pytest.mark.parametrize("fld", [PrimeField(3), PrimeField(32003), RationalField()],
                         ids=lambda f: f.spec_string())
@pytest.mark.parametrize("order", [TermOrder(GREVLEX), TermOrder(LEX)], ids=lambda o: o.name())
def test_intersection_by_degree_matches_buchberger_on_both_stops(monkeypatch, fld, order):
    """`ideal_intersection` equals the affine-Buchberger reference on pairs
    whose sum is Artinian, where the target series is read off the degrees
    computed and no basis of I + J is ever made, and on pairs whose sum is
    not, where it comes from F4 on I + J in the ring's own variables."""
    import gradus.groebner as gb_module
    ring = RingSpec(3, fld, order)
    plain_sum, plain_f4 = gb_module.ideal_sum, gb_module._f4
    sums, f4_rings = [], []

    def counting_sum(A, B):
        sums.append((A, B))
        return plain_sum(A, B)

    def recording_f4(r, gens):
        f4_rings.append(r.nvars)
        return plain_f4(r, gens)

    for name, A, B, artinian in _meet_cases(fld, ring):
        want = _intersection_by_buchberger(A, B)
        sums.clear()
        monkeypatch.setattr(gb_module, "ideal_sum", counting_sum)
        monkeypatch.setattr(gb_module, "_f4", recording_f4)
        M = ideal_intersection(A, B)
        monkeypatch.undo()
        assert list(M.generators) == want, name
        assert M.groebner() == Ideal(ring, want).groebner(), name
        assert (not sums) == artinian, name
    assert set(f4_rings) <= {3}  # no extension ring


def _points_with_zeros(fld, n, rng):
    """Points of P^n for the closed-form rows: the coordinate points, points
    whose last non-zero coordinate is not the last one (l < n) and some
    zero coordinates below it, and random points."""
    pts = [tuple(int(k == v) for k in range(n + 1)) for v in range(n + 1)]
    pts += [(2, 1) + (0,) * (n - 1), (0, 2, 0) + (1,) * (n - 2), (1, 0) + (2,) * (n - 1)]
    pts += [tuple(fld.random(rng) for _ in range(n)) + (1,) for _ in range(3)]
    return [tuple(fld.normalize(c) for c in p) for p in pts]


ORDERS = [TermOrder(GREVLEX), TermOrder(LEX), TermOrder(ELIM, 1)]


def _grevlex_monomials(ring, d):
    """The degree-d monomials in descending grevlex order, the columns of
    every complement and meet."""
    return monomials_of_degree(ring.nvars, d, TermOrder(GREVLEX))


def _normal_form_rows(ideal, d):
    """Reference complement of I_d: the normal form of each degree-d
    monomial by `normal_form`, scattered over the standard monomials, one
    column per monomial in descending grevlex order."""
    ring, gb = ideal.ring, ideal.groebner()
    basis, monos = ideal.quotient().basis(d), _grevlex_monomials(ring, d)
    index = {e: k for k, e in enumerate(basis)}
    rows = [[ring.field.zero] * len(monos) for _ in basis]
    for j, m in enumerate(monos):
        for e, c in normal_form(_monomial(ring, m), gb).terms.items():
            rows[index[e]][j] = c
    return rows


def _multiples(ideal, d):
    """The degree-d multiples m * g of the reduced basis of I in the ring's
    order, each as a row over the degree-d monomials in descending grevlex
    order; they span I_d."""
    ring = ideal.ring
    col = {e: j for j, e in enumerate(_grevlex_monomials(ring, d))}
    rows = []
    for g in ideal.groebner():
        if g.degree() <= d:
            for m in monomials_of_degree(ring.nvars, d - g.degree(), ring.order):
                row = [ring.field.zero] * len(col)
                for e, c in g.terms.items():
                    row[col[tuple(a + b for a, b in zip(m, e))]] = c
                rows.append(row)
    return rows


def _assert_complement_of(ideal, S, d, label):
    """S annihilates I_d and has rank dim R_d - dim I_d: its rows span the
    orthogonal complement of I_d."""
    fld = ideal.ring.field
    n = len(_grevlex_monomials(ideal.ring, d))
    rows = _multiples(ideal, d)
    assert S.shape[1] == n, label
    if rows:
        assert not (fld.matmul(S, fld.array(rows).T) != 0).any(), label
    assert rank(fld, S, n) == n - rank(fld, rows, n), label


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_point_complement_is_the_perp_of_the_shift_built_basis(fld):
    """`_complement` of a point ideal is the closed-form row (c^m)_m, built
    degree by degree; in P^2 and P^3, degrees 1 to 7 and every order of
    the ring it equals, entry for entry, the matrix of the normal form
    modulo the ideal by division, which is the orthogonal complement of
    I_d. Only `_point_ideal` presets point rows: an ideal given by other
    generators of the same linear space keeps none, and its complement,
    the matrix of its normal forms, is the same row."""
    import gradus.groebner as gb_module
    from gradus.points import _point_ideal
    rng = random.Random(f"point-rows/{fld.spec_string()}")
    for n in (2, 3):
        for order in ORDERS:
            ring = RingSpec(n + 1, fld, order)
            for p in _points_with_zeros(fld, n, rng):
                closed = _point_ideal(ring, p)
                gens = closed.generators  # mixed: each plus non-zero multiples of the later ones
                mixed = Ideal(ring, [sum((g.scale(fld.random(rng) or fld.one)
                                          for g in gens[k + 1:]), gens[k]) for k in range(n)])
                for d in range(1, 8):
                    want = _normal_form_rows(closed, d)
                    for ideal in (closed, mixed):
                        got = gb_module._complement(ideal, d)
                        assert got.tolist() == want, (p, d, order.name())
                    assert d in closed._point_rows and not mixed._point_rows, (p, d)
                # its one basis is the one in the ring's order
                assert mixed._gb == reduced_groebner_from_gens(list(mixed.generators))


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_generic_complement_spans_the_complement_in_every_order(fld):
    """For an ideal that is neither a point ideal nor an intersection
    result, `_complement` is the matrix of its normal forms from
    `I.quotient()`, in every order of the ring: HF(R/I)(d) rows that
    annihilate every degree-d multiple of the reduced basis and have full
    rank, also for the unit ideal, whose complement is empty. An
    intersection reads such an operand in the ring's order alone: no
    grevlex basis is made on the side."""
    import gradus.groebner as gb_module
    rng = random.Random(f"generic-rows/{fld.spec_string()}")
    for order in ORDERS:
        ring = RingSpec(3, fld, order)
        operands = [Ideal(ring, gens) for gens in _graded_cases(ring, rng)]
        operands.append(Ideal(ring, [ring.one()]))
        for k, ideal in enumerate(operands):
            for d in range(6):
                S = gb_module._complement(ideal, d)
                label = (order.name(), k, d)
                assert S.shape[0] == hilbert_function(ideal, d), label
                _assert_complement_of(ideal, S, d, label)
        for A in operands:
            B = operands[rng.randrange(len(operands))]
            M = ideal_intersection(A, B)
            assert M.groebner() == Ideal(ring, _intersection_by_buchberger(A, B)).groebner()
            for X in (A, B):
                assert X._gb == reduced_groebner_from_gens(list(X.generators)), order.name()


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
def test_stacked_complements_span_the_complement_of_the_meet(monkeypatch, fld):
    """An intersection result's complement is its operands' complements
    stacked, with no elimination: on every `_meet_cases` pair, below the
    loop's start degree, in each degree the loop meets in and above its
    stop, the stack annihilates (I ∩ J)_d, the degree-d multiples of the
    result's own basis, and has rank dim R_d - dim (I ∩ J)_d."""
    import gradus.groebner as gb_module
    ring = RingSpec(3, fld)
    plain = gb_module._meet_in_degree
    sizes = {len(monomials_of_degree(3, d, ring.order)): d for d in range(12)}
    met = []
    monkeypatch.setattr(gb_module, "_meet_in_degree",
                        lambda field, A, B, n: met.append(sizes[n]) or plain(field, A, B, n))
    below = 0
    for name, A, B, _ in _meet_cases(fld, ring):
        met.clear()
        M = ideal_intersection(A, B)
        assert M._parts == (A, B)
        for d in range(max(met) + 3):
            _assert_complement_of(M, gb_module._complement(M, d), d, (name, d))
        below += min(met) > 0
    assert below  # some pair starts above degree 0


def test_oracle_eliminates_once_per_meet(monkeypatch):
    """A 20-point oracle makes one elimination per degree met. Each of the
    s - 2 nodes below the root takes one rank-only elimination of its
    complement per degree, in `_series_meet`, degree after degree; the
    root's eliminations are all the `_kernel` of `_meet_in_degree`. None is
    made for a point ideal's complement (one closed-form row) or a node's
    (its parts' rows stacked)."""
    from collections import Counter
    from math import comb
    import sys

    import gradus.field as field_module
    import gradus.groebner as gb_module
    import gradus.points
    from gradus.points import random_general_points, vanishing_ideal_oracle
    X = random_general_points(20, 2, seed=1)
    callers = Counter()
    meets, nodes = [], []
    plain_echelon, plain_meet = field_module._echelon, gb_module._meet_in_degree
    plain_rank, plain_node = gb_module.rank, gradus.points._series_meet

    def attributed(A, field, rank_only=False):
        frame = sys._getframe(1)  # the first caller outside the field and this test
        while frame.f_globals["__name__"] in ("gradus.field", __name__):
            frame = frame.f_back
        callers[frame.f_code.co_name, rank_only] += 1
        return plain_echelon(A, field, rank_only)

    def node(A, B):
        nodes.append([])
        return plain_node(A, B)

    def ranked(field, rows, n):
        nodes[-1].append(n)
        return plain_rank(field, rows, n)

    monkeypatch.setattr(field_module, "_echelon", attributed)
    monkeypatch.setattr(gb_module, "_meet_in_degree", lambda *a: meets.append(a) or plain_meet(*a))
    monkeypatch.setattr(gb_module, "rank", ranked)
    monkeypatch.setattr(gradus.points, "_series_meet", node)
    vanishing_ideal_oracle(X)
    assert len(nodes) == X.s - 2 and meets
    for columns in nodes:
        start = next(d for d in range(X.s) if comb(d + 2, 2) == columns[0])
        assert columns == [comb(d + 2, 2) for d in range(start, start + len(columns))]
    assert callers == Counter({("_series_meet", True): sum(map(len, nodes)),
                               ("_meet_in_degree", False): len(meets)})


def test_intersection_with_the_zero_ideal_is_that_operand():
    R = RingSpec(3)
    I, Z = Ideal(R, [parse_poly(R, "x0*x1")]), Ideal(R, [])
    assert ideal_intersection(I, Z) is Z and ideal_intersection(Z, I) is Z


def test_colon_by_the_zero_ideal_is_refused():
    R = RingSpec(3)
    with pytest.raises(ValueError, match="colon by the zero ideal"):
        ideal_quotient(Ideal(R, [parse_poly(R, "x0")]), Ideal(R, []))


@pytest.mark.parametrize("call", [ideal_sum, equal_ideals, ideal_intersection, ideal_quotient,
                                  lambda I, J: I.contains(J.generators[0])],
                         ids=["ideal_sum", "equal_ideals", "ideal_intersection",
                              "ideal_quotient", "Ideal.contains"])
def test_an_operand_from_another_ring_is_refused(call):
    R, S = RingSpec(3), RingSpec(3, RationalField())
    I, J = Ideal(R, [parse_poly(R, "x0")]), Ideal(S, [parse_poly(S, "x0")])
    with pytest.raises(ValueError, match="different ring"):
        call(I, J)


def test_the_zero_ideal_has_no_min_generator_degree():
    with pytest.raises(ValueError, match="zero ideal"):
        Ideal(RingSpec(3), []).min_generator_degree()
