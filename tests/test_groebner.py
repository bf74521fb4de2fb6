import heapq
import itertools
import random
from fractions import Fraction

import pytest

from gradus.field import PrimeField, RationalField
from gradus.groebner import (
    Ideal,
    _f4,
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
    # source=given_generators uses the generators as written
    L2 = leading_term_ideal(A, source="given_generators")
    assert equal_ideals(L2, I("x0^2", "x1^2"))


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


def _monic_basis(ring, order, rng, size):
    basis = []
    while len(basis) < size:
        g = _random_poly(ring, rng, rng.randrange(1, 5), 3)
        if not g.is_zero():
            g = g.monic(order)
            basis.append((g.leading(order)[0], g.terms))
    return basis


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.spec_string())
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name())
def test_nf_terms_matches_reference_reducer(fld, order):
    rng = random.Random(f"{fld.spec_string()}/{order.name()}")
    for nvars in (3, 4):
        ring = RingSpec(nvars, fld, order)
        for _ in range(12):
            basis = _monic_basis(ring, order, rng, rng.randrange(1, 5))
            f = _random_poly(ring, rng, rng.randrange(1, 12), 6)
            terms = dict(f.terms)
            terms[(0,) * nvars] = fld.zero  # a zero entry, as S-polynomials have
            assert _nf_terms(terms, basis, order, fld) == \
                _reference_nf_terms(terms, basis, order, fld)
            got_q, want_q = [{} for _ in basis], [{} for _ in basis]
            rem = _nf_terms(terms, basis, order, fld, got_q)
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
            want = reduced_groebner_from_gens(gens, order)
            G = buchberger(gens, order)
            messy = [g.scale(fld.random(rng) or fld.one) for g in G]  # not monic
            messy += [G[0] * ring.random_form(1, rng), G[-1], ring.zero()]  # redundant
            messy.insert(1, ring.zero())
            rng.shuffle(messy)
            got = reduce_basis(messy, order)
            assert got == want
            leads = [g.leading(order) for g in got]
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
        ring = RingSpec(3, fld)
        for cached in itertools.product((False, True), repeat=2):
            for A, B in _sum_cases(ring, rng):
                for S, want_cached in zip((A, B), cached):
                    if want_cached:
                        S.groebner(order)
                held = [dict(S._gb) for S in (A, B)]
                total = ideal_sum(A, B)
                assert total.generators == A.generators + B.generators
                want = reduced_groebner_from_gens(list(total.generators), order)
                assert total.groebner(order) == want
                # the sum never computes its summands' bases
                assert [dict(S._gb) for S in (A, B)] == held


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
        assert got == reduce_basis(buchberger(gens, order), order), gens
        assert is_groebner_basis(got, order)


def test_degree_wise_groebner_special_ideals():
    x0, x1, x2 = (R.variable(i) for i in range(3))
    assert I("x0", "x1^2*x2^10").groebner() == [x0, P("x1^2*x2^10")]
    assert Ideal(R, [R.one(), P("x0^2")]).groebner() == [R.one()]
    # non-homogeneous generators go to Buchberger and still get their basis
    mixed = [x0 * x1 - x2, x1 * x1 - R.one()]
    assert Ideal(R, mixed, check=False).groebner() == reduced_groebner_from_gens(mixed)
    assert Ideal(R, [], check=False).groebner() == []


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
        order = ring.order
        G = _f4(ring, gens, order)
        got = sorted(G, key=lambda g: order.key(g.leading(order)[0]))
        want = reduce_basis(G, order)
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
        assert got == reduced_groebner_from_gens(gens, order), gens
    assert Ideal(ring4, scaled).groebner() == Ideal(ring4, gap).groebner()
