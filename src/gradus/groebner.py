"""Division algorithm, Buchberger's algorithm, and the ideal algebra.

Reduction keeps the working polynomial in a dict and drives it with a lazy
max-heap of monomials: corrections only ever touch monomials strictly below
the one being cancelled, so each heap entry is popped at most once with its
final coefficient. Among divisors of the current lead, the one with the
smallest index in the basis wins, which makes division deterministic.

`Ideal.groebner` computes the basis of a homogeneous ideal with F4 in its
homogeneous form (Faugere, JPAA 139, 1999), one degree d at a time and no
Buchberger. The matrix of degree d has the degree-d monomials as columns,
in descending order, and these rows: the generators of degree d; both
halves m_i*g_i, m_j*g_j of every pair of lcm degree d left by the pair
queue's criteria (coprime leads, and the chain criterion); and one
reducer per monomial m of (LT G)_d, the multiple of the first basis element
whose lead divides m. A row is a basis element's dense vector scattered
through the memoised column map of "times q". The reducers are
multiples of basis elements with distinct leads, so their block is
triangular: they clear their lead columns from the other rows with one
rank-1 update each, highest monomial first, and are never reduced against
each other (that buys nothing, as only the other rows become basis
elements). RREF of what
is left, on the columns outside (LT G)_d, gives the new elements: each
pivot row is monic, with a lead no earlier lead divides and a tail of
standard monomials. The loop stops when no generator and no pair is left.
Every selected S-polynomial then lies in the span of rows with distinct
leads, each a monomial times a basis element, so it has a standard
representation, which is Buchberger's criterion. The output is already
the reduced basis: no later lead divides a monomial of lower degree, so
`Ideal.groebner` only sorts it by lead. Each ideal has that one basis, in
its ring's order, made once. Buchberger, which takes one pair at a time
from the same queue, and `reduce_basis` are the reference F4 is tested
against; no ideal's basis comes from them.

Over Q the loop creates no Fraction. The rows are primitive vectors of
Python ints (`gradus.field.integer_rows`), each basis element is kept as
one with a positive lead entry L, and a reducer clears entry b of a row
as L*row - b*reducer, which is then divided by its content. The final
RREF is `gradus.field._echelon`'s, whose monic Fraction rows are read as
the new elements (`gradus.ring._form`) and stored back as integer rows.

What is read off the basis lives beside it. `GradedQuotient` is R/I,
degree by degree over its standard monomials, the cached columns that no
lead divides (`gradus.ring._divides`, the one lead test F4, the meets and
the points' kernel blocks share), and
`GradedQuotient.normal_forms` is the one normal-form map: the matrix of
the normal forms of a list of monomials. The multiplication maps Betti
reads are sums of its column selections, and it gives the intersections'
generic operands their complements (`_complement`). `hilbert_series`
reads HS(R/I) off the leads (`gradus.ring._numerator`) and keeps it on
the ideal.

Ideal intersections and colons take no auxiliary variable: I ∩ J is
found in k[x] itself, one degree d at a time, by linear algebra, and it
reads only complements. (I ∩ J)_d is the kernel of I_d^⊥ + J_d^⊥, so all
a meet asks of an ideal is rows spanning I_d^⊥, over the degree-d
monomials in descending grevlex order (`_complement`). An ideal of points
is known by the functionals that vanish on it (Marinari, Möller and Mora,
AAECC 4, 1993), and three kinds of ideal supply these rows:

- The ideal of a point c, with c_l = 1, whose reduced basis is the
  nvars - 1 linear forms x_k - c_k * x_l in every order of the ring. The
  normal form of a monomial m is c^m * x_l^d, so I_d^⊥ is the one row
  (c^m)_m, made from the row of degree d - 1 as c_v times it scattered
  through "times x_v". `_point_ideal` builds the ideal with its rows of
  degree 0 and 1, (1) and c, from the point's coordinates.
- An intersection result: (I ∩ J)_d^⊥ = I_d^⊥ + J_d^⊥, so its complement
  is its parts' complements stacked. The parts are the ideals met to
  make it, an intersection operand being replaced by its own parts, and
  the result keeps them for as long as it lives itself.
- Any other ideal: the normal forms of the degree-d monomials modulo its
  reduced basis in the ring's order, one column each
  (`GradedQuotient.normal_forms`). The normal form is a linear map
  R_d -> (R/I)_d with kernel I_d, so the rows of its matrix span I_d^⊥
  whatever the order.

None of the three eliminates. The meet is the kernel
(`gradus.field._kernel`) of the two complements stacked, with the
columns reversed so that monomials ascend: the kernel rows come out
already in reduced echelon form, descending, with no second elimination,
so each degree met is one elimination. A row whose lead no earlier lead
divides is an element of the reduced basis of I ∩ J, whose tail holds
standard monomials only.

The loop starts at the larger of the two initial degrees, each the least
d with HF(R/I)_d < dim R_d, read off its ideal's series; the series also
tells the zero ideal, HS(R/0) = 1/(1 - t)^nvars, so no generator list is
read. Below the start one of I_e, J_e is 0, so (I ∩ J)_e = 0 and
HF(R/(I+J))_e is HF(R/I)(e) + HF(R/J)(e) - dim R_e, read off the two
series with no meet. Those series are kept on the ideals, where
`hilbert_series` reads them: an intersection leaves the series it proved
on its result, so in a tree only the leaves' series are computed from
their leads, and a single-point ideal has 1/(1 - t) preset; any other
operand's comes from its leads in the ring's order, the basis its normal
forms divide by. In the loop's degrees too, dim I_d and dim J_d are read
off the two series, not off a basis.

The loop stops on a Hilbert series. The exact sequence
0 -> R/(I ∩ J) -> R/I ⊕ R/J -> R/(I+J) -> 0 gives HS(R/(I ∩ J)) =
HS(R/I) + HS(R/J) - HS(R/(I+J)), and once the leads G found so far have
that series, in(G) = in(I ∩ J), as in(G) lies in it and both have the same
Hilbert function: G is the reduced basis. HS(R/(I+J)) has two sources.
If dim I_d + dim J_d - dim (I ∩ J)_d = dim R_d in some degree d0, then
(I+J)_d = R_d from d0 on, so the series is the Hilbert function already
computed (`_meet_series`); that holds for every meet of the points
oracle, as point sets with no common point have an Artinian sum.
Otherwise it is the `hilbert_series` of I + J, read off its basis by F4
in the same variables, and that basis is made only once
HS(R/I) + HS(R/J) - HS(R/in(G)) could be the series of a common quotient
of R/I and R/J, with non-negative coefficients and dimension at most
min(dim R/I, dim R/J): before that, G is incomplete whatever
HS(R/(I+J)) is. Once the series is known, every dim (I ∩ J)_d is
checked against it. The generators of I ∩ J are its reduced grevlex
basis, whatever the ring's order, and the result keeps its parts and the
series for the next intersection, and that basis as its own when the
ring's order is grevlex; in any other order its basis is made by F4 from
those generators on first use.

A list of ideals (the colons (I : g) of `ideal_quotient`) is intersected
in a balanced tree (`_intersect_all`), as in a subproduct tree (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 10): neighbours
pairwise, level by level, an odd one carried over. That is still one
intersection fewer than the list is long, but below the root none meets
more than half of the list, where a left fold carries all it has met into
each one.

The points oracle (`gradus.points.vanishing_ideal_oracle`) pairs its
single-point ideals in the same tree, but builds one reduced basis only,
at the root. What the next meet reads of a node is its complement, its
parts' rows stacked, and its series, so a node below the root keeps only
those (`_Meet`) and proves its series from ranks alone (`_series_meet`):
from the larger initial degree, HF(R/(I ∩ J))_d is the rank of the
complements stacked, with no kernel, no leads and no polynomial, until
HF(R/(I+J))_d = 0, and the series is then `_meet_series`, the same
arithmetic as the Artinian stop above. The root is the one
`ideal_intersection`; a node has no generators to sum, so there its
target series comes from the Artinian sum too, never from F4 of I + J.
"""
from __future__ import annotations

import heapq
from math import comb
from operator import add, itemgetter, le, neg, sub

import numpy as np

from .errors import ParseError, VerificationError
from .field import _echelon, _kernel, _zeros, integer_rows, primitive_rows, rank
from .ring import (
    ELIM,
    GREVLEX,
    Exponents,
    Poly,
    RingSpec,
    TermOrder,
    _coefficient,
    _columns,
    _divides,
    _form,
    _minus,
    _numerator,
    _reduced,
    _shift,
    _times_one_minus_t,
    _unit,
    expect_json,
    json_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_poly,
    poly_to_str,
)


def _heap_key(order: TermOrder):
    """Order-reversing key, so heapq's min-heap pops the largest monomial."""
    if order.kind == GREVLEX:
        return lambda e: (-sum(e), e[::-1])
    if order.kind == ELIM:
        block = order.block
        return lambda e: (-sum(e[:block]), -sum(e), e[::-1])
    return lambda e: tuple(map(neg, e))


def _nf_terms(terms: dict, basis: list, ring: RingSpec, quotients=None):
    """Normal form of a term dict of `ring` against basis = [(lead_exps, terms_dict), ...].

    Basis polynomials must be monic with `lead_exps` maximal in the ring's
    order. If `quotients` is a list of dicts it accumulates the cofactors. The
    remainder's keys come out in descending order, so its first key is its
    lead. A working coefficient is made canonical (`field.reduce`) only when
    popped.
    """
    field = ring.field
    key = _heap_key(ring.order)
    reduce = field.reduce
    leads = [lead for lead, _ in basis]
    work = dict(terms)
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = reduce(work.pop(e))
        if not c:
            continue
        for hit, lead in enumerate(leads):
            if all(map(le, lead, e)):
                break
        else:
            remainder[e] = c
            continue
        q = tuple(map(sub, e, lead))
        if quotients is not None:
            qd = quotients[hit]
            qd[q] = field.add(qd.get(q, field.zero), c)
        for me, mc in basis[hit][1].items():
            if me == lead:
                continue
            x = tuple(map(add, q, me))
            cur = work.get(x)
            if cur is None:
                work[x] = -c * mc
                heapq.heappush(heap, (key(x), x))
            else:
                work[x] = cur - c * mc
    return remainder


def normal_form(f: Poly, G: list[Poly], with_quotients: bool = False):
    """Remainder of f on division by G in the ring's order; no remainder
    term is divisible by a lead of G and f - remainder lies in (G)."""
    field = f.ring.field
    live = [g for g in G if not g.is_zero()]
    if not live:
        return (f, []) if with_quotients else f
    monic = [g.monic() for g in live]
    basis = [(g.leading()[0], g.terms) for g in monic]
    quotients = [{} for _ in monic] if with_quotients else None
    rem = _nf_terms(f.terms, basis, f.ring, quotients)
    r = Poly(f.ring, rem)
    if not with_quotients:
        return r
    # cofactors are against the monic basis; rescale back to the given G
    qs = []
    for g, mono_g, qd in zip(live, monic, quotients):
        _, lc = g.leading()
        scale = field.inv(lc)
        qs.append(Poly(f.ring, {e: field.mul(c, scale) for e, c in qd.items()}))
    return r, qs


def _spoly_terms(gi, gj, field):
    """S-polynomial term dict for monic gi, gj given as (lead, terms)."""
    li, ti = gi
    lj, tj = gj
    lcm = mono_lcm(li, lj)
    qi, qj = mono_div(lcm, li), mono_div(lcm, lj)
    out: dict = {}
    for e, c in ti.items():
        out[mono_mul(qi, e)] = c
    for e, c in tj.items():
        x = mono_mul(qj, e)
        cur = out.get(x)
        out[x] = field.neg(c) if cur is None else field.sub(cur, c)
    return out


def s_polynomial(f: Poly, g: Poly) -> Poly:
    fm, gm = f.monic(), g.monic()
    terms = _spoly_terms((fm.leading()[0], fm.terms), (gm.leading()[0], gm.terms), f.ring.field)
    return Poly(f.ring, terms)


class _PairQueue:
    """Critical pairs (i, j), i < j, of a growing basis, popped lowest lcm
    first (the normal strategy) and filtered by Buchberger's two criteria as
    they are popped: coprime leads, and the chain criterion, which skips
    (i, j) when some other lead k divides the lcm and (i, k), (j, k) have
    both been popped already."""

    __slots__ = ("order", "leads", "_heap", "_pending")

    def __init__(self, order: TermOrder):
        self.order = order
        self.leads: list[Exponents] = []
        self._heap: list = []
        self._pending: set[tuple[int, int]] = set()

    def add(self, lead: Exponents) -> None:
        """Append a basis lead and queue its pair with every earlier one."""
        new = len(self.leads)
        for k, lk in enumerate(self.leads):
            lcm = tuple(map(max, lk, lead))
            heapq.heappush(self._heap, (sum(lcm), self.order.key(lcm), k, new, lcm))
            self._pending.add((k, new))
        self.leads.append(lead)

    def next_degree(self) -> int | None:
        """The lcm degree of the next queued pair, None when none is left."""
        return self._heap[0][0] if self._heap else None

    def pop(self, degree: int | None = None):
        """The next pair (i, j, lcm) that survives both criteria, or None
        once no pair (of lcm degree `degree`, if given) is left."""
        heap, pending, leads = self._heap, self._pending, self.leads
        while heap and (degree is None or heap[0][0] == degree):
            _, _, i, j, lcm = heapq.heappop(heap)
            pending.discard((i, j))
            if lcm == tuple(map(add, leads[i], leads[j])):
                continue  # coprime leads: the S-polynomial reduces to 0
            if any(k != i and k != j and all(map(le, lk, lcm))
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, lk in enumerate(leads)):
                continue  # chain criterion
            return i, j, lcm
        return None


def buchberger(gens: list[Poly]) -> list[Poly]:
    """A (non-reduced) Groebner basis in the ring's order, one S-pair at a
    time from the pair queue, so with normal selection and the coprime and
    chain criteria: the reference the tests hold F4 to."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    field = ring.field
    G = [g.monic() for g in live]
    basis = [(g.leading()[0], g.terms) for g in G]
    pairs = _PairQueue(ring.order)
    for lead, _ in basis:
        pairs.add(lead)
    while (pair := pairs.pop()) is not None:
        i, j, _ = pair
        s_terms = _spoly_terms(basis[i], basis[j], field)
        rem = _nf_terms(s_terms, basis, ring)
        if not rem:
            continue
        lead = next(iter(rem))  # the remainder comes out in descending order
        inv = field.inv(rem[lead])
        r = Poly(ring, {e: field.mul(inv, c) for e, c in rem.items()})
        G.append(r)
        basis.append((lead, r.terms))
        pairs.add(lead)
    return G


def reduce_basis(G: list[Poly]) -> list[Poly]:
    """The unique reduced Groebner basis, in the ring's order, equivalent
    to the given basis G."""
    if not G:
        return []
    ring = G[0].ring
    order, field = ring.order, ring.field
    one = field.one
    by_lead = []
    for g in G:
        if g.is_zero():
            continue
        lead = max(g.terms, key=order.key)
        inv = field.inv(g.terms[lead])
        terms = g.terms if inv == one else {e: field.mul(inv, c) for e, c in g.terms.items()}
        by_lead.append((order.key(lead), lead, terms))
    by_lead.sort(key=itemgetter(0))
    # a lead divisible by another comes after it, so the kept leads are the
    # minimal ones, ascending
    kept: list = []
    for _, lead, terms in by_lead:
        if not any(mono_divides(m, lead) for m, _ in kept):
            kept.append((lead, terms))
    lead_array = np.array([lead for lead, _ in kept])
    reduced = []
    for lead, terms in kept:
        tail = np.array([e for e in terms if e != lead]).reshape(len(terms) - 1, ring.nvars)
        if not (lead_array <= tail[:, None]).all(axis=2).any():
            reduced.append(Poly(ring, terms))  # no lead divides a tail term
            continue
        # canonical form: lead minus the normal form of the lead monomial
        rem = _nf_terms({lead: one}, kept, ring)
        terms = {lead: one}
        for e, c in rem.items():
            terms[e] = field.neg(c)
        reduced.append(Poly(ring, terms))
    return reduced


def reduced_groebner_from_gens(gens: list[Poly]) -> list[Poly]:
    return reduce_basis(buchberger(gens))


def _f4(ring: RingSpec, gens: list[Poly]) -> list[Poly]:
    """The reduced Groebner basis in the ring's order of the ideal of the
    non-zero homogeneous forms `gens`, one degree at a time (module
    docstring), in order of discovery. Each element is monic and lists its
    terms in descending order, and no lead divides another lead or a tail
    term."""
    field, nvars, order = ring.field, ring.nvars, ring.order
    # kept for speed: integer rows build P^2 bases over Q (s = 7 to 40) 2x faster than Fractions
    exact = field.kind == "rational"
    by_degree: dict[int, list[Poly]] = {}
    for g in gens:
        by_degree.setdefault(sum(next(iter(g.terms))), []).append(g)
    pairs = _PairQueue(order)
    leads = pairs.leads
    basis: list[tuple[int, np.ndarray, np.ndarray]] = []  # (degree, columns, values)
    out: list[Poly] = []
    while by_degree or pairs.next_degree() is not None:
        d = pairs.next_degree()
        if by_degree and (d is None or min(by_degree) < d):
            d = min(by_degree)
        batch = []
        while (pair := pairs.pop(d)) is not None:
            batch.append(pair)
        F = by_degree.pop(d, [])
        if not F and not batch:
            continue
        monos, M, col = _columns(nvars, order, d)
        # (LT G)_d, the monomials some lead divides, and for each of them
        # the first basis element whose lead does
        divides = _divides(leads, M)
        reducible = divides.any(axis=1)
        first = divides.argmax(axis=1).tolist() if leads else []
        halves: dict[tuple[int, Exponents], None] = {}
        for i, j, lcm in batch:
            for k in (i, j):
                if k != first[col[lcm]]:  # else it is the lcm's reducer, and clears to 0
                    halves[(k, tuple(map(sub, lcm, leads[k])))] = None
        B = np.zeros((len(F) + len(halves), len(monos)), dtype=object if exact else np.int64)
        for r, g in enumerate(F):
            B[r, [col[e] for e in g.terms]] = list(g.terms.values())
        if exact:
            B[:len(F)] = integer_rows(B[:len(F)])
        for r, (k, q) in enumerate(halves, len(F)):
            e, cols, vals = basis[k]
            B[r, _shift(nvars, order, e, q)[cols]] = vals
        # each reducer clears its column with one rank-1 update, highest monomial
        # (lowest column) first; over F_p every product is below p^2 < 2^62, and
        # over Q a row becomes lead * row - entry * reducer, divided by its content
        for c in np.flatnonzero(reducible).tolist():
            hit = B[:, c].nonzero()[0]
            if not hit.size:
                continue
            k = first[c]
            e, cols, vals = basis[k]
            live = hit[:, None]
            tgt = _shift(nvars, order, e, tuple(map(sub, monos[c], leads[k])))[cols]
            entries = B[hit, c, None]
            if exact:
                B[hit] *= vals[0]
            B[live, tgt] = field.reduce(B[live, tgt] - entries * vals)
            if exact:
                B[hit] = primitive_rows(B[hit])
        free = np.flatnonzero(~reducible)
        if not free.size:
            continue
        R, pivots = _echelon(B[:, free], field)
        R = R[:len(pivots)]
        standard = [monos[j] for j in free.tolist()]
        # over Q stored as primitive integer rows, the lead positive
        for row, stored in zip(R, integer_rows(R) if exact else R):
            nz = stored.nonzero()[0]
            basis.append((d, free[nz], stored[nz]))
            pairs.add(standard[nz[0]])
            out.append(_form(ring, standard, row))
    return out


class Ideal:
    """Homogeneous ideal: generator list plus, each built on first use, its
    one reduced Groebner basis, in the ring's order, that basis's prepared
    form and the graded quotient R/I; the Hilbert series once known; and
    what intersections read of I_d^⊥ (`_complement`) beyond the quotient's
    normal forms: the closed-form rows of a point ideal, or the parts of an
    intersection result."""

    __slots__ = ("ring", "generators", "_gb", "_prepared", "_quotient",
                 "_point_rows", "_parts", "_series")

    def __init__(self, ring: RingSpec, generators, check: bool = True):
        gens = tuple(generators)
        if check:
            for g in gens:
                if not isinstance(g, Poly) or g.ring != ring:
                    raise ValueError("generator from a different ring")
                if g.is_zero():
                    raise ValueError("zero generator")
                if not g.is_homogeneous():
                    raise ValueError(f"non-homogeneous generator: {poly_to_str(g)}")
        self.ring = ring
        self.generators = gens
        self._gb: list[Poly] | None = None  # the reduced basis, ascending by lead
        self._prepared: list | None = None
        self._quotient = None  # the GradedQuotient, also a generic operand's complements
        self._point_rows: dict[int, np.ndarray] = {}  # d -> the row of a point ideal, from 0 up
        self._parts: tuple = ()  # an intersection result's: the ideals it is the meet of
        self._series = None  # HS(R/I) as (h, dim), set by hilbert_series or an intersection

    @classmethod
    def _preset(cls, ring: RingSpec, gens, basis: list[Poly] | None, series=None) -> "Ideal":
        """The ideal of `gens` with what its maker has proven preset: its
        reduced basis in the ring's order, ascending by lead, unless None,
        and its Hilbert series, unless None."""
        I = cls(ring, gens, check=False)
        I._gb, I._series = basis, series
        return I

    def groebner(self) -> list[Poly]:
        """The reduced basis in the ring's order, ascending by lead: the F4
        degree loop on the non-zero generators, run once."""
        if self._gb is None:
            key = self.ring.order.key
            gens = [g for g in self.generators if not g.is_zero()]
            self._gb = sorted(_f4(self.ring, gens), key=lambda g: key(next(iter(g.terms))))
        return self._gb

    def prepared(self) -> list:
        """The reduced GB as [(lead_exps, terms_dict), ...], the form
        `_nf_terms` divides by; the reduced GB is already monic."""
        if self._prepared is None:
            self._prepared = [(g.leading()[0], g.terms) for g in self.groebner()]
        return self._prepared

    def quotient(self) -> GradedQuotient:
        """The GradedQuotient R/I in the ring's order; it lives as long as I."""
        if self._quotient is None:
            self._quotient = GradedQuotient(self)
        return self._quotient

    def leading_monomials(self) -> list[Exponents]:
        return [lead for lead, _ in self.prepared()]

    def contains(self, f: Poly) -> bool:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if f.is_zero():
            return True
        basis = self.prepared()
        return bool(basis) and not _nf_terms(f.terms, basis, self.ring)

    def min_generator_degree(self) -> int:
        """Smallest degree among reduced-GB elements (the initial degree)."""
        gb = self.groebner()
        if not gb:
            raise ValueError("the zero ideal has no generators")
        return min(g.degree() for g in gb)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "generators": [poly_to_str(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Ideal":
        """The ideal `to_json` wrote; a wrong shape, a missing key, or a ring
        or generator list the constructors refuse is a ParseError."""
        expect_json(data, dict, "ideal")
        ring = RingSpec.from_json(json_key(data, "ring", dict, "ideal"))
        gens = [parse_poly(ring, expect_json(g, str, "a generator"))
                for g in json_key(data, "generators", list, "ideal")]
        try:
            return cls(ring, gens)
        except ValueError as exc:
            raise ParseError(f"bad ideal: {exc}") from None

    def __repr__(self):
        inside = ", ".join(poly_to_str(g) for g in self.generators[:4])
        if len(self.generators) > 4:
            inside += ", ..."
        return f"Ideal({inside})"


class GradedQuotient:
    """R/I degree by degree over its standard monomials, each degree the
    cached columns that no lead of I divides; built by `Ideal.quotient`
    and alive as long as I. Every map is read from the normal forms of
    single monomials, each reduced once against I's prepared GB; a normal
    form modulo a GB is unique, so they equal `normal_form` followed by a
    scatter. The memo `nf`, monomial -> coordinates over basis(d), keeps
    one degree, since every call works in one degree: an ideal that
    outlives its work (one a caller holds, or one kept as an
    intersection's part) keeps one degree's normal forms, not all it ever
    used.
    """

    def __init__(self, I: Ideal):
        self.ring = I.ring
        self._prepared = I.prepared()
        self._leads = np.array(I.leading_monomials(), dtype=np.int64).reshape(-1, I.ring.nvars)
        self._basis: dict[int, list[Exponents]] = {}
        self.nf: dict[Exponents, np.ndarray] = {}
        self._degree, self._index = -1, {}  # nf's degree, and basis(d) -> position

    def basis(self, d: int) -> list[Exponents]:
        """Degree-d monomials outside the leading-term ideal, descending in
        the order; empty for d < 0: the cached degree-d columns that no lead
        divides. They are the shared tuples of `_columns`, so an ideal that
        outlives its work holds no monomials of its own."""
        if d < 0:
            return []
        if d not in self._basis:
            monos, M, _ = _columns(self.ring.nvars, self.ring.order, d)
            standard = np.flatnonzero(~_divides(self._leads, M).any(axis=1)).tolist()
            self._basis[d] = [monos[j] for j in standard]
        return self._basis[d]

    def normal_forms(self, monos, d: int):
        """The map R_d -> (R/I)_d on the degree-d monomials `monos`, shape
        (len basis(d), len monos), in the field's matrix format; column k
        is the coordinates of monos[k]. On all of R_d the map's kernel is
        I_d, so its rows span the orthogonal complement of I_d."""
        fld = self.ring.field
        if self._degree != d:
            self.nf, self._degree = {}, d
            self._index = {e: k for k, e in enumerate(self.basis(d))}
        nf, index = self.nf, self._index
        out = _zeros(fld, len(monos), len(index))
        for k, e in enumerate(monos):
            if e not in nf:
                vec = nf[e] = _zeros(fld, 1, len(index))[0]
                for m, c in _nf_terms({e: fld.one}, self._prepared, self.ring).items():
                    vec[index[m]] = c
            out[k] = nf[e]
        return out.T

    def mult(self, form: Poly, d: int):
        """Multiplication by `form`: (R/I)_d -> (R/I)_{d + deg form}, shape
        (len basis(d + deg form), len basis(d)), in the field's matrix
        format; column k is the image of basis(d)[k]: the sum over the
        terms c * m of `form` of c times the normal forms of basis(d)
        shifted by m."""
        top, fld = d + form.degree(), self.ring.field
        out = _zeros(fld, len(self.basis(top)), len(self.basis(d)))
        for m, c in form.terms.items():
            N = self.normal_forms([mono_mul(b, m) for b in self.basis(d)], top)
            # a product of residues stays below 2^62; reduce it before summing
            out += fld.reduce(c * N)
        return fld.reduce(out)


def hilbert_series(I: Ideal) -> tuple[tuple[int, ...], int]:
    """(h, dim) with HS(R/I) = h(t) / (1 - t)^dim and h(1) != 0, h constant
    term first; dim is the Krull dimension of R/I. The zero ring R/(1) gives
    ((0,), 0). Kept on I, where an intersection also leaves the series it
    proved."""
    if I._series is None:
        I._series = _reduced(_numerator(I.leading_monomials()), I.ring.nvars)
    return I._series


def reduced_groebner(I: Ideal) -> list[Poly]:
    return I.groebner()


def ideal_membership(f: Poly, I: Ideal) -> bool:
    return I.contains(f)


def equal_ideals(I: Ideal, J: Ideal) -> bool:
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return I.groebner() == J.groebner()


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """I + J with the generators of I followed by those of J."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return Ideal(I.ring, I.generators + J.generators, check=False)


_GREVLEX = TermOrder(GREVLEX)


def _point_ideal(ring: RingSpec, p: tuple) -> Ideal:
    """The ideal of the one point p, with its reduced basis, its Hilbert
    series 1 / (1 - t) and its complement's rows of degree 0 and 1 preset:
    for l the last index with p_l != 0 and c = p / p_l, the basis is the
    x_k - c_k * x_l for k != l, ascending by lead, and the rows are (1)
    and c. Grevlex, lex and the elimination orders all rank
    x_0 > ... > x_n in degree 1, so the basis is the same in each."""
    f = ring.field
    l = max(k for k, x in enumerate(p) if not f.is_zero(x))
    inv, n = f.inv(p[l]), ring.nvars
    c = [f.mul(x, inv) for x in p]
    gens = [Poly(ring, {_unit(n, k): f.one, _unit(n, l): f.neg(c[k])})
            for k in reversed(range(n)) if k != l]
    I = Ideal._preset(ring, gens, gens, ((1,), 1))
    I._point_rows[0], I._point_rows[1] = f.array([[f.one]]), f.array([c])
    return I


def _complement(I: Ideal, d: int) -> np.ndarray:
    """Rows spanning the orthogonal complement of I_d, over the degree-d
    monomials in descending grevlex order: for an intersection result or
    a node of the points oracle its parts' complements stacked; for the
    ideal of a point c, made by `_point_ideal` with its rows of degree 0
    and 1, the one row (c^m)_m, the normal form modulo I_d, built from the
    row of degree d - 1 as c_v times it scattered through "times x_v";
    for any other ideal the matrix of its normal forms, from
    `I.quotient()`."""
    if I._parts:
        return np.concatenate([_complement(X, d) for X in I._parts])
    rows = I._point_rows
    field, nvars = I.ring.field, I.ring.nvars
    if not rows:
        return I.quotient().normal_forms(_columns(nvars, _GREVLEX, d)[0], d)
    c = rows[1][0]
    for e in range(len(rows), d + 1):
        below, row = rows[e - 1][0], _zeros(field, 1, len(_columns(nvars, _GREVLEX, e)[0]))
        for v in range(nvars):
            row[0, _shift(nvars, _GREVLEX, e - 1, _unit(nvars, v))] = field.reduce(c[v] * below)
        rows[e] = row
    return rows[d]


def _meet_in_degree(field, A: np.ndarray, B: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """The reduced echelon basis, and its pivots, of the intersection of
    two subspaces of k^n given by rows spanning their complements A and B:
    the kernel of A and B stacked, with the columns reversed for the
    elimination so that the result reads off in reduced echelon form
    (module docstring)."""
    K, free = _kernel(field, np.concatenate([A, B])[:, ::-1], n)
    return K[::-1, ::-1], (n - 1 - free[::-1]).tolist()


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J for homogeneous I and J (as `Ideal` requires) by linear algebra
    in k[x], one degree d at a time from the larger initial degree:
    (I ∩ J)_d is `_meet_in_degree` of the complements of I_d and J_d. The
    loop stops once the leads found have the Hilbert series
    HS(R/I) + HS(R/J) - HS(R/(I+J)), which proves them the leads of I ∩ J
    (module docstring); every dimension of (I ∩ J)_d must match that
    series, else VerificationError. The generators are the reduced grevlex
    basis, ascending by lead, also the result's basis in a grevlex ring;
    the result keeps its parts, whose complements stack to its own, and
    the series for the next intersection. dim I_d and dim J_d, the
    initial degrees and whether an operand is 0 come from the operands'
    series, so either may also be a node of the points oracle
    (`_series_meet`), whose sums are Artinian."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    field, nvars = ring.field, ring.nvars

    def check(degrees) -> None:
        for e in degrees:
            if dims[e] != comb(nvars - 1 + e, nvars - 1) - _coefficient(target, nvars, e):
                raise VerificationError(
                    f"intersection: dim (I ∩ J)_{e} is {dims[e]}, not what the Hilbert series "
                    "of I, J and I + J give; this is a bug")

    both = []
    for X in (I, J):
        both.append(hilbert_series(X))
        if both[-1] == ((1,), nvars):  # HF(R/X) is dim R_d in every degree: X = 0
            return X
    bound = min(dim for _, dim in both)
    sides = _sides(both, nvars)
    # below the larger initial degree one side is 0, and so is (I ∩ J)_e
    d = max(_initial_degree(hs, nvars) for hs in both)
    target = None
    dims = [0] * d  # dims[e] = dim (I ∩ J)_e
    found: list[Poly] = []
    leads: list[Exponents] = []
    while True:
        monos, M, _ = _columns(nvars, _GREVLEX, d)
        K, pivots = _meet_in_degree(field, _complement(I, d), _complement(J, d), len(monos))
        dims.append(len(K))
        new = np.flatnonzero(~_divides(leads, M[pivots]).any(axis=1)).tolist()
        leads += [monos[pivots[r]] for r in new]
        found += [_form(ring, monos, K[r]) for r in reversed(new)]
        if target is None:
            if not _sum_hf(both, nvars, d, dims[d]):  # (I + J)_e = R_e from here on
                target = _meet_series(both, dims, nvars)
            # a node has no generators to sum, and its sums are Artinian
            elif new and not isinstance(I, _Meet) and not isinstance(J, _Meet) and \
                    _could_be_complete(_reduced(_minus(sides, _numerator(leads)), nvars), bound):
                h, dim = hilbert_series(ideal_sum(I, J))
                target = _minus(sides, _times_one_minus_t(h, nvars - dim))
            if target is not None:
                check(range(d + 1))
                new = True
        else:
            check((d,))
        # the leads' count in degree d + 1 is a cheap necessary condition
        M = _columns(nvars, _GREVLEX, d + 1)[1]
        if target is not None and new and \
                _divides(leads, M).any(axis=1).sum() == \
                len(M) - _coefficient(target, nvars, d + 1) and \
                _reduced(_numerator(leads), nvars) == _reduced(target, nvars):
            break
        d += 1
    # the meet's columns are grevlex, so `found` is the ring's basis only there
    result = Ideal._preset(ring, found, found if ring.order == _GREVLEX else None,
                           _reduced(target, nvars))
    result._parts = (I._parts or (I,)) + (J._parts or (J,))
    return result


def _initial_degree(series: tuple, nvars: int) -> int:
    """The least d with I_d != 0, that is HF(R/I)_d < dim R_d, for a
    non-zero I with HS(R/I) = `series`."""
    d = 0
    while _coefficient(*series, d) == comb(nvars - 1 + d, nvars - 1):
        d += 1
    return d


def _sides(both: list, nvars: int) -> list[int]:
    """HS(R/I) + HS(R/J) times (1 - t)^nvars, for `both` their two series."""
    K_I, K_J = (_times_one_minus_t(h, nvars - dim) for h, dim in both)
    return _minus(K_I, [-c for c in K_J])


def _sum_hf(both: list, nvars: int, e: int, meet: int) -> int:
    """HF(R/(I+J))_e = HF(R/I)_e + HF(R/J)_e - dim R_e + dim (I ∩ J)_e, for
    `both` the series of R/I and R/J and `meet` = dim (I ∩ J)_e."""
    return sum(_coefficient(*hs, e) for hs in both) - comb(nvars - 1 + e, nvars - 1) + meet


def _meet_series(both: list, dims: list[int], nvars: int) -> list[int]:
    """HS(R/(I ∩ J)) times (1 - t)^nvars once (I + J)_e = R_e for every
    e >= d = len(dims) - 1, by the exact sequence: HS(R/I) + HS(R/J) less
    HS(R/(I+J)), the polynomial of the `_sum_hf` of degrees 0 to d, where
    dims[e] = dim (I ∩ J)_e."""
    return _minus(_sides(both, nvars), _times_one_minus_t(
        [_sum_hf(both, nvars, e, meet) for e, meet in enumerate(dims)], nvars))


class _Meet:
    """A node of the points oracle's tree below the root: the ideal of a
    set of points known only by what the next meet reads of it, its parts
    (the point ideals whose complements stack to its own, `_complement`)
    and its proven Hilbert series (`hilbert_series`). It is no `Ideal`,
    which with no generators would be the zero ideal, and no public
    function returns one."""

    __slots__ = ("ring", "_parts", "_series")

    def __init__(self, ring: RingSpec, parts: tuple):
        self.ring = ring
        self._parts = parts
        self._series = None


def _series_meet(I, J) -> _Meet:
    """I ∩ J for the ideals (or nodes) of two disjoint sets of distinct
    points, of a and b points, by its Hilbert series alone: no kernel, no
    leads, no basis. From the larger initial degree, HF(R/(I ∩ J))_d is the
    rank of the meet's complement, I_d^⊥ + J_d^⊥ stacked, so
    dim (I ∩ J)_d is dim R_d less it. V(I + J) is empty, so HF(R/(I+J))
    reaches 0, by degree a + b - 1 at the latest, where HF of the a + b
    points is a + b, and (I + J)_e = R_e from there on: the series is
    `_meet_series` of the degrees met."""
    ring = I.ring
    field, nvars = ring.field, ring.nvars
    both = [hilbert_series(X) for X in (I, J)]
    meet = _Meet(ring, (I._parts or (I,)) + (J._parts or (J,)))
    start = max(_initial_degree(hs, nvars) for hs in both)
    dims = [0] * start
    for d in range(start, sum(both[0][0]) + sum(both[1][0])):
        n = comb(nvars - 1 + d, nvars - 1)
        dims.append(n - rank(field, _complement(meet, d), n))
        if not _sum_hf(both, nvars, d, dims[d]):
            meet._series = _reduced(_meet_series(both, dims, nvars), nvars)
            return meet
    raise VerificationError("points oracle: the sum of two disjoint point sets' ideals "
                            "is not Artinian by their regularity; this is a bug")


def _could_be_complete(series: tuple, bound: int) -> bool:
    """Whether h(t) / (1 - t)^dim, as `series` = (h, dim), can be the
    Hilbert series of R/(I + J), a quotient of R/I and of R/J of dimension
    at most `bound`: non-negative coefficients, so a positive h(1) when
    dim > 0."""
    h, dim = series
    return all(c >= 0 for c in h) if dim == 0 else sum(h) > 0 and dim <= bound


def _intersect_all(ideals: list[Ideal]) -> Ideal:
    """The intersection of a non-empty list of ideals in a balanced tree:
    each level intersects neighbours pairwise and carries an odd last one
    over, so len(ideals) - 1 `ideal_intersection` calls in all, and below
    the root no node meets more than half of the list."""
    level = list(ideals)
    while len(level) > 1:
        paired = [ideal_intersection(a, b) for a, b in zip(level[::2], level[1::2])]
        level = paired + level[2 * len(paired):]
    return level[0]


def _exact_divide(f: Poly, g: Poly) -> Poly:
    r, qs = normal_form(f, [g], with_quotients=True)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return qs[0]


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {f : f*J in I}, via (I : g) = (I ∩ (g)) / g over generators."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    if not J.generators:
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    colons = []
    for g in J.generators:
        if I.contains(g):
            continue  # (I : g) is the unit ideal
        meet = ideal_intersection(I, Ideal(ring, [g], check=False))
        colons.append(Ideal(ring, [_exact_divide(f, g) for f in meet.groebner()], check=False))
    if not colons:
        return Ideal(ring, [ring.one()], check=False)  # J subset of I
    return _intersect_all(colons)


def leading_term_ideal(I: Ideal) -> Ideal:
    """in(I) in the ring's order, generated by the leads of I's reduced
    basis, ascending; they are its minimal generators."""
    one = I.ring.field.one
    return Ideal(I.ring, [Poly(I.ring, {e: one}) for e in I.leading_monomials()], check=False)


def is_groebner_basis(G: list[Poly]) -> bool:
    """Buchberger certificate in the ring's order: every S-polynomial
    reduces to zero."""
    live = [g for g in G if not g.is_zero()]
    if len(live) <= 1:
        return True
    for j in range(len(live)):
        for i in range(j):
            if not normal_form(s_polynomial(live[i], live[j]), live).is_zero():
                return False
    return True
