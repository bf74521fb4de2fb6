"""Division algorithm, Buchberger's algorithm, and the ideal algebra.

Reduction keeps the working polynomial in a dict and drives it with a lazy
max-heap of monomials: corrections only ever touch monomials strictly below
the one being cancelled, so each heap entry is popped at most once with its
final coefficient. Among divisors of the current lead, the one with the
smallest index in the basis wins, which makes division deterministic.

`Ideal.groebner` works degree by degree while it can (Lazard 1983). Let
D be the top of the lowest run of consecutive generator degrees. For each
d up to D it row-reduces I_d, spanned by the degree-d generators and the
variables times the basis of I_{d-1}, with columns in descending order.
The pivots are the leads of in(I)_d and the other columns are standard
monomials, so each row whose pivot no lower-degree lead divides is a
reduced-GB element. These form a D-truncated basis, so Buchberger, given
them and the generators above D, skips every pair whose lcm has degree
<= D: such S-polynomials reduce to zero. Non-homogeneous generators go
straight to Buchberger.

Ideal intersections and colons go through the auxiliary-variable
elimination trick (t*I + (1-t)*J, eliminate t) with t prepended as the
greatest variable under a block order.
"""
from __future__ import annotations

import heapq
from operator import add, itemgetter, le, neg, sub

import numpy as np

from .field import rref
from .ring import (
    ELIM,
    GREVLEX,
    Exponents,
    Poly,
    RingSpec,
    TermOrder,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
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


def _nf_terms(terms: dict, basis: list, order: TermOrder, field, quotients=None):
    """Normal form of a term dict against basis = [(lead_exps, terms_dict), ...].

    Basis polynomials must be monic with `lead_exps` maximal under `order`.
    If `quotients` is a list of dicts it accumulates the cofactors. The
    remainder's keys come out in descending order, so its first key is its
    lead. Over F_p the working coefficients are left unreduced until popped.
    """
    key = _heap_key(order)
    p = field.p if field.kind == "prime" else 0
    leads = [lead for lead, _ in basis]
    work = dict(terms)
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if p:
            c %= p
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


def normal_form(f: Poly, G: list[Poly], order: TermOrder | None = None,
                with_quotients: bool = False):
    """Remainder of f on division by G; no remainder term is divisible by a
    lead of G and f - remainder lies in (G)."""
    order = order or f.ring.order
    field = f.ring.field
    live = [g for g in G if not g.is_zero()]
    if not live:
        return (f, []) if with_quotients else f
    monic = [g.monic(order) for g in live]
    basis = [(g.leading(order)[0], g.terms) for g in monic]
    quotients = [{} for _ in monic] if with_quotients else None
    rem = _nf_terms(f.terms, basis, order, field, quotients)
    r = Poly(f.ring, rem)
    if not with_quotients:
        return r
    # cofactors are against the monic basis; rescale back to the given G
    qs = []
    for g, mono_g, qd in zip(live, monic, quotients):
        _, lc = g.leading(order)
        scale = field.inv(lc)
        qs.append(Poly(f.ring, {e: field.mul(c, scale) for e, c in qd.items()}))
    return r, qs


def _spoly_terms(gi, gj, order, field):
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


def s_polynomial(f: Poly, g: Poly, order: TermOrder | None = None) -> Poly:
    order = order or f.ring.order
    field = f.ring.field
    fm, gm = f.monic(order), g.monic(order)
    terms = _spoly_terms(
        (fm.leading(order)[0], fm.terms), (gm.leading(order)[0], gm.terms), order, field
    )
    return Poly(f.ring, terms)


def buchberger(gens: list[Poly], order: TermOrder | None = None,
               complete_through: int = -1) -> list[Poly]:
    """A (non-reduced) Groebner basis, normal pair selection, coprime-lcm and
    chain criteria applied.

    If the gens hold a basis truncated at degree `complete_through`, every
    pair whose lcm has at most that degree reduces to zero and is skipped.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    order = order or ring.order
    field = ring.field
    G = [g.monic(order) for g in live]
    basis = [(g.leading(order)[0], g.terms) for g in G]
    leads = [lead for lead, _ in basis]

    heap: list = []
    pending: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int):
        lcm = tuple(map(max, leads[i], leads[j]))
        if sum(lcm) <= complete_through:
            return  # never pending, so it counts as done for the chain criterion
        heapq.heappush(heap, (sum(lcm), order.key(lcm), i, j, lcm))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        if lcm == tuple(map(add, leads[i], leads[j])):  # coprime leads: S-pair reduces to 0
            continue
        chain = False
        for k, lk in enumerate(leads):
            if k == i or k == j or not all(map(le, lk, lcm)):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chain = True
                break
        if chain:
            continue
        s_terms = _spoly_terms(basis[i], basis[j], order, field)
        rem = _nf_terms(s_terms, basis, order, field)
        if not rem:
            continue
        lead = next(iter(rem))  # the remainder comes out in descending order
        inv = field.inv(rem[lead])
        r = Poly(ring, {e: field.mul(inv, c) for e, c in rem.items()})
        G.append(r)
        basis.append((lead, r.terms))
        leads.append(lead)
        new = len(G) - 1
        for k in range(new):
            push_pair(k, new)
    return G


def reduce_basis(G: list[Poly], order: TermOrder | None = None) -> list[Poly]:
    """The unique reduced Groebner basis equivalent to the given basis G."""
    if not G:
        return []
    ring = G[0].ring
    order = order or ring.order
    field = ring.field
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
        rem = _nf_terms({lead: one}, kept, order, field)
        terms = {lead: one}
        for e, c in rem.items():
            terms[e] = field.neg(c)
        reduced.append(Poly(ring, terms))
    return reduced


def reduced_groebner_from_gens(gens: list[Poly], order: TermOrder | None = None) -> list[Poly]:
    return reduce_basis(buchberger(gens, order), order)


def _truncated_basis(ring: RingSpec, by_degree: dict, top: int,
                     order: TermOrder) -> list[Poly]:
    """Reduced-GB elements of degree <= top of the homogeneous ideal I
    generated by by_degree[d] (a list of forms of degree d), found by
    row-reducing I_d degree by degree."""
    field, nvars = ring.field, ring.nvars
    found: list[Poly] = []
    B = field.array(np.zeros((0, 0), dtype=np.int64))  # basis of I_{d-1}
    prev_monos: list = []
    prev_leads: set = set()
    for d in range(min(by_degree), top + 1):
        monos = monomials_of_degree(nvars, d, order)
        col = {e: j for j, e in enumerate(monos)}
        F = by_degree.get(d, [])
        A = field.array(np.zeros((len(F) + nvars * len(B), len(monos)), dtype=np.int64))
        for i, g in enumerate(F):
            for e, c in g.terms.items():
                A[i, col[e]] = c
        r = len(F)
        for v in range(nvars):
            # x_v times each row of B: column m goes to column x_v * m
            shift = [col[e[:v] + (e[v] + 1,) + e[v + 1:]] for e in prev_monos]
            A[r:r + len(B), shift] = B
            r += len(B)
        R, pivots = rref(field, A)
        leads = set()
        for row, c in zip(R, pivots):
            lead = monos[c]
            leads.add(lead)
            if not any(k and lead[:v] + (k - 1,) + lead[v + 1:] in prev_leads
                       for v, k in enumerate(lead)):
                found.append(Poly(ring, {monos[j]: x for j, x in enumerate(row) if x}))
        B = field.array(R[:len(pivots)])
        prev_monos, prev_leads = monos, leads
    return found


class Ideal:
    """Homogeneous ideal: generator list plus cached reduced Groebner bases,
    one per term order actually used, each with its prepared form, and the
    graded quotient R/I built on first use."""

    __slots__ = ("ring", "generators", "_gb", "_prepared", "_quotient")

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
        self._gb: dict[str, list[Poly]] = {}
        self._prepared: dict[str, list] = {}
        self._quotient = None

    def groebner(self, order: TermOrder | None = None) -> list[Poly]:
        order = order or self.ring.order
        key = order.name()
        gb = self._gb.get(key)
        if gb is None:
            gb = self._compute_groebner(order)
            self._gb[key] = gb
        return gb

    def _compute_groebner(self, order: TermOrder) -> list[Poly]:
        """The degree-wise stage through D, the top of the lowest run of
        consecutive generator degrees, then Buchberger above D."""
        gens = [g for g in self.generators if not g.is_zero()]
        if not gens or not all(g.is_homogeneous() for g in gens):
            return reduced_groebner_from_gens(gens, order)
        by_degree: dict[int, list[Poly]] = {}
        for g in gens:
            by_degree.setdefault(g.degree(), []).append(g)
        top = min(by_degree)
        while top + 1 in by_degree:
            top += 1
        low = _truncated_basis(self.ring, by_degree, top, order)
        high = [g for g in gens if g.degree() > top]
        return reduce_basis(buchberger(low + high, order, complete_through=top), order)

    def prepared(self, order: TermOrder | None = None) -> list:
        """The reduced GB as [(lead_exps, terms_dict), ...], the form
        `_nf_terms` divides by; the reduced GB is already monic."""
        order = order or self.ring.order
        key = order.name()
        got = self._prepared.get(key)
        if got is None:
            got = [(g.leading(order)[0], g.terms) for g in self.groebner(order)]
            self._prepared[key] = got
        return got

    def quotient(self):
        """The GradedQuotient R/I in the ring's order; it lives as long as I."""
        if self._quotient is None:
            from .hilbert import GradedQuotient  # hilbert imports this module
            self._quotient = GradedQuotient(self)
        return self._quotient

    def leading_monomials(self, order: TermOrder | None = None) -> list[Exponents]:
        return [lead for lead, _ in self.prepared(order)]

    def contains(self, f: Poly, order: TermOrder | None = None) -> bool:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if f.is_zero():
            return True
        order = order or self.ring.order
        basis = self.prepared(order)
        return bool(basis) and not _nf_terms(f.terms, basis, order, self.ring.field)

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
        ring = RingSpec.from_json(data["ring"])
        gens = [parse_poly(ring, s) for s in data["generators"]]
        return cls(ring, gens)

    def __repr__(self):
        inside = ", ".join(poly_to_str(g) for g in self.generators[:4])
        if len(self.generators) > 4:
            inside += ", ..."
        return f"Ideal({inside})"


def reduced_groebner(I: Ideal, order: TermOrder | None = None) -> list[Poly]:
    return I.groebner(order)


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


def _extend_ring(ring: RingSpec) -> RingSpec:
    return RingSpec(ring.nvars + 1, ring.field, TermOrder(ELIM, 1))


def _shift_up(ext: RingSpec, f: Poly, t_degree: int = 0) -> Poly:
    return Poly(ext, {(t_degree,) + e: c for e, c in f.terms.items()})


def _project_down(ring: RingSpec, f: Poly) -> Poly:
    return Poly(ring, {e[1:]: c for e, c in f.terms.items()})


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via t*I + (1-t)*J and elimination of t."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if not I.generators:
        return I
    if not J.generators:
        return J
    ext = _extend_ring(ring)
    t = ext.variable(0)
    one = ext.one()
    gens = [t * _shift_up(ext, f) for f in I.groebner()]
    gens += [(one - t) * _shift_up(ext, g) for g in J.groebner()]
    gb = reduced_groebner_from_gens(gens, ext.order)
    kept = [g for g in gb if g.leading(ext.order)[0][0] == 0]
    projected = [_project_down(ring, g) for g in kept]
    result = Ideal(ring, projected)  # re-verifies homogeneity
    if ring.order.kind == GREVLEX:
        # elimination theorem: the t-free part is already the reduced
        # grevlex basis of the contraction
        result._gb[ring.order.name()] = projected
    return result


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
    result: Ideal | None = None
    for g in J.generators:
        if I.contains(g):
            continue  # (I : g) is the unit ideal
        meet = ideal_intersection(I, Ideal(ring, [g], check=False))
        colon = Ideal(ring, [_exact_divide(f, g) for f in meet.groebner()], check=False)
        result = colon if result is None else ideal_intersection(result, colon)
    if result is None:
        return Ideal(ring, [ring.one()], check=False)  # J subset of I
    return result


def leading_term_ideal(I: Ideal, order: TermOrder | None = None,
                       source: str = "gb") -> Ideal:
    """Monomial ideal of leading monomials, from the reduced GB or from the
    generators as given."""
    order = order or I.ring.order
    if source == "gb":
        polys = I.groebner(order)
    elif source == "given_generators":
        polys = list(I.generators)
    else:
        raise ValueError(f"unknown source {source!r}")
    if not polys:
        return Ideal(I.ring, [], check=False)
    leads = sorted({g.leading(order)[0] for g in polys}, key=order.key)
    minimal: list[Exponents] = []
    for e in leads:
        if not any(mono_divides(m, e) for m in minimal):
            minimal.append(e)
    field = I.ring.field
    return Ideal(I.ring, [Poly(I.ring, {e: field.one}) for e in minimal], check=False)


def is_groebner_basis(G: list[Poly], order: TermOrder | None = None) -> bool:
    """Buchberger certificate: every S-polynomial reduces to zero."""
    live = [g for g in G if not g.is_zero()]
    if len(live) <= 1:
        return True
    order = order or live[0].ring.order
    for j in range(len(live)):
        for i in range(j):
            if not normal_form(s_polynomial(live[i], live[j], order), live, order).is_zero():
                return False
    return True
