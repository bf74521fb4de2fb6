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
`Ideal.groebner` only sorts it by lead. Non-homogeneous generators go to
Buchberger, which takes one pair at a time from the same queue, and then
to `reduce_basis`.

Over Q the loop creates no Fraction. The rows are primitive vectors of
Python ints (`gradus.field.integer_rows`), each basis element is kept as
one with a positive lead entry L, and a reducer clears entry b of a row
as L*row - b*reducer, which is then divided by its content. The final
RREF goes through `gradus.field.rref`, whose monic Fraction rows are the
new elements' coefficients and are stored back as integer rows.

Ideal intersections and colons go through the auxiliary-variable
elimination trick (t*I + (1-t)*J, eliminate t) with t prepended as the
greatest variable under a block order.
"""
from __future__ import annotations

import heapq
from functools import lru_cache
from operator import add, itemgetter, le, neg, sub

import numpy as np

from .field import integer_rows, primitive_rows, rref
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


def buchberger(gens: list[Poly], order: TermOrder | None = None) -> list[Poly]:
    """A (non-reduced) Groebner basis, one S-pair at a time from the pair
    queue, so with normal selection and the coprime and chain criteria."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return []
    ring = live[0].ring
    order = order or ring.order
    field = ring.field
    G = [g.monic(order) for g in live]
    basis = [(g.leading(order)[0], g.terms) for g in G]
    pairs = _PairQueue(order)
    for lead, _ in basis:
        pairs.add(lead)
    while (pair := pairs.pop()) is not None:
        i, j, _ = pair
        s_terms = _spoly_terms(basis[i], basis[j], order, field)
        rem = _nf_terms(s_terms, basis, order, field)
        if not rem:
            continue
        lead = next(iter(rem))  # the remainder comes out in descending order
        inv = field.inv(rem[lead])
        r = Poly(ring, {e: field.mul(inv, c) for e, c in rem.items()})
        G.append(r)
        basis.append((lead, r.terms))
        pairs.add(lead)
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


def _frozen(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False  # cached, so shared by every caller
    return A


@lru_cache(maxsize=8192)
def _columns(nvars: int, order: TermOrder, d: int):
    """The degree-d monomials in descending order, as a tuple, an array and
    a column index; callers must not mutate the index."""
    monos = tuple(monomials_of_degree(nvars, d, order))
    return monos, _frozen(np.array(monos, dtype=np.int64).reshape(len(monos), nvars)), \
        {e: j for j, e in enumerate(monos)}


@lru_cache(maxsize=8192)
def _shift(nvars: int, order: TermOrder, d: int, q: Exponents) -> np.ndarray:
    """Column map of "times q" from degree d to degree d + deg q: entry j is
    the column of q times the j-th degree-d monomial."""
    col = _columns(nvars, order, d + sum(q))[2]
    return _frozen(np.array([col[tuple(map(add, e, q))] for e in _columns(nvars, order, d)[0]],
                            dtype=np.intp))


def _f4(ring: RingSpec, gens: list[Poly], order: TermOrder) -> list[Poly]:
    """The reduced Groebner basis of the ideal of the homogeneous forms
    `gens`, one degree at a time (module docstring), in order of discovery.
    Each element is monic and lists its terms in descending order, and no
    lead divides another lead or a tail term."""
    field, nvars = ring.field, ring.nvars
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
        monos, M, col = _columns(nvars, order, d)
        batch = []
        while (pair := pairs.pop(d)) is not None:
            batch.append(pair)
        F = by_degree.pop(d, [])
        if not F and not batch:
            continue
        # (LT G)_d, the monomials some lead divides, and for each of them
        # the first basis element whose lead does
        divides = (np.array(leads, dtype=np.int64).reshape(-1, nvars) <= M[:, None, :]).all(axis=2)
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
            live = np.ix_(hit, _shift(nvars, order, e, tuple(map(sub, monos[c], leads[k])))[cols])
            entries = B[hit, c]
            if exact:
                B[hit] *= vals[0]
            B[live] = field.reduce(B[live] - np.outer(entries, vals))
            if exact:
                B[hit] = primitive_rows(B[hit])
        free = np.flatnonzero(~reducible)
        if not free.size:
            continue
        R, pivots = rref(field, B[:, free])
        R = R[:len(pivots)]
        rows = np.array(R, dtype=B.dtype).reshape(len(R), free.size)
        if exact:  # stored as primitive integer rows, the lead positive
            rows = integer_rows(rows)
        for row, coeffs in zip(rows, R):
            nz = row.nonzero()[0]
            basis.append((d, free[nz], row[nz]))
            pairs.add(monos[free[nz[0]]])
            out.append(Poly(ring, {monos[j]: coeffs[i] for i, j in zip(nz.tolist(), free[nz].tolist())}))
    return out


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
        """The F4 degree loop on homogeneous generators, its reduced basis
        sorted by lead, ascending; Buchberger then `reduce_basis` on any
        others."""
        gens = [g for g in self.generators if not g.is_zero()]
        if not gens or not all(g.is_homogeneous() for g in gens):
            return reduced_groebner_from_gens(gens, order)
        key = order.key
        return sorted(_f4(self.ring, gens, order), key=lambda g: key(next(iter(g.terms))))

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
