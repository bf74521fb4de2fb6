"""Graded Betti numbers via Koszul homology, and diagram rendering.

beta_{i,j}(R/I) = dim_k H_i(K ox R/I)_j where K is the Koszul complex on
the variables. Each internal degree j needs only the graded pieces of R/I
in degrees j-i, realized by standard monomials, and the multiplication-by-
variable maps between them; every entry is one or two rank computations
over the coefficient field.

The ranks run on the smallest ring with the same table: while x_last is a
non-zero divisor, R/I is replaced by its hyperplane section x_last = 0 in
one variable fewer, which has the same Betti numbers (Eisenbud, The
Geometry of Syzygies, ch. 4). The table is computed up to a proven bound
above which every beta vanishes, and records which rule gave that bound.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from itertools import combinations
from math import comb

from .field import _zeros, rank
from .groebner import GradedQuotient, Ideal
from .hilbert import is_artinian, socle_degree
from .ring import GREVLEX, Poly, RingSpec, mono_lcm


@dataclass(frozen=True)
class BettiCertificate:
    """Proof that beta_{i,j}(R/I) = 0 for every j > bound.

    rule "artinian": R/I is Artinian, so j <= socle degree + nvars.
    rule "section": after `sections` hyperplane sections the quotient is
    Artinian, and the same bound holds there.
    rule "taylor": x_last is a zero divisor or the order is not grevlex;
    beta_{i,j}(R/I) <= beta_{i,j}(R/in(I)) by upper semicontinuity, and the
    Taylor resolution of in(I) ends at the degree of the lcm of its minimal
    generators.
    """

    rule: str
    bound: int
    sections: int


@dataclass
class BettiTable:
    """Map (homological index i, internal degree j) -> beta_{i,j} > 0."""

    entries: dict = dc_field(default_factory=dict)
    nvars: int = 0
    max_degree: int = 0
    truncated: bool = False
    certificate: BettiCertificate | None = None

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def column_total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        top = max((i for i, _ in self.entries), default=0)
        return [self.column_total(i) for i in range(top + 1)]

    def to_json(self) -> dict:
        cells = [
            {"i": i, "j": j, "value": v}
            for (i, j), v in sorted(self.entries.items())
        ]
        cert = asdict(self.certificate) if self.certificate else None
        return {"betti": cells, "truncated": self.truncated, "max_degree": self.max_degree,
                "certificate": cert}


def _koszul_rank(Q: GradedQuotient, blocks: dict, i: int, j: int) -> int:
    """Rank of the Koszul differential (K_i ox M)_j -> (K_{i-1} ox M)_j;
    blocks[d][v] is multiplication by x_v from degree d."""
    m = Q.ring.nvars
    if i < 1 or i > m:
        return 0
    src_sets = list(combinations(range(m), i))
    dst_sets = list(combinations(range(m), i - 1))
    src_basis = Q.basis(j - i)
    dst_basis = Q.basis(j - i + 1)
    if not src_basis or not dst_basis:
        return 0
    dst_pos = {S: k for k, S in enumerate(dst_sets)}
    rows = len(dst_sets) * len(dst_basis)
    cols = len(src_sets) * len(src_basis)
    fld = Q.ring.field
    D = _zeros(fld, rows, cols)
    for sk, S in enumerate(src_sets):
        c0 = sk * len(src_basis)
        for r, v in enumerate(S):
            T = S[:r] + S[r + 1:]
            r0 = dst_pos[T] * len(dst_basis)
            block = blocks[j - i][v]
            if r % 2 == 0:
                D[r0:r0 + len(dst_basis), c0:c0 + len(src_basis)] += block
            else:
                D[r0:r0 + len(dst_basis), c0:c0 + len(src_basis)] -= block
    return rank(fld, D)


def _section(I: Ideal) -> Ideal | None:
    """(I + x_last)/(x_last) in one variable fewer when x_last is a non-zero
    divisor on R/I, else None.

    In grevlex, x_last is a non-zero divisor on R/I iff no lead of the
    reduced GB involves it (Bayer-Stillman), and then setting x_last = 0 in
    that GB keeps every lead and gives the reduced GB of the section, which
    is preset so no F4 runs.
    """
    ring = I.ring
    if ring.order.kind != GREVLEX or ring.nvars < 2:
        return None
    if any(lead[-1] for lead in I.leading_monomials()):
        return None
    sub = RingSpec(ring.nvars - 1, ring.field, ring.order)
    gb = [Poly(sub, {e[:-1]: c for e, c in g.terms.items() if not e[-1]})
          for g in I.groebner()]
    return Ideal._preset(sub, gb, gb)


def _certified(I: Ideal) -> tuple[Ideal, BettiCertificate]:
    """The last of the repeated hyperplane sections of I, whose Betti table
    over its own ring is that of R/I, and the proven bound for it."""
    sections = 0
    while (J := _section(I)) is not None:
        I, sections = J, sections + 1
    if is_artinian(I):
        bound = socle_degree(I).socle_degree + I.ring.nvars
        return I, BettiCertificate("section" if sections else "artinian", bound, sections)
    lcm = (0,) * I.ring.nvars
    for lead in I.leading_monomials():
        lcm = mono_lcm(lcm, lead)
    return I, BettiCertificate("taylor", sum(lcm), sections)


def graded_betti(I: Ideal, max_degree: int | None = None) -> BettiTable:
    """All beta_{i,j}(R/I) with j <= max_degree, by default up to the proven
    bound of the table's certificate; truncated iff max_degree < bound, that
    is, iff the table is not proven complete (it may still be)."""
    if I.contains(I.ring.one()):
        raise ValueError("graded_betti needs a proper ideal")
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    J, cert = _certified(I)
    if max_degree is None:
        max_degree = cert.bound
    top = min(max_degree, cert.bound)  # every beta above the bound is zero
    m = J.ring.nvars
    Q = J.quotient()
    blocks = {d: [Q.mult(J.ring.variable(v), d) for v in range(m)] for d in range(top)}
    table = BettiTable(nvars=I.ring.nvars, max_degree=max_degree,
                       truncated=max_degree < cert.bound, certificate=cert)
    for j in range(top + 1):
        ranks = [_koszul_rank(Q, blocks, i, j) for i in range(m + 2)]
        for i in range(m + 1):
            dim = comb(m, i) * len(Q.basis(j - i))
            beta = dim - ranks[i] - ranks[i + 1]
            if beta:
                table.entries[(i, j)] = beta
    return table


def betti_consistency_check(table: BettiTable, hf_values: list[int]) -> bool:
    """Euler characteristic identity: HF_d = sum_i (-1)^i sum_j beta_{i,j} *
    C(n + d - j, n) must hold in every probed degree."""
    n = table.nvars - 1
    for d, want in enumerate(hf_values):
        acc = 0
        for (i, j), v in table.entries.items():
            if d >= j:
                acc += (-1) ** i * v * comb(n + d - j, n)
        if acc != want:
            return False
    return True


def render_betti(table: BettiTable) -> str:
    """Macaulay2-style diagram: header of column totals, row r showing
    beta_{i, i+r} with '-' for zero cells."""
    if not table.entries:
        return "(empty)"
    maxi = max(i for i, _ in table.entries)
    maxr = max(j - i for i, j in table.entries)
    totals = [table.column_total(i) for i in range(maxi + 1)]
    cells = [
        [str(table.get(i, i + r)) if table.get(i, i + r) else "-" for i in range(maxi + 1)]
        for r in range(maxr + 1)
    ]
    widths = [
        max(len(str(totals[i])), max(len(cells[r][i]) for r in range(maxr + 1)))
        for i in range(maxi + 1)
    ]
    label_w = len(f"{maxr}:")
    lines = [" " * label_w + " " + " ".join(str(t).rjust(w) for t, w in zip(totals, widths))]
    for r in range(maxr + 1):
        label = f"{r}:".rjust(label_w)
        lines.append(label + " " + " ".join(c.rjust(w) for c, w in zip(cells[r], widths)))
    if table.truncated:
        lines.append(f"(truncated at degree {table.max_degree})")
    return "\n".join(lines)
