"""Graded Betti numbers via Koszul homology, and diagram rendering.

beta_{i,j}(R/I) = dim_k H_i(K ox R/I)_j where K is the Koszul complex on
the variables. Each internal degree j needs only the graded pieces of R/I
in degrees j-i, realized by standard monomials, and the multiplication-by-
variable maps between them; every entry is one or two rank computations
over the coefficient field.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb

import numpy as np

from .field import rank
from .groebner import Ideal
from .hilbert import GradedQuotient, hilbert_function, is_artinian, socle_degree


@dataclass
class BettiTable:
    """Map (homological index i, internal degree j) -> beta_{i,j} > 0."""

    entries: dict = dc_field(default_factory=dict)
    nvars: int = 0
    max_degree: int = 0
    truncated: bool = False

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
        return {"betti": cells, "truncated": self.truncated, "max_degree": self.max_degree}


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
    # over Q an object array keeps the Fractions exact and takes the same block updates
    D = np.zeros((rows, cols), dtype=np.int64 if fld.kind == "prime" else object)
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
    if fld.kind == "prime":
        D %= fld.p
    return rank(fld, D.tolist())


def default_max_degree(I: Ideal) -> int:
    """Artinian quotients are complete by socle + nvars. For ideals with a
    stabilizing Hilbert function (points) use twice (stabilization + 2);
    otherwise fall back to max GB degree + nvars + 2."""
    if is_artinian(I):
        return socle_degree(I).socle_degree + I.ring.nvars
    top = max((g.degree() for g in I.groebner()), default=0) + I.ring.nvars + 2
    d, repeats = 0, 0
    while repeats < 3 and d < top:
        d += 1
        repeats = repeats + 1 if hilbert_function(I, d) == hilbert_function(I, d - 1) else 0
    if repeats >= 3:
        return 2 * (d - repeats + 2)
    return top


def graded_betti(I: Ideal, max_degree: int | None = None) -> BettiTable:
    """All beta_{i,j}(R/I) with j <= max_degree."""
    if I.contains(I.ring.one()):
        raise ValueError("graded_betti needs a proper ideal")
    m = I.ring.nvars
    complete_bound = None
    if is_artinian(I):
        complete_bound = socle_degree(I).socle_degree + m
    if max_degree is None:
        max_degree = complete_bound if complete_bound is not None else default_max_degree(I)
    Q = I.quotient()
    blocks = {d: [Q.mult(I.ring.variable(v), d) for v in range(m)] for d in range(max_degree)}
    table = BettiTable(nvars=m, max_degree=max_degree)
    for j in range(max_degree + 1):
        ranks = [_koszul_rank(Q, blocks, i, j) for i in range(m + 2)]
        for i in range(m + 1):
            dim = comb(m, i) * len(Q.basis(j - i))
            beta = dim - ranks[i] - ranks[i + 1]
            if beta:
                table.entries[(i, j)] = beta
    if complete_bound is not None and max_degree >= complete_bound:
        table.truncated = False  # Koszul slices above socle + nvars are zero
    else:
        table.truncated = any(j == max_degree for _, j in table.entries)
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
