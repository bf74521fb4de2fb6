"""Scripted reproduction of the worked examples: Betti diagrams for small
point sets, the Hilbert sequences of the J-quotients, the socle-degree
grouping law with its 2n+1 group sizes, and the monomial-ideal study.

Every experiment derives all randomness from one seed and embeds the seeds
it used in its report, so reports are bit-reproducible.

The socle scan and the J-quotient reproductions run on the points' values
(`gradus.points.PointValues`): HF(R/(I_X + J)), the Artinian test and the
socle degree come from ranks in k^s, up to the proven degree
delta_X + max deg j, with no vanishing ideal and no Groebner basis. The
Betti tables and the monomial study work with the ideals themselves.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .betti import betti_consistency_check, graded_betti
from .errors import GradusError
from .groebner import Ideal, equal_ideals, ideal_intersection, ideal_sum, leading_term_ideal
from .hilbert import hilbert_values, is_artinian
from .points import PointSet, PointValues, random_general_points, vanishing_ideal
from .ring import RingSpec, parse_poly

# Verbatim generator pairs for the quotient experiments, as printed in the
# worked examples (first-group pairs are (linear, quadric); the 7-point pair
# is (quadric, cubic)).
REFERENCE_J_TEXT = {
    "JX1": ("x0+x1+x2", "x0^2+x1^2+x2^2-x0*x1+x1*x2"),
    "JX2": ("x0+x1+x2", "x0^2+x1^2+x2^2+x0*x1+x1*x2-x0*x2"),
    "JX3": ("x0+x1+x2", "x0^2+x1^2+x2^2-x0*x1+x1*x2"),
    "JX6": ("x0^2+x1^2+x2^2+x0*x1+x1*x2", "x0^3+x1^3+x2^3-x0^2*x1+x1*x2^2+x0*x1*x2"),
}

# Expected Betti diagrams (entries of R/I_X) for 2, 3, 4, and 7 general points.
REFERENCE_BETTI = {
    "table1": (2, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}),
    "table2": (3, {(0, 0): 1, (1, 2): 3, (2, 3): 2}),
    "table3": (4, {(0, 0): 1, (1, 2): 2, (2, 4): 1}),
    "table4": (7, {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}),
}

# Expected head of Hilb(R_X/J) and socle degree for the verbatim J's.
REFERENCE_HILB = {
    "hilb_JX1": (2, "JX1", [1, 1, 0, 0, 0, 0], 1),
    "hilb_JX2": (3, "JX2", [1, 2, 0, 0, 0, 0], 1),
    "hilb_JX3": (4, "JX3", [1, 2, 0, 0, 0, 0], 1),
    "hilb_JX6": (7, "JX6", [1, 3, 5, 3, 0, 0], 3),
}

# Printed value for Hilb(R_X/(I+I*)); dimensionally short of a degree-3
# entry, so it is reported against the computed sequence, never asserted.
PRINTED_SUM_SEQUENCE = [1, 3, 6, 15, 9, 2, 0, 0]


@dataclass
class Assertion:
    name: str
    computed: object
    expected: object
    provenance: str
    passed: bool | None  # None marks report-only rows

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed,
            "expected": self.expected,
            "provenance": self.provenance,
            "passed": self.passed,
        }


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    assertions: list[Assertion] = dc_field(default_factory=list)

    def check(self, name, computed, expected, provenance):
        self.assertions.append(Assertion(name, computed, expected, provenance, computed == expected))

    def note(self, name, computed, expected, provenance):
        self.assertions.append(Assertion(name, computed, expected, provenance, None))

    @property
    def passed(self) -> bool:
        return all(a.passed is not False for a in self.assertions)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "passed": self.passed,
            "assertions": [a.to_json() for a in self.assertions],
        }

    def to_text(self) -> str:
        lines = [f"experiment {self.name}  inputs={self.inputs}"]
        for a in self.assertions:
            mark = "PASS" if a.passed else ("FAIL" if a.passed is False else "INFO")
            lines.append(f"  [{mark}] {a.name} [{a.provenance}]")
            lines.append(f"         computed: {a.computed}")
            if a.passed is not True:
                lines.append(f"         expected: {a.expected}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def build_reference_J(X: PointSet, style: str) -> Ideal:
    """The verbatim (linear, quadric) or (quadric, cubic) generator pair."""
    if X.n != 2:
        raise ValueError("the worked examples live in P^2")
    key = {"first_group": "JX1", "quad_cubic": "JX6"}.get(style)
    if key is None:
        raise ValueError(f"unknown style {style!r}")
    return reference_J(X.ring(), key)


def reference_J(ring: RingSpec, key: str) -> Ideal:
    return Ideal(ring, [parse_poly(ring, s) for s in REFERENCE_J_TEXT[key]])


def group_index(s: int) -> int:
    """The n with n^2 < s <= (n+1)^2; indexes the socle-offset groups."""
    if s < 2:
        raise ValueError("grouping starts at 2 points")
    return math.ceil(math.sqrt(s)) - 1


def xi_group_size(n: int) -> int:
    """Number of point counts sharing one socle-degree offset."""
    if n < 1:
        raise ValueError("group index starts at 1")
    return 2 * n + 1


def build_scan_J(ring: RingSpec, s: int, rng) -> Ideal:
    """Scan convention: J = (random form of degree n, random form of degree
    n+1) with n the group index of s. The shown instances use degrees (1, 2)
    for 2-4 points and (2, 3) for 7 points, and the initial degree has to
    grow with the group for the offset law to close at the square boundaries.
    """
    n = group_index(s)
    return Ideal(ring, [ring.random_form(n, rng), ring.random_form(n + 1, rng)])


@dataclass
class SocleExperimentRow:
    s: int
    group_index: int
    initial_degree: int
    socle_degree: int
    offset: int
    seed: int
    retries: int = 0

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "group_index": self.group_index,
            "initial_degree": self.initial_degree,
            "socle_degree": self.socle_degree,
            "offset": self.offset,
            "seed": self.seed,
            "retries": self.retries,
        }


def socle_group_scan(s_range: tuple[int, int] = (2, 25), trials: int = 3,
                     seed: int = 0, retry_budget: int = 8) -> list[SocleExperimentRow]:
    """Sample X and J per the scan convention for each s and trial; record
    initial degree, socle degree, and their offset."""
    if trials < 1:
        raise ValueError("need at least one trial")
    lo, hi = s_range
    master = random.Random(seed)
    rows = []
    for s in range(lo, hi + 1):
        n = group_index(s)
        for _ in range(trials):
            sub = master.randrange(2**30)
            for attempt in range(retry_budget):
                X = random_general_points(s, 2, seed=sub + 1_000_003 * attempt)
                rng = random.Random(sub * 31 + attempt)
                J = build_scan_J(X.ring(), s, rng)
                report = PointValues(X, J).socle()
                if report.artinian:
                    initial = min(g.degree() for g in J.generators)
                    rows.append(SocleExperimentRow(
                        s, n, initial, report.socle_degree,
                        report.socle_degree - initial, sub, attempt,
                    ))
                    break
            else:
                raise GradusError(f"no Artinian quotient for s={s} within the retry budget")
    return rows


def offset_groups(rows: list[SocleExperimentRow]) -> list[dict]:
    """Group scan rows by offset; each group reports its s-range, size, and
    whether the covered point counts are contiguous."""
    by_offset: dict[int, set[int]] = {}
    for r in rows:
        by_offset.setdefault(r.offset, set()).add(r.s)
    out = []
    for off in sorted(by_offset):
        ss = sorted(by_offset[off])
        out.append({
            "offset": off,
            "s_min": ss[0],
            "s_max": ss[-1],
            "size": len(ss),
            "contiguous": ss == list(range(ss[0], ss[-1] + 1)),
        })
    return out


def socle_scan_report(s_range=(2, 25), trials=3, seed=0) -> ExperimentReport:
    rows = socle_group_scan(s_range, trials, seed)
    rep = ExperimentReport(
        "socle-groups",
        {"s_range": list(s_range), "trials": trials, "seed": seed},
    )
    groups = offset_groups(rows)
    rep.note("rows", [r.to_json() for r in rows], None, "REPORTED")
    rep.check("offsets are group_index - 1",
              all(r.offset == r.group_index - 1 for r in rows), True, "REFERENCE")
    rep.check("groups contiguous", all(g["contiguous"] for g in groups), True, "REFERENCE")
    if s_range == (2, 25):
        rep.check("group sizes", [g["size"] for g in groups], [3, 5, 7, 9], "REFERENCE")
        rep.check("group ranges",
                  [[g["s_min"], g["s_max"]] for g in groups],
                  [[2, 4], [5, 9], [10, 16], [17, 25]], "REFERENCE")
        rep.check("xi = 2n+1 against empirical sizes",
                  [xi_group_size(g["offset"] + 1) for g in groups],
                  [g["size"] for g in groups], "REFERENCE")
        rep.check("group n covers n^2+1 .. (n+1)^2 (inferred closed form)",
                  [[g["offset"] + 1, g["s_min"], g["s_max"]] for g in groups],
                  [[n, n * n + 1, (n + 1) * (n + 1)] for n in (1, 2, 3, 4)], "DERIVED")
    return rep


def _distinct_union(X1: PointSet, X2: PointSet) -> PointSet:
    return PointSet(X1.n, X1.field, list(X1.points) + list(X2.points))


def monomial_artinian_study(s1: int = 15, s2: int = 21, seed: int = 0) -> ExperimentReport:
    """Leading-term ideals I, I* of two vanishing ideals, the Hilbert
    functions of R_X/I, R_X/I*, R_X/(I+I*), Artinian certification, and the
    comparison of I+I* against the intersection and the union ideal."""
    master = random.Random(seed)
    for _ in range(8):
        seed1, seed2 = master.randrange(2**30), master.randrange(2**30)
        X1 = random_general_points(s1, 2, seed=seed1)
        X2 = random_general_points(s2, 2, seed=seed2)
        if not set(X1.points) & set(X2.points):
            break
    else:
        raise GradusError("could not draw disjoint point sets")
    rep = ExperimentReport(
        "monomial-artinian",
        {"s1": s1, "s2": s2, "seed": seed, "seed1": seed1, "seed2": seed2},
    )
    I_X1, I_X2 = vanishing_ideal(X1), vanishing_ideal(X2)
    I = leading_term_ideal(I_X1)
    Istar = leading_term_ideal(I_X2)
    rep.check("I = in(I_X1) generators",
              sorted(str(g) for g in I.generators),
              sorted(["x1^5", "x0*x1^4", "x0^2*x1^3", "x0^3*x1^2", "x0^4*x1", "x0^5"]),
              "REFERENCE")
    rep.check("I* = in(I_X2) generators",
              sorted(str(g) for g in Istar.generators),
              sorted(["x0^6", "x0^5*x1", "x0^4*x1^2", "x0^3*x1^3",
                      "x0^2*x1^4", "x0*x1^5", "x1^6"]),
              "REFERENCE")

    # ambient R_X = R/I_X1 matches the printed sequences
    mod_I = ideal_sum(I_X1, I)
    mod_Istar = ideal_sum(I_X1, Istar)
    mod_sum = ideal_sum(mod_I, Istar)
    rep.check("Hilb(R_X/I)", hilbert_values(mod_I, 9),
              [1, 3, 6, 10, 15, 9, 2, 0, 0, 0], "REFERENCE")
    rep.check("Hilb(R_X/I*)", hilbert_values(mod_Istar, 9),
              [1, 3, 6, 10, 15, 15, 8, 0, 0, 0], "REFERENCE")
    rep.check("all three quotients Artinian",
              [is_artinian(mod_I), is_artinian(mod_Istar), is_artinian(mod_sum)],
              [True, True, True], "REFERENCE")
    eventually_zero = [hilbert_values(q, 12)[-1] == 0 for q in (mod_I, mod_Istar, mod_sum)]
    rep.check("eventual-zero cross-check", eventually_zero, [True, True, True], "TRIVIAL")
    computed_sum = hilbert_values(mod_sum, 9)
    rep.note("Hilb(R_X/(I+I*)) computed", computed_sum,
             f"printed as {PRINTED_SUM_SEQUENCE} (as printed, suspected typo: no degree-3 value)",
             "REFERENCE")
    # ambient is unstated for the printed sum sequence: report all three
    rep.note("Hilb with ambient R_X2", hilbert_values(ideal_sum(ideal_sum(I_X2, I), Istar), 9),
             None, "REPORTED")
    sum_plain = ideal_sum(I, Istar)
    rep.note("Hilb with ambient R (not Artinian there)",
             hilbert_values(sum_plain, 9), None, "REPORTED")

    meet = ideal_intersection(I_X1, I_X2)
    union_ideal = vanishing_ideal(_distinct_union(X1, X2))
    rep.note("I+I* equals I_X1 ∩ I_X2", equal_ideals(sum_plain, meet),
             "printed identity; holds only set-theoretically for the vanishing ideals",
             "REPORTED")
    rep.check("I_X1 ∩ I_X2 equals I_{X1 u X2}",
              equal_ideals(meet, union_ideal), True, "DERIVED")
    return rep


def reproduce_reference(case: str, seed: int = 0) -> ExperimentReport:
    """Run one named reproduction with fresh seeded points."""
    if case in REFERENCE_BETTI:
        s, expected = REFERENCE_BETTI[case]
        X = random_general_points(s, 2, seed=seed)
        I = vanishing_ideal(X)
        table = graded_betti(I)
        rep = ExperimentReport(case, {"s": s, "seed": seed})
        rep.check("betti entries",
                  [[i, j, v] for (i, j), v in sorted(table.entries.items())],
                  [[i, j, v] for (i, j), v in sorted(expected.items())], "REFERENCE")
        rep.check("column totals", table.totals(),
                  _totals_of(expected), "REFERENCE")
        rep.check("Euler-characteristic identity",
                  betti_consistency_check(table, hilbert_values(I, 10)), True, "DERIVED")
        return rep
    if case in REFERENCE_HILB:
        s, jkey, expected_hf, expected_socle = REFERENCE_HILB[case]
        X = random_general_points(s, 2, seed=seed)
        J = reference_J(X.ring(), jkey)
        V = PointValues(X, J)
        head = [V.hilbert_function(d) for d in range(len(expected_hf))]
        report = V.socle()
        rep = ExperimentReport(case, {"s": s, "seed": seed, "J": list(REFERENCE_J_TEXT[jkey])})
        rep.check("Hilbert sequence", head, expected_hf, "REFERENCE")
        rep.check("Artinian", report.artinian, True, "REFERENCE")
        rep.check("socle degree", report.socle_degree, expected_socle, "REFERENCE")
        if case == "hilb_JX6":
            rep.check("socle = initial degree of J + 1",
                      report.socle_degree,
                      min(g.degree() for g in J.generators) + 1, "REFERENCE")
        return rep
    if case == "example_2_11":
        return monomial_artinian_study(seed=seed)
    raise ValueError(f"unknown case {case!r}; choose from {sorted(ALL_CASES)}")


def _totals_of(entries: dict) -> list[int]:
    top = max(i for i, _ in entries)
    return [sum(v for (i, _), v in entries.items() if i == col) for col in range(top + 1)]


ALL_CASES = sorted(REFERENCE_BETTI) + sorted(REFERENCE_HILB) + ["example_2_11"]
