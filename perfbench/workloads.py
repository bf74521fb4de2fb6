"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload is a closed loop: one process makes one call at a time. Its
inputs come from the benchmark seed alone (`make_inputs`); one pass runs
every operation once (`run`), and `check` tests the outputs against facts
derived here, without the code under test. An operation is one CLI command
or one top-level library call; a raised error, a non-zero exit code or a
failed check makes it count as failed.

gradus is reached through module attributes (`cli.dispatch`, never a name
imported into this module), so the outside-in tracer's patches apply.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import gradus.cli as cli
import gradus.experiments as experiments
import gradus.groebner as groebner
import gradus.hom as hom
import gradus.points as points

PRIME = 32003

# (label, points s, dimension n of P^n, --field)
POINTS_BETTI_INSTANCES = (
    ("P2-s50", 50, 2, str(PRIME)),
    ("P3-s20", 20, 3, str(PRIME)),
    ("P2-s7-Q", 7, 2, "Q"),
)
HILBERT_MAX_DEGREE = 12
# Betti table of 7 general points in P^2 (reference table 4): (i, j) -> beta
TABLE4 = {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}

SCAN_RANGE = (2, 25)
SCAN_TRIALS = 3
SCAN_GROUP_SIZES = [3, 5, 7, 9]
SCAN_GROUP_RANGES = [[2, 4], [5, 9], [10, 16], [17, 25]]

HOM_POINT_COUNTS = (9, 20)
HOM_ORACLE_AT = 20


@dataclass
class Op:
    """One attempted operation and what it returned."""

    name: str
    output: object = None
    ok: bool = True
    error: str = ""

    def fail(self, why: str):
        if self.ok:
            self.ok, self.error = False, why


def _attempt(ops: list[Op], name: str, fn, *args, **kwargs) -> Op:
    op = Op(name)
    try:
        op.output = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is a failed operation
        op.fail(f"{type(exc).__name__}: {exc}")
    ops.append(op)
    return op


# -- independent arithmetic ----------------------------------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")


def _scalar(text: str, p: int | None):
    q = Fraction(text)
    return q if p is None else q.numerator * pow(q.denominator, -1, p) % p


def _text_value(poly: str, point, p: int | None):
    """Value of a polynomial in gradus' text syntax at a point, computed
    from the text alone; p is the field characteristic, None for Q."""
    total = 0
    for sign, body in _TERM.findall(poly):
        term = -1 if sign == "-" else 1
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                x, k = point[int(var)], int(power or 1)
                term *= pow(x, k, p) if p else x**k
            else:
                term *= _scalar(factor, p)
        total += term
    return total % p if p else total


def _terms_value(terms: dict, point, p: int) -> int:
    """Value over F_p of a polynomial given as {exponents: coefficient}."""
    total = 0
    for exps, c in terms.items():
        term = c
        for x, k in zip(point, exps):
            term = term * pow(x, k, p) % p
        total += term
    return total % p


def _general_hf(n: int, s: int, d: int) -> int:
    """HF of s general points of P^n in degree d."""
    return min(comb(n + d, n), s)


def _delta(n: int, s: int) -> int:
    d = 0
    while comb(n + d, n) < s:
        d += 1
    return d


def _group_index(s: int) -> int:
    """The n with n^2 < s <= (n+1)^2."""
    n = 1
    while (n + 1) ** 2 < s:
        n += 1
    return n


def _euler_holds(betti: dict, hf: list[int], n: int) -> bool:
    """HF_d = sum_{i,j} (-1)^i beta_{i,j} C(n + d - j, n) for every listed d."""
    return all(
        sum((-1) ** i * b * comb(n + d - j, n) for (i, j), b in betti.items() if j <= d) == want
        for d, want in enumerate(hf)
    )


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


# -- points-betti: the CLI pipeline ----------------------------------------


class PointsBetti:
    """points -> ideal -> betti --format json -> hilbert, in-process."""

    name = "points-betti"

    @staticmethod
    def make_inputs(seed: int) -> list[dict]:
        rng = random.Random(f"points-betti:{seed}")
        return [
            {"label": label, "s": s, "n": n, "field": field, "seed": rng.randrange(2**31)}
            for label, s, n, field in POINTS_BETTI_INSTANCES
        ]

    @staticmethod
    def _files(workdir: Path, label: str) -> dict:
        return {k: workdir / f"{label}-{k}.json" for k in ("points", "ideal", "betti", "hilbert")}

    def run(self, inputs: list[dict], workdir: Path) -> list[Op]:
        ops: list[Op] = []
        for inst in inputs:
            f = self._files(workdir, inst["label"])
            for path in f.values():
                path.unlink(missing_ok=True)
            steps = (
                ("points", ["points", "--s", str(inst["s"]), "--n", str(inst["n"]),
                            "--seed", str(inst["seed"]), "--field", inst["field"]]),
                ("ideal", ["ideal", "--points", str(f["points"])]),
                ("betti", ["betti", "--ideal", str(f["ideal"]), "--format", "json"]),
                ("hilbert", ["hilbert", "--ideal", str(f["ideal"]),
                             "--max-degree", str(HILBERT_MAX_DEGREE)]),
            )
            for cmd, argv in steps:
                op = _attempt(ops, f"{inst['label']}/{cmd}", cli.dispatch,
                              argv + ["--out", str(f[cmd])])
                if op.ok and op.output != 0:
                    op.fail(f"exit code {op.output}")
        return ops

    def check(self, inputs: list[dict], workdir: Path, ops: list[Op]) -> dict:
        by_name = {op.name: op for op in ops}
        invariants = {}
        for inst in inputs:
            label, s, n = inst["label"], inst["s"], inst["n"]
            p = None if inst["field"] == "Q" else int(inst["field"])
            f = self._files(workdir, label)
            got = {}
            for cmd in ("points", "ideal", "betti", "hilbert"):
                op = by_name[f"{label}/{cmd}"]
                if op.ok:
                    try:
                        got[cmd] = _load(f[cmd])
                    except (OSError, ValueError) as exc:
                        op.fail(f"unreadable output: {exc}")

            pts = got.get("points")
            if pts is not None:
                coords = [tuple(_scalar(c, p) for c in pt) for pt in pts["points"]]
                if (pts["n"] != n or len(coords) != s or len(set(coords)) != s
                        or any(len(c) != n + 1 for c in coords)):
                    by_name[f"{label}/points"].fail("not s distinct points of P^n")
                    coords = None
            else:
                coords = None

            ideal = got.get("ideal")
            if ideal is not None:
                polys = ideal["generators"] + ideal["groebner"]
                if not ideal["generators"] or coords is None or any(
                    _text_value(g, pt, p) != 0 for g in polys for pt in coords
                ):
                    by_name[f"{label}/ideal"].fail("a generator does not vanish on the points")

            hf = got.get("hilbert", {}).get("values")
            if hf is not None and hf != [_general_hf(n, s, d)
                                         for d in range(HILBERT_MAX_DEGREE + 1)]:
                by_name[f"{label}/hilbert"].fail(f"HF {hf} is not min(C(n+d,n), s)")

            betti = got.get("betti")
            table = None
            if betti is not None:
                table = {(c["i"], c["j"]): c["value"] for c in betti["betti"]}
                op = by_name[f"{label}/betti"]
                if hf is None or not _euler_holds(table, hf, n):
                    op.fail("Euler characteristic identity fails against hilbert values")
                if s == 7 and n == 2 and table != TABLE4:
                    op.fail(f"table {sorted(table.items())} is not reference table4")
            invariants[label] = {
                "groebner": ideal and ideal["groebner"],
                "betti": table and sorted(table.items()),
                "hilbert": hf,
            }
        return invariants


# -- socle-scan: the socle-degree grouping experiment ----------------------


class SocleScan:
    """experiments.socle_group_scan over s = 2..25."""

    name = "socle-scan"

    @staticmethod
    def make_inputs(seed: int) -> dict:
        return {"seed": random.Random(f"socle-scan:{seed}").randrange(2**31)}

    def run(self, inputs: dict, workdir: Path) -> list[Op]:
        ops: list[Op] = []
        _attempt(ops, "socle_group_scan", experiments.socle_group_scan,
                 SCAN_RANGE, SCAN_TRIALS, inputs["seed"])
        return ops

    def check(self, inputs: dict, workdir: Path, ops: list[Op]) -> dict:
        op = ops[0]
        if not op.ok:
            return {}
        rows = op.output
        lo, hi = SCAN_RANGE
        by_offset: dict[int, list[int]] = {}
        for r in rows:
            n = _group_index(r.s)
            if r.group_index != n or r.offset != n - 1:
                op.fail(f"s={r.s}: offset {r.offset} is not group_index - 1 = {n - 1}")
            if r.initial_degree != n or r.socle_degree != r.initial_degree + r.offset:
                op.fail(f"s={r.s}: degrees do not follow the scan convention")
            by_offset.setdefault(r.offset, []).append(r.s)
        if sorted(r.s for r in rows) != sorted(list(range(lo, hi + 1)) * SCAN_TRIALS):
            op.fail("rows do not cover every s once per trial")
        groups = [sorted(set(ss)) for _, ss in sorted(by_offset.items())]
        if [len(g) for g in groups] != SCAN_GROUP_SIZES:
            op.fail(f"group sizes {[len(g) for g in groups]}")
        if [[g[0], g[-1]] for g in groups] != SCAN_GROUP_RANGES:
            op.fail(f"group ranges {[[g[0], g[-1]] for g in groups]}")
        return {"rows": [[r.s, r.initial_degree, r.socle_degree, r.retries] for r in rows]}


# -- hom-colon: Hom dimensions through colon ideals ------------------------


class HomColon:
    """hom_graded_dims with two witnesses and theta_kernel_dims for s in
    {9, 20} in P^2, plus the vanishing-ideal oracle at s = 20."""

    name = "hom-colon"

    @staticmethod
    def make_inputs(seed: int) -> list[dict]:
        rng = random.Random(f"hom-colon:{seed}")
        return [{"s": s, "seed": rng.randrange(2**31), "j_seed": rng.randrange(2**31)}
                for s in HOM_POINT_COUNTS]

    @staticmethod
    def _scan_J(X, s: int, j_seed: int):
        """build_scan_J with the first seed from j_seed on whose generators
        both vanish at no point, so either one is a valid witness."""
        k = 0
        while True:
            J = experiments.build_scan_J(X.ring(), s, random.Random(j_seed + k))
            if all(_terms_value(g.terms, pt, PRIME) for g in J.generators for pt in X.points):
                return J
            k += 1

    def run(self, inputs: list[dict], workdir: Path) -> list[Op]:
        ops: list[Op] = []
        for inst in inputs:
            s = inst["s"]
            X = _attempt(ops, f"s{s}/points", points.random_general_points,
                         s, 2, inst["seed"]).output
            J = _attempt(ops, f"s{s}/build_scan_J", self._scan_J, X, s, inst["j_seed"]).output
            degrees = range(0, _delta(2, s) + 4)
            g0 = J.generators[0] if J is not None else None
            g1 = J.generators[1] if J is not None else None
            _attempt(ops, f"s{s}/hom", hom.hom_graded_dims, J, X, degrees)
            _attempt(ops, f"s{s}/hom_witness", hom.hom_graded_dims, J, X, degrees, witness=g1)
            _attempt(ops, f"s{s}/theta", hom.theta_kernel_dims, J, g0, X, degrees)
            if s == HOM_ORACLE_AT:
                _attempt(ops, f"s{s}/oracle", lambda X: groebner.equal_ideals(
                    points.vanishing_ideal(X), points.vanishing_ideal_oracle(X)), X)
        return ops

    def check(self, inputs: list[dict], workdir: Path, ops: list[Op]) -> dict:
        by_name = {op.name: op for op in ops}
        invariants = {}
        for inst in inputs:
            s = inst["s"]
            top = _delta(2, s) + 3
            X = by_name[f"s{s}/points"]
            if X.ok and X.output.s != s:
                X.fail(f"sampled {X.output.s} points")
            dims = {}
            for name in ("hom", "hom_witness"):
                op = by_name[f"s{s}/{name}"]
                if op.ok:
                    dims[name] = dict(op.output.dims)
                    if dims[name].get(top) != s:
                        op.fail(f"dim Hom in degree {top} is {dims[name].get(top)}, not s")
            if len(dims) == 2 and dims["hom"] != dims["hom_witness"]:
                by_name[f"s{s}/hom_witness"].fail("the two witnesses give different profiles")
            theta = by_name[f"s{s}/theta"]
            if theta.ok and any(theta.output.values()):
                theta.fail(f"theta kernel {theta.output} is not all zero")
            oracle = by_name.get(f"s{s}/oracle")
            if oracle is not None and oracle.ok and oracle.output is not True:
                oracle.fail("vanishing ideal differs from the oracle")
            invariants[f"s{s}"] = {
                "hom": sorted(dims.get("hom", {}).items()),
                "theta": sorted(theta.output.items()) if theta.ok else None,
                "oracle": oracle.output if oracle is not None else None,
            }
        return invariants


WORKLOADS = {w.name: w for w in (PointsBetti(), SocleScan(), HomColon())}
