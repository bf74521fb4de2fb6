"""gradus benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload points-betti --seed 1 --seconds 36 --trace 0

Run from the repository root. With --trace 0 it reports the end-to-end
metrics (wall time of one pass relative to a fixed calibration round,
set-up time, peak memory) with tracing off; with --trace 1 it reports
the per-layer metrics of a traced pass. Human-readable lines come first;
the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. A full report and, when traced, the
spans go to .perfbench_out/. The exit code is 0 only when every operation
succeeded and every check held.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.load import exact_counts  # noqa: E402

WORKLOADS = ("points-betti", "socle-scan", "hom-colon")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_RATIOS = {
    "groebner.reduce_basis.kept_ratio": ("groebner.reduce_basis.out_size",
                                         "groebner.reduce_basis.in_size"),
    "experiments.scan.useful_ratio": ("experiments.scan.rows", "experiments.scan.attempts"),
}
# Per-layer metrics printed with --trace 1. Times that are zero on some
# workload by design (a layer it never calls) are in the report file only.
PER_LAYER = (
    "field.calls", "field.s", "field.self_s",
    "field.rank.calls", "field.rank.s", "field.rank.cells",
    "field.rref.calls", "field.rref.cells",
    "ring.calls", "ring.s", "ring.self_s",
    "ring.Poly.monic.calls", "ring.Poly.monic.s",
    "ring.parse_poly.calls", "ring.poly_to_str.calls", "ring.monomials_of_degree.calls",
    "groebner.calls", "groebner.s", "groebner.self_s",
    "groebner.normal_form.calls",
    "groebner.buchberger.calls", "groebner.buchberger.s", "groebner.buchberger.out_size",
    "groebner.reduce_basis.calls", "groebner.reduce_basis.s", "groebner.reduce_basis.out_size",
    "groebner.reduce_basis.kept_ratio",
    "groebner.Ideal.groebner.calls", "groebner.Ideal.groebner.misses",
    "groebner.ideal_intersection.calls", "groebner.ideal_quotient.calls",
    "points.calls", "points.s", "points.self_s",
    "points.random_general_points.calls", "points.random_general_points.s",
    "points.PointSet.evaluation_rows.calls", "points.PointSet.evaluation_rows.s",
    "points.PointSet.evaluation_rows.cells",
    "points.PointSet.rank_at.calls", "points.PointSet.rank_at.misses",
    "points.PointSet.rank_at.s",
    "points.vanishing_ideal.calls", "points.vanishing_ideal_oracle.calls",
    "hilbert.calls", "hilbert.s", "hilbert.self_s",
    "hilbert.standard_monomials.calls", "hilbert.standard_monomials.misses",
    "hilbert.standard_monomials.s", "hilbert.hilbert_function.calls",
    "betti.calls", "betti.graded_betti.calls",
    "betti.koszul_rank.calls", "betti.koszul_rank.cells",
    "hom.calls", "hom.hom_graded_dims.calls", "hom.theta_kernel_dims.calls",
    "experiments.calls", "experiments.scan.attempts", "experiments.scan.useful_ratio",
    "cli.calls", "cli.points.calls", "cli.ideal.calls", "cli.betti.calls", "cli.hilbert.calls",
    "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


def per_layer_values(raw: dict) -> dict:
    """Every per-layer metric by name; a name absent from the raw metrics is
    a function the workload never called, so its count is 0."""
    out = dict(raw)
    for name, (num, den) in PER_LAYER_RATIOS.items():
        out[name] = raw.get(num, 0) / raw[den] if raw.get(den) else 1.0
    return {name: out.get(name, 0) for name in PER_LAYER}


def wall_rel(walls: list[float], cals: list[list[float]]) -> float:
    """Median over the passes of a pass's wall time divided by the mean of
    its own calibration rounds."""
    return median(w / (sum(c) / len(c)) for w, c in zip(walls, cals))


def pinned_env() -> tuple[dict, dict]:
    """Environment for the load process: gradus from src/, BLAS and OpenMP
    capped at the CPUs this process may use, fixed string hashing."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("GRADUS_FIELD", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(nproc)
    return env, {"nproc": nproc, "blas_threads": nproc}


def source_record() -> dict:
    """The code measured: sha256 of src/gradus, and the git commit when the
    tree is a git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gradus").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


class LoadError(RuntimeError):
    pass


def spawn_load(argv: list[str], env: dict, out: Path, deadline: float) -> tuple[float, dict]:
    """Run one load process; return (seconds until it was ready, its JSON)."""
    out.unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.load", "--out", str(out), *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise LoadError("load process timed out") from None
    if proc.returncode != 0 or not out.exists():
        raise LoadError(f"load process exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    return result["ready"] - t0, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gradus" / "__init__.py").is_file():
        print(f"perfbench: no gradus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env, pins = pinned_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probes(k: int) -> list[float]:
        return [spawn_load(common + ["--setup-only"], env, out_dir / f"{tag}.probe.json",
                           deadline)[0] for _ in range(k)]

    try:
        setups = []
        if not args.trace:
            # The first probe also writes bytecode caches; it is not counted.
            setups = probes(SETUP_SAMPLES // 2 + 1)[1:]
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")]
        ready, load = spawn_load(run_args, env, out_dir / f"{tag}.load.json", deadline)
        # The rest of the probes come after the load, so that the median
        # samples the machine at both ends of the run.
        if not args.trace:
            setups += probes(SETUP_SAMPLES - len(setups))
    except LoadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    failures, attempted = load["failures"], load["attempted"]
    failed = len(failures)
    drift = []
    source = source_record()
    if args.trace:
        raw = load["metrics"]
        # The same seed on the same code must give the same counts as any
        # earlier traced run in this tree.
        # Keyed by the program and by the workload definitions.
        code = hashlib.sha256(source["source_sha256"].encode()
                              + (ROOT / "perfbench" / "workloads.py").read_bytes()).hexdigest()[:16]
        counts_file = out_dir / f"counts-{args.workload}-seed{args.seed}-{code}.json"
        counts = exact_counts(raw)
        if counts_file.exists():
            before = json.loads(counts_file.read_text())
            drift = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        else:
            counts_file.write_text(json.dumps(counts, sort_keys=True))
        values = per_layer_values(raw)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        raw = {"wall_rel": wall_rel(load["walls"], load["cals"]), "setup_s": median(setups),
               "peak_rss_mb": load["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in raw.items()}

    env_record = {**source, "python": load["python"], "numpy": load["numpy"], **pins}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_record, "pass_wall_s": load["walls"],
              "calibration_s": load.get("cals", []),
              "traced_pass_wall_s": load.get("traced_walls", []),
              "setup_samples_s": setups, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures, "count_drift": drift,
              "metrics": raw}
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"perfbench {tag}: env {json.dumps(env_record, sort_keys=True)}")
    print(f"passes: {len(load['walls'])}, pass wall_s {[round(w, 4) for w in load['walls']]}, "
          f"calibration rounds {sum(map(len, load.get('cals', [])))}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if drift:
        print(f"FAILED counts differ from an earlier traced run with this seed: {drift[:10]}")
    correct = failed == 0 and not drift
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
