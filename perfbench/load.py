"""The load process: one fresh interpreter that sets up one workload, runs
its passes one after another and writes what it measured as JSON.

run.py starts it as `python3 -m perfbench.load` from the repository root
with src/ on PYTHONPATH. With --setup-only it stops once the first pass
could start, which is how run.py samples set-up time.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from perfbench.calibrate import Sampler, calibration_round

ROOT = Path(__file__).resolve().parent.parent

# Count metrics that must repeat exactly for the same seed and code.
EXACT_SUFFIXES = (".calls", ".cells", ".misses", ".out_size", ".in_size")


def _digest(invariants) -> str:
    text = json.dumps(invariants, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _one_pass(wl, inputs, workdir, tracer=None, sampler=None):
    """Run and check one pass; return (wall seconds, ops, invariant digest).
    The wall time leaves out the sampler's calibration rounds. The checks
    run outside the timed region, the tracer and the sampler."""
    with tracer or contextlib.nullcontext(), sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        ops = wl.run(inputs, workdir)
        wall = time.perf_counter() - t0 - (sampler.busy if sampler else 0.0)
    return wall, ops, _digest(wl.check(inputs, workdir, ops))


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith(EXACT_SUFFIXES) or k.startswith("experiments.scan.")}


def timed_passes(wl, inputs, workdir, seconds: float) -> dict:
    """Untraced passes until the next one would overrun `seconds` (at least
    one). Each pass has a calibration round before it and more rounds
    inside it, one a second; `cals[i]` holds pass i's rounds. A pass whose
    outputs differ from the first pass fails all its ops."""
    start = time.perf_counter()
    walls, cals, took, ops_all, first = [], [], [], [], None
    while True:
        t0 = time.perf_counter()
        before = calibration_round()
        sampler = Sampler()
        wall, ops, digest = _one_pass(wl, inputs, workdir, sampler=sampler)
        first = first or digest
        if digest != first:
            for op in ops:
                op.fail("outputs differ from the first pass on the same inputs")
        walls.append(wall)
        cals.append([before, *sampler.rounds])
        ops_all.extend(ops)
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(took) > seconds:
            break
    return {"walls": walls, "cals": cals, "ops": ops_all}


def traced_passes(wl, inputs, workdir, spans_path: Path | None) -> dict:
    """Untraced and traced passes in turn, two of each, so that drift in the
    machine's speed cancels in the overhead. Every pass must give the first
    pass's outputs, and the two traced passes must give identical counts."""
    from perfbench.trace import Tracer

    walls, traced_walls, ops_all, first, counts = [], [], [], None, None
    for _ in range(2):
        for tracer in (None, Tracer()):
            wall, ops, digest = _one_pass(wl, inputs, workdir, tracer)
            first = first or digest
            if digest != first:
                for op in ops:
                    op.fail("outputs differ from the first, untraced pass")
            ops_all.extend(ops)
            (traced_walls if tracer else walls).append(wall)
        metrics = tracer.metrics()
        if counts is not None and exact_counts(metrics) != counts:
            diff = sorted(k for k in set(counts) | set(exact_counts(metrics))
                          if counts.get(k) != metrics.get(k))
            for op in ops:
                op.fail(f"counts differ between two traced passes: {diff[:5]}")
        counts = exact_counts(metrics)
    metrics["trace.overhead_s"] = median(traced_walls) - median(walls)
    metrics["trace.spans"] = len(tracer.start)
    if spans_path is not None:
        import numpy as np

        np.savez_compressed(spans_path, **tracer.spans())
    return {"walls": walls, "traced_walls": traced_walls, "ops": ops_all, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.load")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", type=Path, help="traced runs save their spans here (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy

    import gradus
    import gradus.cli  # noqa: F401  every CLI command pays this import
    from perfbench.workloads import WORKLOADS

    src = (ROOT / "src" / "gradus").resolve()
    if Path(gradus.__file__).resolve().parent != src:
        print(f"perfbench: gradus was imported from {gradus.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"ready": time.monotonic(), "python": platform.python_version(),
              "numpy": numpy.__version__}
    try:
        if not args.setup_only:
            if args.trace:
                run = traced_passes(wl, inputs, workdir, args.spans)
            else:
                run = timed_passes(wl, inputs, workdir, args.seconds)
            ops = run.pop("ops")
            result.update(run)
            result["attempted"] = len(ops)
            result["failures"] = [f"{op.name}: {op.error}" for op in ops if not op.ok]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
