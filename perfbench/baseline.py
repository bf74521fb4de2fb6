"""Measure the benchmark's own spread and write perfbench/baseline.json.

    python3 perfbench/baseline.py --seconds 36 --sets 2 --seeds 10

Run from the repository root. For each set it runs every workload once per
seed, the workloads taking turns, with tracing off; the sets use disjoint
seeds (1-10, 11-20, ...). First it runs each workload traced on seeds 1
and 2 and keeps the per-layer metrics. For each workload and end-to-end
metric it records the median, the quartiles and the spread
(Q3 - Q1) / median of each set, and how far the second set's median lies
from the first's. One run at a time; the whole thing takes about
(sets * seeds + 2) * workloads * (seconds + 5) seconds.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if trace == 0), flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = ap.parse_args(argv)

    per_layer = {w: {str(seed): one_run(w, seed, args.seconds, 1)["metrics"] for seed in (1, 2)}
                 for w in args.workloads}
    runs = {w: [] for w in args.workloads}
    for k in range(args.sets):
        seeds = list(range(k * args.seeds + 1, (k + 1) * args.seeds + 1))
        for seed in seeds:
            for w in args.workloads:
                runs[w].append((k, seed, one_run(w, seed, args.seconds, 0)))

    end_to_end = {}
    for w, got in runs.items():
        end_to_end[w] = {}
        for m in BENCHMARK["end_to_end"]:
            sets = []
            for k in range(args.sets):
                mine = [(seed, r) for j, seed, r in got if j == k]
                values = [r["metrics"][m["name"]]["value"] for _, r in mine]
                sets.append({"seeds": [seed for seed, _ in mine], "values": values,
                             "attempted": sum(r["attempted"] for _, r in mine),
                             "failed": sum(r["failed"] for _, r in mine), **summary(values)})
            entry = {"unit": m["unit"], "bound": m["bound"], "sets": sets}
            if len(sets) > 1:
                entry["second_vs_first"] = sets[1]["median"] / sets[0]["median"] - 1
            end_to_end[w][m["name"]] = entry

    env = json.loads((ROOT / ".perfbench_out" / f"report-{args.workloads[0]}-seed1-trace1.json")
                     .read_text())["env"]
    out = {"about": "Medians, quartiles and spread = (Q3 - Q1) / median of each end-to-end "
                    "metric over the seeds of each set, and the traced per-layer metrics "
                    "on seeds 1 and 2; written by perfbench/baseline.py.",
           "run_seconds": args.seconds, "env": env,
           "end_to_end": end_to_end, "per_layer": per_layer}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for w, metrics in end_to_end.items():
        for name, e in metrics.items():
            spreads = ", ".join(f"{s['spread']:.3f}" for s in e["sets"])
            drift = f", second vs first {e['second_vs_first']:+.3f}" if "second_vs_first" in e else ""
            print(f"{w} {name}: bound {e['bound']}, spreads {spreads}{drift}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
