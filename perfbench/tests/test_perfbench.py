"""Tests of the benchmark itself: output schema, tracer hygiene, checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import gradus
from perfbench import calibrate, load, run, trace, workloads

from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one pass takes well under a second."""
    monkeypatch.setattr(workloads, "POINTS_BETTI_INSTANCES",
                        (("P2-s6", 6, 2, "32003"), ("P2-s7-Q", 7, 2, "Q")))
    monkeypatch.setattr(workloads, "SCAN_RANGE", (2, 9))
    monkeypatch.setattr(workloads, "SCAN_TRIALS", 1)
    monkeypatch.setattr(workloads, "SCAN_GROUP_SIZES", [3, 5])
    monkeypatch.setattr(workloads, "SCAN_GROUP_RANGES", [[2, 4], [5, 9]])
    monkeypatch.setattr(workloads, "HOM_POINT_COUNTS", (5,))
    monkeypatch.setattr(workloads, "HOM_ORACLE_AT", 5)


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_per_layer_values_name_every_metric():
    values = run.per_layer_values({"field.calls": 3, "experiments.scan.rows": 4,
                                   "experiments.scan.attempts": 5})
    assert list(values) == list(run.PER_LAYER)
    assert values["field.calls"] == 3
    assert values["hom.calls"] == 0
    assert values["experiments.scan.useful_ratio"] == 0.8


def _namespaces():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "gradus" or name.startswith("gradus.")}
    classes = {cls: dict(vars(cls)) for cls in
               (gradus.ring.Poly, gradus.groebner.Ideal, gradus.points.PointSet)}
    return mods, classes


def test_tracer_patches_every_namespace_and_restores_the_originals():
    before = _namespaces()
    rank = gradus.field.rank
    with trace.Tracer() as tracer:
        assert gradus.field.rank is not rank
        assert gradus.hilbert.rank is gradus.field.rank is gradus.rank
        assert gradus.betti.rank is not gradus.field.rank  # the Koszul span
        gradus.betti.rank(gradus.field.PrimeField(7), [[1, 2, 3], [2, 4, 6]])
    assert _namespaces() == before
    m = tracer.metrics()
    assert m["betti.koszul_rank.calls"] == m["field.rank.calls"] == 1
    assert m["field.rank.cells"] == m["betti.koszul_rank.cells"] == 6


def test_tracer_skips_missing_targets_and_undoes_a_failed_install(monkeypatch):
    before = _namespaces()
    kept = gradus.hom.row_space_basis
    monkeypatch.delattr(gradus.field, "row_space_basis")
    with trace.Tracer() as tracer:
        assert gradus.hom.row_space_basis is kept
    assert tracer.metrics().get("field.row_space_basis.calls", 0) == 0
    monkeypatch.undo()
    gone = ("x.f", "gradus.gone", "f", None, None)
    monkeypatch.setattr(trace, "TARGETS", trace.TARGETS + (gone,))
    with pytest.raises(KeyError):
        trace.Tracer().__enter__()
    assert _namespaces() == before


def test_span_metrics_self_time_and_outermost_time():
    # nf [0, 10] > nf [1, 4] > monic [2, 3];  nf [0, 10] > monic [5, 9]
    names = ["groebner.normal_form", "ring.Poly.monic"]
    m = trace.span_metrics(names, [0, 0, 1, 1], [-1, 0, 1, 0],
                           [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], {"x.cells": 7})
    assert m["groebner.normal_form.calls"] == 2
    assert m["groebner.normal_form.s"] == 10.0
    assert m["groebner.normal_form.self_s"] == (10 - 3 - 4) + (3 - 1)
    assert m["groebner.s"] == 10.0 and m["groebner.self_s"] == 5.0
    assert m["ring.Poly.monic.s"] == m["ring.self_s"] == 5.0
    assert m["field.calls"] == 0
    assert m["x.cells"] == 7


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree(small, tmp_path, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(3)
    _, ops, plain = load._one_pass(wl, inputs, tmp_path)
    assert [op.name for op in ops if not op.ok] == []
    _, ops, traced = load._one_pass(wl, inputs, tmp_path, trace.Tracer())
    assert [op.name for op in ops if not op.ok] == []
    assert traced == plain


def test_traced_run_counts_repeat_exactly(small, tmp_path):
    wl = workloads.WORKLOADS["socle-scan"]
    got = load.traced_passes(wl, wl.make_inputs(5), tmp_path, tmp_path / "spans.npz")
    assert [op.error for op in got["ops"] if not op.ok] == []
    m = got["metrics"]
    assert m["groebner.normal_form.calls"] == 0
    assert m["experiments.scan.rows"] == 8
    assert (tmp_path / "spans.npz").exists()


def test_timed_passes_keep_the_calibration_rounds_of_each_pass(small, tmp_path):
    wl = workloads.WORKLOADS["socle-scan"]
    got = load.timed_passes(wl, wl.make_inputs(1), tmp_path, seconds=0)
    assert len(got["walls"]) == len(got["cals"]) == 1
    assert len(got["cals"][0]) >= 1 and min(got["cals"][0]) > 0


def test_sampler_runs_rounds_inside_a_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(period=0.05) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    assert len(sampler.rounds) >= 2
    assert sampler.busy == pytest.approx(sum(sampler.rounds), rel=0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wall_rel_is_the_median_of_each_pass_over_its_own_rounds():
    assert run.wall_rel([4.0, 6.0, 5.0], [[1.0, 1.0], [0.5], [0.5, 1.5]]) == 5.0


def test_calibration_round_is_fixed_work():
    results = [kernel(reps) for kernel, reps in calibrate.ROUND]
    assert results == [kernel(reps) for kernel, reps in calibrate.ROUND]
    assert calibrate.calibration_round() > 0


def test_inputs_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.make_inputs(7) == wl.make_inputs(7)
        assert wl.make_inputs(7) != wl.make_inputs(8)


@pytest.mark.parametrize("name, constant, wrong, op_name", [
    ("points-betti", "TABLE4", {(0, 0): 1, (1, 3): 2}, "P2-s7-Q/betti"),
    ("socle-scan", "SCAN_GROUP_SIZES", [3, 4], "socle_group_scan"),
])
def test_a_wrong_expected_value_fails_the_operation(small, monkeypatch, tmp_path,
                                                    name, constant, wrong, op_name):
    monkeypatch.setattr(workloads, constant, wrong)
    wl = workloads.WORKLOADS[name]
    got = load.timed_passes(wl, wl.make_inputs(1), tmp_path, seconds=0)
    assert [op.name for op in got["ops"] if not op.ok] == [op_name]


def test_wrong_hilbert_expectation_fails(small, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "_general_hf", lambda n, s, d: s)
    wl = workloads.WORKLOADS["points-betti"]
    got = load.timed_passes(wl, wl.make_inputs(1), tmp_path, seconds=0)
    assert [op.name for op in got["ops"] if not op.ok] == ["P2-s6/hilbert", "P2-s7-Q/hilbert"]


def test_text_value_evaluates_without_gradus():
    assert workloads._text_value("x0^2-3*x0*x1+x2", (2, 1, 2), 7) == (4 - 6 + 2) % 7
    assert workloads._text_value("1/2*x0-x1", (2, 1), None) == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "hom-colon",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
