import json
import os

import pytest

from gradus.cli import dispatch
from conftest import GOLDEN_DIR, check_golden

REGEN = bool(os.environ.get("GRADUS_REGEN_GOLDEN"))


def run(capsys, *args):
    code = dispatch(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module", autouse=True)
def golden_inputs():
    """Stored CLI inputs; regenerated alongside the golden outputs."""
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        dispatch(["points", "--s", "2", "--n", "2", "--seed", "1",
                  "--out", str(GOLDEN_DIR / "points_s2.json")])
        dispatch(["points", "--s", "4", "--n", "2", "--seed", "2",
                  "--out", str(GOLDEN_DIR / "points_s4.json")])
        dispatch(["ideal", "--points", str(GOLDEN_DIR / "points_s2.json"),
                  "--out", str(GOLDEN_DIR / "ideal_2pts.json")])
        (GOLDEN_DIR / "ideal_m2sq.json").write_text(json.dumps({
            "ring": {"nvars": 3, "field": "32003", "order": "grevlex"},
            "generators": ["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"],
        }, indent=2, sort_keys=True) + "\n")
        (GOLDEN_DIR / "J_lin.json").write_text(json.dumps({
            "ring": {"nvars": 3, "field": "32003", "order": "grevlex"},
            "generators": ["x0+2*x1+5*x2"],
        }, indent=2, sort_keys=True) + "\n")
    yield


def test_points_golden(capsys):
    code, out, _ = run(capsys, "points", "--s", "2", "--n", "2", "--seed", "1")
    assert code == 0
    check_golden("points_out.json", out)
    data = json.loads(out)
    assert len(data["points"]) == 2
    assert data["config"]["field"] == "32003"


def test_points_deterministic(capsys):
    _, out1, _ = run(capsys, "points", "--s", "3", "--n", "2", "--seed", "9")
    _, out2, _ = run(capsys, "points", "--s", "3", "--n", "2", "--seed", "9")
    assert out1 == out2


def test_ideal_with_oracle(capsys):
    code, out, _ = run(capsys, "ideal",
                       "--points", str(GOLDEN_DIR / "points_s2.json"), "--oracle")
    assert code == 0
    check_golden("ideal_oracle_out.json", out)
    data = json.loads(out)
    assert data["oracle_agrees"] is True
    assert len(data["groebner"]) == 2


def test_ideal_from_generators(capsys):
    code, out, _ = run(capsys, "ideal", "--gens", "x0^2-x1*x2", "3*x1^2", "--nvars", "3")
    assert code == 0
    data = json.loads(out)
    assert "x1^2" in data["groebner"]


def test_betti_text_golden(capsys):
    code, out, _ = run(capsys, "betti", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"))
    assert code == 0
    assert out == "   1 2 1\n0: 1 1 -\n1: - 1 1\n"


def test_betti_json_matches_text(capsys):
    _, out, _ = run(capsys, "betti", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                    "--format", "json")
    data = json.loads(out)
    cells = {(c["i"], c["j"]): c["value"] for c in data["betti"]}
    assert cells == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}


def test_hilbert_golden(capsys):
    code, out, _ = run(capsys, "hilbert", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                       "--max-degree", "6")
    assert code == 0
    check_golden("hilbert_out.json", out)
    data = json.loads(out)
    assert data["values"] == [1, 2, 2, 2, 2, 2, 2]
    assert data["stable_from"] == 1
    assert data["polynomial"] == "2"
    assert data["artinian"] is False


def test_socle_golden(capsys):
    code, out, _ = run(capsys, "socle", "--ideal", str(GOLDEN_DIR / "ideal_m2sq.json"))
    assert code == 0
    check_golden("socle_out.json", out)
    data = json.loads(out)
    assert data == {"artinian": True, "socle_degree": 1, "initial_degree": 2,
                    "config": {"schema": 1}}


def test_socle_of_the_unit_ideal_is_null(tmp_path, capsys):
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({
        "ring": {"nvars": 3, "field": "32003", "order": "grevlex"},
        "generators": ["x0", "1"],
    }))
    code, out, _ = run(capsys, "socle", "--ideal", str(unit))
    assert code == 0
    data = json.loads(out)
    assert data == {"artinian": True, "socle_degree": None, "initial_degree": 0,
                    "config": {"schema": 1}}
    assert '"socle_degree": null' in out


def test_artinian_subcommand(capsys):
    code, out, _ = run(capsys, "artinian", "--ideal", str(GOLDEN_DIR / "ideal_m2sq.json"),
                       "--max-degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["artinian"] is True
    assert data["hilbert_head"] == [1, 3, 0, 0, 0]


def test_hom_golden(capsys):
    code, out, _ = run(capsys, "hom", "--points", str(GOLDEN_DIR / "points_s4.json"),
                       "--ideal", str(GOLDEN_DIR / "J_lin.json"), "--range", "0:4")
    assert code == 0
    check_golden("hom_out.json", out)
    data = json.loads(out)
    assert data["s"] == 4
    assert data["dims"]["2"] == 4  # = s at delta


def test_hom_reversed_range_exits_2(capsys):
    code, out, err = run(capsys, "hom", "--points", str(GOLDEN_DIR / "points_s4.json"),
                         "--ideal", str(GOLDEN_DIR / "J_lin.json"), "--range", "3:1")
    assert code == 2 and out == ""
    assert err.startswith("gradus: parse error:")


def test_hom_negative_range_start(capsys):
    code, out, _ = run(capsys, "hom", "--points", str(GOLDEN_DIR / "points_s4.json"),
                       "--ideal", str(GOLDEN_DIR / "J_lin.json"), "--range=-3:1")
    assert code == 0
    data = json.loads(out)
    # J is linear: Hom_{-1} is the constants, degrees below have t < 0
    assert data["dims"] == {"-1": 1, "0": 3, "1": 4}
    assert data["config"]["range"] == [-3, 1]


def test_hom_negative_range_start_as_a_separate_argument(capsys):
    common = ("hom", "--points", str(GOLDEN_DIR / "points_s4.json"),
              "--ideal", str(GOLDEN_DIR / "J_lin.json"))
    code, out, _ = run(capsys, *common, "--range", "-3:1")
    assert code == 0
    _, glued, _ = run(capsys, *common, "--range=-3:1")
    assert out == glued
    assert json.loads(out)["dims"] == {"-1": 1, "0": 3, "1": 4}
    for reversed_range in ("3:1", "-1:-3"):
        code, out, err = run(capsys, *common, "--range", reversed_range)
        assert code == 2 and out == ""
        assert err.startswith("gradus: parse error:")


def test_socle_groups_golden(capsys):
    code, out, _ = run(capsys, "experiment", "socle-groups", "--max-s", "25",
                       "--trials", "3", "--seed", "7", "--format", "json")
    assert code == 0
    check_golden("socle_groups_out.json", out)


def test_parse_check_golden(capsys):
    code, out, _ = run(capsys, "parse-check", "--poly", "x0^2+x1*x2-3*x2^2")
    assert code == 0
    check_golden("parse_check_out.json", out)
    assert json.loads(out)["roundtrip"] is True


def test_experiment_reproduce_json(capsys):
    code, out, _ = run(capsys, "experiment", "reproduce", "--case", "table1",
                       "--seed", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["name"] == "table1"


def test_experiment_text_output(capsys):
    code, out, _ = run(capsys, "experiment", "reproduce", "--case", "hilb_JX1",
                       "--seed", "3")
    assert code == 0
    assert "[PASS]" in out and "=> PASS" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "hilbert", "--ideal", "/nonexistent-gradus.json")
    assert code == 2
    assert err.startswith("gradus: io error:")


def test_bad_polynomial_exits_2(capsys):
    code, _, err = run(capsys, "parse-check", "--poly", "x0^2+q")
    assert code == 2
    assert err.startswith("gradus: parse error:")


def test_compute_error_exits_1(capsys):
    code, _, err = run(capsys, "ideal", "--gens", "x0^2+x1")
    assert code == 1
    assert err.startswith("gradus: compute error:")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["points", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["betti", "hilbert", "artinian"])
def test_negative_max_degree_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                  "--max-degree", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "x"])
def test_bad_probe_limit_exits_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        dispatch(["hilbert", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                  "--probe-limit", value])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_betti_json_certificate(capsys):
    code, out, _ = run(capsys, "betti", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                       "--format", "json", "--max-degree", "2")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"] == {"rule": "section", "bound": 3, "sections": 1}
    assert data["truncated"] is True and data["max_degree"] == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    assert "gradus" in capsys.readouterr().out


def test_field_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GRADUS_FIELD", "101")
    code, out, _ = run(capsys, "points", "--s", "2", "--n", "1", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "101"
    assert data["config"]["field"] == "101"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "pts.json"
    code, out, _ = run(capsys, "points", "--s", "2", "--n", "2", "--seed", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["seed"] == 1
