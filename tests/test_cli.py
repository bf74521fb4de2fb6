import json
import os
import pathlib
import subprocess
import sys

import pytest

import gradus
import gradus.cli
import gradus.points
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


@pytest.mark.parametrize("field", ["Q", "2147483647"])
def test_ideal_config_names_the_points_field(capsys, monkeypatch, tmp_path, field):
    pts = tmp_path / "pts.json"
    run(capsys, "points", "--s", "4", "--n", "2", "--seed", "3", "--field", field,
        "--out", str(pts))
    monkeypatch.setenv("GRADUS_FIELD", "32003")  # neither the default nor --field applies
    code, out, _ = run(capsys, "ideal", "--points", str(pts), "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["field"] == data["ring"]["field"] == field
    assert data["oracle_agrees"] is True


@pytest.mark.parametrize("points", [
    [["1", "0", "0"], ["1", "1", "0"], ["1", "2", "0"]],
    [["1", "0", "0"], ["1", "1", "0"], ["1", "2", "0"], ["1", "3", "0"], ["0", "0", "1"]],
], ids=("collinear", "collinear-plus-two"))
def test_ideal_of_points_off_general_position_agrees_with_oracle(tmp_path, capsys, points):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"n": 2, "field": "32003", "seed": None, "points": points}))
    code, out, _ = run(capsys, "ideal", "--points", str(src), "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["oracle_agrees"] is True
    if len(points) == 3:
        assert data["groebner"][0] == "x2" and len(data["groebner"]) == 2


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


def test_python_dash_m_gradus_runs_the_cli():
    src = str(pathlib.Path(gradus.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "GRADUS_FIELD"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradus", "parse-check", "--poly", "x0^2+x1*x2-3*x2^2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN_DIR / "parse_check_out.json").read_text()


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


@pytest.mark.parametrize("poly", ["x0*", "x0*x1*", "2*"])
def test_trailing_star_exits_2(capsys, poly):
    code, _, err = run(capsys, "parse-check", "--poly", poly)
    assert code == 2
    assert err.startswith("gradus: parse error:")


@pytest.mark.parametrize("flags, message", [
    (["--poly", "1/0*x0"], "bad F_32003 scalar '1/0'"),
    (["--field", "7", "--poly", "1/7*x0"], "bad F_7 scalar '1/7': inverse of zero in F_7"),
    (["--field", "Q", "--poly", "x0-1/0*x1"], "bad rational scalar '1/0'"),
], ids=("zero-denominator", "denominator-divisible-by-p", "zero-denominator-Q"))
def test_bad_coefficient_exits_2(capsys, flags, message):
    code, _, err = run(capsys, "parse-check", *flags)
    assert code == 2
    assert err.startswith(f"gradus: parse error: {message}")


POINTS_OK = {"n": 2, "field": "32003", "points": [["1", "2", "3"]]}
IDEAL_OK = {"ring": {"nvars": 3, "field": "32003", "order": "grevlex"}, "generators": ["x0"]}


@pytest.mark.parametrize("command, payload, message", [
    ("ideal", {**POINTS_OK, "points": []}, "bad point set: need at least one point"),
    ("ideal", {**POINTS_OK, "points": [[1, 2, 3]]}, "a coordinate must be a string"),
    ("ideal", {"n": 2, "field": "32003"}, "point set has no 'points'"),
    ("ideal", [POINTS_OK], "point set must be an object"),
    ("betti", [IDEAL_OK], "ideal must be an object"),
    ("betti", {**IDEAL_OK, "generators": ["x0", 3]}, "a generator must be a string"),
], ids=("no-points", "integer-coordinates", "missing-points", "points-list",
        "ideal-list", "integer-generator"))
def test_malformed_json_input_exits_2(tmp_path, capsys, command, payload, message):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    flag = "--points" if command == "ideal" else "--ideal"
    code, out, err = run(capsys, command, flag, str(src))
    assert code == 2 and out == ""
    assert err.startswith(f"gradus: parse error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["betti", "hilbert", "socle", "artinian", "hom"])
@pytest.mark.parametrize("payload, message", [
    ({**IDEAL_OK, "ring": {"nvars": 0}}, "bad ring: need at least one variable"),
    ({**IDEAL_OK, "generators": ["x0-x0"]}, "bad ideal: zero generator"),
    ({**IDEAL_OK, "generators": ["x0^2+x1"]}, "bad ideal: non-homogeneous generator: x0^2+x1"),
], ids=("nvars-0", "zero-generator", "non-homogeneous"))
def test_ideal_file_the_constructors_refuse_exits_2(tmp_path, capsys, command, payload, message):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps(payload))
    extra = ["--points", str(GOLDEN_DIR / "points_s4.json")] if command == "hom" else []
    code, out, err = run(capsys, command, *extra, "--ideal", str(src))
    assert code == 2 and out == ""
    assert err == f"gradus: parse error: {message}\n"


@pytest.mark.parametrize("source", ["ideal-gens", "parse-check", "ideal-file"])
def test_elimination_order_with_empty_block_exits_2(tmp_path, capsys, source):
    """elim0 eliminates no variable: malformed input, not a failed computation."""
    if source == "ideal-file":
        src = tmp_path / "ideal.json"
        src.write_text(json.dumps({**IDEAL_OK, "ring": {**IDEAL_OK["ring"], "order": "elim0"}}))
        argv = ["betti", "--ideal", str(src)]
    elif source == "ideal-gens":
        argv = ["ideal", "--gens", "x0", "--order", "elim0"]
    else:
        argv = ["parse-check", "--poly", "x0", "--order", "elim0"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "gradus: parse error: unknown term order 'elim0'\n"


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


def test_hilbert_rejects_the_deleted_limit_flag(capsys):
    # the polynomial is proven for every ideal, so no limit is left to set
    with pytest.raises(SystemExit) as exc:
        dispatch(["hilbert", "--ideal", str(GOLDEN_DIR / "ideal_2pts.json"),
                  "--probe-limit", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_parser_is_built_once_and_reads_the_env_per_command(capsys, monkeypatch):
    built = []
    original = gradus.cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(gradus.cli, "build_parser", counted)
    gradus.cli._parser.cache_clear()
    fields = []
    for env in ("101", "103", None):
        if env is None:
            monkeypatch.delenv("GRADUS_FIELD", raising=False)
        else:
            monkeypatch.setenv("GRADUS_FIELD", env)
        code, out, _ = run(capsys, "points", "--s", "2", "--n", "1", "--seed", "4")
        assert code == 0
        fields.append(json.loads(out)["field"])
    code, out, _ = run(capsys, "points", "--s", "2", "--n", "1", "--seed", "4", "--field", "7")
    assert code == 0 and json.loads(out)["field"] == "7"
    gradus.cli._parser.cache_clear()
    assert fields == ["101", "103", "32003"]
    assert built == [1]


@pytest.mark.parametrize("flags, word", [
    (["--s", "0"], "positive"),
    (["--s", "-3"], "positive"),
    (["--s", "x"], "positive"),
    (["--s", "3", "--n", "-1"], "non-negative"),
])
def test_bad_point_counts_and_dimensions_exit_2(capsys, flags, word):
    with pytest.raises(SystemExit) as exc:
        dispatch(["points", "--seed", "1"] + flags)
    assert exc.value.code == 2
    assert word in capsys.readouterr().err


def test_several_points_in_p0_is_refused_before_sampling(capsys, monkeypatch):
    monkeypatch.setattr(gradus.points, "normalize_point", None)  # sampling would fail
    code, _, err = run(capsys, "points", "--s", "3", "--n", "0", "--seed", "1")
    assert code == 1
    assert "P^0 has one point" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "pts.json"
    code, out, _ = run(capsys, "points", "--s", "2", "--n", "2", "--seed", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["seed"] == 1


@pytest.mark.parametrize("argv, word", [
    (["experiment", "socle-groups", "--max-s", "1"], ">= 2"),
    (["experiment", "socle-groups", "--max-s", "0"], ">= 2"),
    (["experiment", "socle-groups", "--max-s", "-4"], ">= 2"),
    (["experiment", "socle-groups", "--trials", "0"], "positive"),
    (["experiment", "monomial", "--s1", "0"], "positive"),
    (["experiment", "monomial", "--s2", "0"], "positive"),
    (["ideal", "--gens", "x0", "--nvars", "0"], "positive"),
    (["parse-check", "--poly", "x0", "--nvars", "0"], "positive"),
], ids=("max-s-1", "max-s-0", "max-s-negative", "trials-0", "s1-0", "s2-0",
        "ideal-nvars-0", "parse-check-nvars-0"))
def test_bad_experiment_and_ring_sizes_exit_2(capsys, argv, word):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert word in capsys.readouterr().err


def test_hilbert_of_a_late_stabilizing_ideal(tmp_path, capsys):
    # HF is d+1 through degree 11, then 12: a polynomial fitted to a few
    # low degrees would read d+1
    code, out, _ = run(capsys, "ideal", "--gens", "x0", "x1^2*x2^10", "--nvars", "3")
    assert code == 0
    src = tmp_path / "I.json"
    src.write_text(out)
    code, out, _ = run(capsys, "hilbert", "--ideal", str(src))
    assert code == 0
    assert '"polynomial": "12"' in out and '"stable_from": 11' in out
    assert json.loads(out)["values"] == list(range(1, 13)) + [12]


def test_hilbert_prints_the_polynomial_however_late_it_holds(tmp_path, capsys):
    code, out, _ = run(capsys, "ideal", "--gens", "x0", "x1^2*x2^40", "--nvars", "3")
    assert code == 0
    src = tmp_path / "I.json"
    src.write_text(out)
    code, out, _ = run(capsys, "hilbert", "--ideal", str(src))
    assert code == 0
    assert '"polynomial": "42"' in out and '"stable_from": 41' in out


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=("plain", "oracle"))
@pytest.mark.parametrize("field", ["32003", "Q"])
def test_ideal_of_points_runs_no_f4(capsys, monkeypatch, tmp_path, oracle, field):
    """`gradus ideal --points` reads its basis off the kernel blocks (and
    the oracle off its meets): F4 runs only for `--gens`."""
    import gradus.groebner
    calls = []
    plain = gradus.groebner._f4
    monkeypatch.setattr(gradus.groebner, "_f4", lambda *a: calls.append(a) or plain(*a))
    pts = tmp_path / "pts.json"
    run(capsys, "points", "--s", "12", "--n", "3", "--seed", "5", "--field", field,
        "--out", str(pts))
    code, out, _ = run(capsys, "ideal", "--points", str(pts), *oracle)
    assert code == 0 and json.loads(out)["groebner"]
    assert not calls
    run(capsys, "ideal", "--gens", "x0^2-x1*x2", "x1^2", "--nvars", "3")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["ideal"],
    ["hom", "--points", str(GOLDEN_DIR / "points_s4.json"),
     "--ideal", str(GOLDEN_DIR / "J_lin.json"), "--range", "abc"],
], ids=["ideal-without-points-or-gens", "hom-unreadable-range"])
def test_request_the_parser_cannot_read_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("gradus: parse error:")
