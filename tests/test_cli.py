"""Command line interface: gen, analyze, sweep."""

import csv
import json
import math
import time

import pytest

from wardrop import ConvergenceError, cli, core
from wardrop.equilibria import SEARCH_POINT_CAP
from wardrop.jsonio import read_flow, read_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen ----------------------------------------------------------------------


def test_gen_braess_sub(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    code, stdout, _ = run(capsys, "gen", "braess-sub", "--m", "3", "--eps", "0.25", "--out", out)
    assert code == 0
    echo = json.loads(stdout)
    assert echo["family"] == "braess-sub"
    assert echo["files"] == {
        "instance": out,
        "x": str(tmp_path / "b.x.json"),
        "z": str(tmp_path / "b.z.json"),
    }
    assert echo["bound"]["value"] == pytest.approx(2.5)
    assert echo["bound"]["requires"] == "eps*(n/2 - 1) < 1"
    instance, profile, deviations = read_instance(out)
    assert profile is None and deviations is None
    x = read_flow(echo["files"]["x"], instance)
    z = read_flow(echo["files"]["z"], instance)
    assert sum(x.loads) > 0 and sum(z.loads) > 0


def test_gen_parallel_sr_and_two_arc(tmp_path, capsys):
    out = str(tmp_path / "sr.json")
    code, stdout, _ = run(
        capsys, "gen", "parallel-sr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--out", out,
    )
    assert code == 0
    assert json.loads(stdout)["bound"]["value"] == pytest.approx(2.5)

    out2 = str(tmp_path / "dr.json")
    code, stdout, _ = run(
        capsys, "gen", "two-arc-dr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--j", "2", "--out", out2,
    )
    assert code == 0
    echo = json.loads(stdout)
    assert echo["bound"]["value"] == pytest.approx(2.0)
    assert echo["achieved"] == pytest.approx(2.0)
    instance, profile, deviations = read_instance(out2)
    assert profile is not None and deviations is not None


def test_gen_matroid(tmp_path, capsys):
    out = str(tmp_path / "mat.json")
    code, stdout, _ = run(
        capsys, "gen", "matroid-unbounded", "--k", "3", "--eps", "0.25", "--out", out
    )
    assert code == 0
    echo = json.loads(stdout)
    assert echo["achieved"] == pytest.approx(2.5)
    instance, _, _ = read_instance(out)
    assert len(instance.commodities[0].strategies) == 4  # the four rank-3 bases


def test_gen_density_discretize(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "gen", "density-discretize", "--density", "uniform:0,1",
        "--eps-prime", "0.25", "--beta", "1", "--which", "sr",
        "--out", str(tmp_path / "d.json"),
    )
    assert code == 0
    echo = json.loads(stdout)
    cont = echo["bound"]["value"]
    disc = echo["discrete_bound"]["value"]
    assert cont == pytest.approx(1.5)
    assert 0.0 <= cont - disc <= 2 * 0.25 + 1e-12

    code, stdout, _ = run(
        capsys, "gen", "density-discretize", "--density", "uniform:0,1",
        "--eps-prime", "0.25", "--beta", "1", "--which", "dr",
        "--out", str(tmp_path / "d2.json"),
    )
    assert code == 0
    echo = json.loads(stdout)
    assert echo["bound"]["value"] == pytest.approx(1.25)
    assert 0.0 <= echo["bound"]["value"] - echo["discrete_bound"]["value"] <= 0.5 + 1e-12


def test_gen_random_sp_deterministic_files(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "c.json")
    code, stdout, _ = run(capsys, "gen", "random-sp", "--seed", "7", "--out", a)
    assert code == 0
    assert "x" not in json.loads(stdout)["files"]
    code, _, _ = run(capsys, "gen", "random-sp", "--seed", "7", "--out", b)
    assert code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def test_gen_bad_params(tmp_path, capsys):
    code, _, stderr = run(capsys, "gen", "braess-sub", "--m", "3",
                          "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in stderr and "eps" in stderr
    code, _, stderr = run(capsys, "gen", "two-arc-dr", "--beta", "-1",
                          "--r", "1", "--gamma", "1", "--out", str(tmp_path / "y.json"))
    assert code == 2


@pytest.mark.parametrize("density", ["uniform:0,inf", "triangular:0,1,inf"])
def test_gen_rejects_non_finite_density(tmp_path, capsys, density):
    code, _, stderr = run(capsys, "gen", "density-discretize", "--density", density,
                          "--eps-prime", "0.5", "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("density", ["uniform:0,1,2", "triangular:0,1"])
def test_gen_rejects_density_with_wrong_arity(tmp_path, capsys, density):
    code, _, stderr = run(capsys, "gen", "density-discretize", "--density", density,
                          "--eps-prime", "0.5", "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "density takes" in stderr


def test_gen_refuses_oversized_discretization_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code, _, stderr = run(capsys, "gen", "density-discretize", "--density", "uniform:0,1",
                          "--eps-prime", "1e-9", "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "more than 1e7 classes" in stderr
    assert time.perf_counter() - start < 5.0


# -- analyze ------------------------------------------------------------------


@pytest.fixture
def braess_files(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    run(capsys, "gen", "braess-sub", "--m", "2", "--eps", "0.5", "--out", out)
    return {
        "instance": out,
        "x": str(tmp_path / "b.x.json"),
        "z": str(tmp_path / "b.z.json"),
    }


def test_analyze_solves_and_reports(braess_files, capsys):
    code, stdout, _ = run(capsys, "analyze", "--instance", braess_files["instance"])
    assert code == 0
    report = json.loads(stdout)
    assert report["valid"] is True
    assert report["nash"]["source"] == "solved"
    assert report["nash"]["cost"] == pytest.approx(1.0, rel=1e-8)
    assert report["nash"]["relative_gap"] <= 1e-9
    assert report["bounds"]["family"]["value"] == pytest.approx(3.0)


def test_analyze_flow_ratio_and_alternating(braess_files, capsys):
    code, stdout, _ = run(
        capsys, "analyze", "--instance", braess_files["instance"],
        "--flow", braess_files["x"], "--flow-ref", braess_files["z"],
        "--eps", "0.5",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["nash"]["source"] == "file"
    flow = report["flow"]
    assert flow["ratio"]["ratio"] == pytest.approx(3.0, rel=1e-9)
    assert flow["approx"]["pass"] is True
    alt = report["alternating"]
    assert alt["q"] == 1
    assert alt["stability_upper"]["value"] == pytest.approx(3.0)
    assert alt["ratio_within_bound"] is True


def test_analyze_rejects_non_equilibrium_reference(braess_files, capsys):
    code, _, stderr = run(
        capsys, "analyze", "--instance", braess_files["instance"],
        "--flow-ref", braess_files["x"],
    )
    assert code == 2
    assert "not an equilibrium" in stderr


def test_analyze_two_arc_class_checks(tmp_path, capsys):
    out = str(tmp_path / "dr.json")
    run(capsys, "gen", "two-arc-dr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--out", out)
    code, stdout, _ = run(
        capsys, "analyze", "--instance", out, "--flow", str(tmp_path / "dr.x.json"),
        "--beta", "1",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["flow"]["approx_classes"]["pass"] is True
    assert report["flow"]["deviated"]["pass"] is True
    assert report["bounds"]["stability_discrete"]["value"] == pytest.approx(2.5)
    assert report["bounds"]["deviation_discrete"]["value"] == pytest.approx(2.0)


def test_analyze_grid_search(tmp_path, capsys):
    out = str(tmp_path / "sr.json")
    run(capsys, "gen", "parallel-sr", "--beta", "1", "--r", "1", "--gamma", "1",
        "--out", out)
    code, stdout, _ = run(
        capsys, "analyze", "--instance", out, "--eps", "1.0", "--grid", "0.25"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["search"]["ratio"]["ratio"] == pytest.approx(2.0, abs=1e-9)
    code, _, stderr = run(capsys, "analyze", "--instance", out, "--grid", "0.25")
    assert code == 2
    assert "--grid needs --eps" in stderr


def test_analyze_refuses_oversized_grid_at_once(tmp_path, capsys):
    out = str(tmp_path / "ladder.json")
    run(capsys, "gen", "braess-sub", "--m", "3", "--eps", "0.25", "--out", out)
    start = time.perf_counter()
    # 5 strategies at 100 steps: C(104, 4) = 4,598,126 grid points
    code, stdout, stderr = run(
        capsys, "analyze", "--instance", out, "--eps", "0.25", "--grid", "0.01"
    )
    assert code == 2
    assert stdout == ""
    assert f"4598126 points, cap is {SEARCH_POINT_CAP}" in stderr
    assert time.perf_counter() - start < 5.0


def test_analyze_refuses_subnormal_grid_before_rounding(tmp_path, capsys):
    out = str(tmp_path / "ladder.json")
    run(capsys, "gen", "braess-sub", "--m", "3", "--eps", "0.25", "--out", out)
    # 1/1e-320 overflows to infinity; 1/1e-300 has a 301-digit point count
    for grid in ("1e-320", "1e-300"):
        code, stdout, stderr = run(
            capsys, "analyze", "--instance", out, "--eps", "0.25", "--grid", grid
        )
        assert code == 2
        assert stdout == ""
        assert f"more than {SEARCH_POINT_CAP} steps, cap is {SEARCH_POINT_CAP}" in stderr
        assert len(stderr) < 200


def test_analyze_csv_inf_bound(tmp_path, capsys):
    out = str(tmp_path / "super.json")
    run(capsys, "gen", "braess-super", "--m", "3", "--eps", "0.5", "--tau", "10",
        "--out", out)
    report_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "analyze", "--instance", out, "--flow", str(tmp_path / "super.x.json"),
        "--flow-ref", str(tmp_path / "super.z.json"),
        "--format", "csv", "--out", str(report_path),
    )
    assert code == 0
    header, row = report_path.read_text().splitlines()
    assert header == "instance,nash_cost,nash_gap,flow_cost,ratio,bound,slack,q"
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["bound"] == "inf"
    assert float(cells["ratio"]) == pytest.approx(1.5 * 21, rel=1e-9)
    assert cells["q"] == "2"


def test_analyze_invalid_inputs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, stderr = run(capsys, "analyze", "--instance", missing)
    assert code == 2
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    code, _, stderr = run(capsys, "analyze", "--instance", str(corrupt))
    assert code == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "schema": "congestion-instance/1",
        "resources": [{"id": "e1", "latency": {"kind": "constant", "value": -1.0}}],
        "commodities": [{"demand": 1.0, "strategies": [["e1"]]}],
    }))
    code, _, stderr = run(capsys, "analyze", "--instance", str(invalid))
    assert code == 2
    assert "instance invalid" in stderr
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({
        "schema": "congestion-instance/1",
        "resources": [{"id": "e1", "latency": {"kind": "constant", "value": 1.0}}],
        "commodities": [{"demand": "one", "strategies": [["e1"]]}],
    }))
    code, _, stderr = run(capsys, "analyze", "--instance", str(malformed))
    assert code == 2
    assert "malformed instance object" in stderr


def test_analyze_rejects_unknown_path_resource(braess_files, tmp_path, capsys):
    obj = json.loads(open(braess_files["instance"], encoding="utf-8").read())
    obj["commodities"][0]["strategies"][0][0] = "ghost"
    bad = tmp_path / "ghost.json"
    bad.write_text(json.dumps(obj))
    code, _, stderr = run(capsys, "analyze", "--instance", str(bad))
    assert code == 2
    assert "unknown resource 'ghost'" in stderr


def test_analyze_rejects_non_finite_flow(braess_files, tmp_path, capsys):
    with open(braess_files["x"], encoding="utf-8") as fh:
        records = json.load(fh)
    records[0]["value"] = float("nan")
    bad = tmp_path / "nan.x.json"
    bad.write_text(json.dumps(records))  # writes a bare NaN
    code, _, stderr = run(capsys, "analyze", "--instance", braess_files["instance"],
                          "--flow", str(bad))
    assert code == 2
    assert "not finite" in stderr


def test_analyze_rejects_non_finite_class(tmp_path, capsys):
    path = tmp_path / "dr.json"
    run(capsys, "gen", "two-arc-dr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--j", "2", "--out", str(path))
    for field in ("value", "demand"):
        obj = json.loads(path.read_text())
        obj["commodities"][0]["classes"][0][field] = float("nan")
        bad = tmp_path / f"nan-{field}.json"
        bad.write_text(json.dumps(obj))  # writes a bare NaN
        code, _, stderr = run(capsys, "analyze", "--instance", str(bad))
        assert code == 2
        assert "must be finite" in stderr


def test_analyze_rejects_incomplete_deviation(tmp_path, capsys):
    path = tmp_path / "dr.json"
    run(capsys, "gen", "two-arc-dr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--j", "2", "--out", str(path))
    obj = json.loads(path.read_text())
    del obj["deviations"]["edges"]["a1"]["value"]
    path.write_text(json.dumps(obj))
    code, _, stderr = run(capsys, "analyze", "--instance", str(path))
    assert code == 2
    assert "missing field 'value'" in stderr


def test_analyze_rejects_bad_beta(tmp_path, capsys):
    path = str(tmp_path / "dr.json")
    run(capsys, "gen", "two-arc-dr", "--beta", "1", "--r", "0.5,0.5",
        "--gamma", "1,2", "--j", "2", "--out", path)
    flow = str(tmp_path / "dr.x.json")
    for beta in ("nan", "inf", "-1"):
        code, _, stderr = run(capsys, "analyze", "--instance", path, "--flow", flow,
                              f"--beta={beta}")
        assert code == 2
        assert "--beta must be a nonnegative finite number" in stderr


def test_analyze_beta_zero_with_classes(tmp_path, capsys):
    path = str(tmp_path / "dr.json")
    run(capsys, "gen", "two-arc-dr", "--beta", "0.5", "--r", "0.5,0.5",
        "--gamma", "1,2", "--out", path)
    code, stdout, _ = run(capsys, "analyze", "--instance", path,
                          "--flow", str(tmp_path / "dr.x.json"), "--beta", "0")
    assert code == 0
    report = json.loads(stdout)
    # beta = 0 checks every class at eps = 0, which the tight flow fails
    assert report["flow"]["approx_classes"]["beta"] == 0.0
    assert report["flow"]["approx_classes"]["pass"] is False
    assert report["flow"]["deviated"]["pass"] is True


def test_analyze_validates_instance_once(braess_files, capsys, monkeypatch):
    calls = []
    collect = core._violations
    monkeypatch.setattr(core, "_violations", lambda inst: calls.append(inst) or collect(inst))
    code, stdout, _ = run(capsys, "analyze", "--instance", braess_files["instance"])
    assert code == 0 and json.loads(stdout)["nash"]["source"] == "solved"
    assert len(calls) == 1


def test_analyze_nonconvergence_exit_code(braess_files, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("did not settle", achieved=0.1)

    monkeypatch.setattr(cli, "compute_nash_flow", explode)
    code, _, stderr = run(capsys, "analyze", "--instance", braess_files["instance"])
    assert code == 3
    assert "did not settle" in stderr


def test_bad_tolerance_env(braess_files, capsys, monkeypatch):
    monkeypatch.setenv("WARDROP_TOL", "banana")
    code, _, stderr = run(capsys, "analyze", "--instance", braess_files["instance"])
    assert code == 2
    assert "WARDROP_TOL" in stderr


# -- sweep --------------------------------------------------------------------


def write_spec(tmp_path, obj) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_sweep_grid_and_metrics(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "braess-sub",
        "params": {"m": [3, 2], "eps": {"start": 0.1, "stop": 0.2, "step": 0.1}},
    })
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(out), "--no-timing")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,eps,m,ratio,bound,gap,q,status,runtime_ms"
    assert len(lines) == 5
    rows = list(csv.reader(lines[1:]))
    # lexicographic over sorted keys: eps ascending, then m ascending
    expected = [(0.1, 2), (0.1, 3), (0.2, 2), (0.2, 3)]
    for r, (e_eps, e_m) in zip(rows, expected):
        assert float(r[1]) == pytest.approx(e_eps)
        assert int(r[2]) == e_m
    for r in rows:
        eps, m = float(r[1]), int(r[2])
        assert float(r[3]) == pytest.approx((1 + eps) / (1 - eps * (m - 1)), rel=1e-9)
        assert int(r[6]) == m - 1
        assert r[7] == "ok"
        assert r[8] == ""  # timing suppressed


def test_sweep_deterministic_and_parallel(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "parallel-sr",
        "params": {"beta": [0.5, 1.0], "r": ["0.4,0.6"], "gamma": ["0.5,1.0"]},
        "outputs": ["ratio", "bound", "gap"],
    })
    outs = []
    for name, jobs in (("s1.csv", "1"), ("s2.csv", "1"), ("s3.csv", "3")):
        out = tmp_path / name
        code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(out),
                         "--jobs", jobs, "--no-timing")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].decode().splitlines()
    row = next(csv.reader([lines[1]]))
    assert float(row[4]) == pytest.approx(float(row[5]))  # ratio == bound
    assert float(row[6]) == pytest.approx(0.0, abs=1e-12)
    assert row[7] == ""  # q not requested


def test_sweep_integer_range_stays_integer(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "braess-sub",
        "params": {"m": {"start": 2, "stop": 4, "step": 1}, "eps": 0.1},
    })
    out = tmp_path / "ints.csv"
    code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(out), "--no-timing")
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    assert [r[2] for r in rows] == ["2", "3", "4"]


def test_sweep_matroid_row(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "matroid-unbounded",
        "params": {"k": 2, "eps": 0.4},
    })
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(out), "--no-timing")
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.4 / 0.6, rel=1e-9)
    assert row[6] == ""  # no graph, no alternating path


def test_sweep_precondition_failure_aborts(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "family": "braess-sub",
        "params": {"m": [2, 3], "eps": [0.6]},  # eps*(m-1) >= 1 at m=3
    })
    out = tmp_path / "never.csv"
    code, _, stderr = run(capsys, "sweep", "--spec", spec, "--out", str(out))
    assert code == 2
    assert "invalid parameter combination" in stderr
    assert not out.exists()


def test_sweep_spec_validation(tmp_path, capsys):
    cases = [
        {"family": "warp", "params": {"m": 2}},
        {"family": "braess-sub", "params": {}},
        {"family": "braess-sub", "params": {"m": 2, "eps": 0.1}, "outputs": ["speed"]},
        {"family": "braess-sub", "params": {"m": 2, "eps": 0.1}, "extra": 1},
        {"family": "braess-sub",
         "params": {"m": 2, "eps": {"start": 0.2, "stop": 0.1, "step": 0.1}}},
        {"family": "braess-sub",
         "params": {"m": 2, "eps": {"start": "a", "stop": 0.2, "step": 0.1}}},
    ]
    for obj in cases:
        spec = write_spec(tmp_path, obj)
        code, _, _ = run(capsys, "sweep", "--spec", spec, "--out",
                         str(tmp_path / "o.csv"))
        assert code == 2
    spec = write_spec(tmp_path, {"family": "braess-sub", "params": {"m": 2, "eps": 0.1}})
    code, _, stderr = run(capsys, "sweep", "--spec", spec)
    assert code == 2
    assert "output path" in stderr


@pytest.mark.parametrize("bounds", [
    {"start": 0, "stop": math.inf, "step": 1},
    {"start": 0, "stop": 1, "step": math.nan},
    {"start": -math.inf, "stop": 1, "step": 1},
    {"start": 0, "stop": 10**400, "step": 1},  # an integer beyond the float range
])
def test_sweep_rejects_non_finite_range(tmp_path, capsys, bounds):
    # json.dumps writes Infinity and NaN, which json.load accepts
    spec = write_spec(tmp_path, {"family": "random-sp", "params": {"seed": bounds}})
    code, _, stderr = run(capsys, "sweep", "--spec", spec, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "must be finite" in stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("spec", [
    {"family": "random-sp", "params": {"seed": {"start": 0, "stop": 1000000000, "step": 1}}},
    {"family": "braess-sub", "params": {"m": 3, "eps": {"start": 0, "stop": 1, "step": 1e-9}}},
    # 1,000 x 1,001 rows, each range below the cap
    {"family": "braess-sub", "params": {"m": {"start": 2, "stop": 1001, "step": 1},
                                        "eps": {"start": 0.0, "stop": 0.5, "step": 0.0005}}},
])
def test_sweep_refuses_oversized_grid_at_once(tmp_path, capsys, spec):
    start = time.perf_counter()
    code, _, stderr = run(capsys, "sweep", "--spec", write_spec(tmp_path, spec),
                          "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert f"more than {cli.SWEEP_ROW_CAP}" in stderr
    assert not (tmp_path / "o.csv").exists()
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("outputs", [5, "ratio"])
def test_sweep_outputs_must_be_a_list(tmp_path, capsys, outputs):
    spec = write_spec(tmp_path, {
        "family": "braess-sub", "params": {"m": 2, "eps": 0.1}, "outputs": outputs,
    })
    code, _, stderr = run(capsys, "sweep", "--spec", spec, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "list of metrics" in stderr


@pytest.mark.parametrize("out", [5, 1])
def test_sweep_spec_out_must_be_a_string(tmp_path, capsys, out):
    spec = write_spec(tmp_path, {"family": "braess-sub", "params": {"m": 2, "eps": 0.1},
                                 "out": out})
    code, stdout, stderr = run(capsys, "sweep", "--spec", spec)
    assert code == 2
    assert stdout == "" and "path string" in stderr


def test_sweep_jobs_below_one(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "braess-sub", "params": {"m": 2, "eps": 0.1}})
    for jobs in ("0", "-3"):
        code, _, stderr = run(capsys, "sweep", "--spec", spec, "--out",
                              str(tmp_path / "o.csv"), "--jobs", jobs)
        assert code == 2
        assert "--jobs" in stderr


def test_unwritable_out_path(braess_files, tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": "braess-sub", "params": {"m": 2, "eps": 0.1}})
    out = str(tmp_path / "missing-dir" / "out.json")
    for argv in (
        ("gen", "braess-sub", "--m", "2", "--eps", "0.5", "--out", out),
        ("analyze", "--instance", braess_files["instance"], "--out", out),
        ("sweep", "--spec", spec, "--out", out),
    ):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert "cannot write output" in stderr


def test_sweep_all_rows_fail_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("stalled", achieved=1.0)

    monkeypatch.setattr(cli, "compute_nash_flow", explode)
    spec = write_spec(tmp_path, {
        "family": "random-sp",
        "params": {"seed": [1, 2], "depth": 2},
        "outputs": ["gap"],
    })
    out = tmp_path / "fail.csv"
    code, _, _ = run(capsys, "sweep", "--spec", spec, "--out", str(out), "--no-timing")
    assert code == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert "error:ConvergenceError" in line
