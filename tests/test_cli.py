import json

import pytest

from conftest import count_waypoint_generation
from turnplan.cli import main
from turnplan.geometry import load_part_layout


def _generate(tmp_path, name="layout.json", n=40, seed=7):
    path = tmp_path / name
    assert main(["generate", "--n", str(n), "--radius", "0.15",
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_generate_writes_loadable_layout(tmp_path, capsys):
    path = _generate(tmp_path)
    part = load_part_layout(path)
    assert len(part.holes) == 40
    assert "40 holes" in capsys.readouterr().out


def test_generate_minimal_layout(tmp_path):
    path = _generate(tmp_path, n=1)
    assert len(load_part_layout(path).holes) == 1


def test_generate_round_trip_is_byte_identical(tmp_path):
    first = _generate(tmp_path, "a.json")
    load_part_layout(first)  # ingest in between
    second = _generate(tmp_path, "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_generate_rejects_bad_n(tmp_path, capsys):
    code = main(["generate", "--n", "0", "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code != 0
    assert "error" in captured.err
    assert captured.out == ""


def test_plan_baseline_deterministic_file(tmp_path, capsys):
    layout = _generate(tmp_path, n=3)
    out_a, out_b = tmp_path / "a_plan.json", tmp_path / "b_plan.json"
    assert main(["plan", str(layout), "--algorithm", "baseline", "--out", str(out_a)]) == 0
    assert main(["plan", str(layout), "--algorithm", "baseline", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = json.loads(out_a.read_text())
    assert sorted(r["waypoint_index"] for r in records) == [0, 1, 2]


def test_plan_greedy_reproducible_for_fixed_seed(tmp_path):
    layout = _generate(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["plan", str(layout), "--algorithm", "greedy",
                     "--seed", "3", "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_plan_summary_line(tmp_path, capsys):
    layout = _generate(tmp_path)
    capsys.readouterr()  # drop the generate message
    assert main(["plan", str(layout), "--out", str(tmp_path / "p.json")]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("n=40 ")
    assert "ssp_distance_m=" in line and "planning_time_s=" in line


def test_plan_json_summary(tmp_path, capsys):
    layout = _generate(tmp_path)
    capsys.readouterr()  # drop the generate message
    assert main(["plan", str(layout), "--format", "json",
                 "--out", str(tmp_path / "p.json")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 40
    assert summary["total_rotation_rad"] <= 6.2832


def test_plan_missing_layout_fails_cleanly(tmp_path, capsys):
    code = main(["plan", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")])
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"holes": 5, "turntable_axis": [0, 0, 1], "turntable_center": [0, 0, 0]},
    [{"origin": [0, 0, 0]}],
    {"holes": [{"origin": {"x": 0}, "x_axis": [1, 0, 0], "y_axis": [0, 1, 0],
                "z_axis": [0, 0, 1]}],
     "turntable_axis": [0, 0, 1], "turntable_center": [0, 0, 0]},
], ids=["holes-not-a-list", "top-level-list", "origin-not-a-vector"])
def test_plan_wrong_typed_layout_fails_cleanly(tmp_path, capsys, doc):
    layout = tmp_path / "bad.json"
    layout.write_text(json.dumps(doc))
    code = main(["plan", str(layout), "--out", str(tmp_path / "p.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["plan", "bench"])
@pytest.mark.parametrize("flag,value,field", [
    ("--attack-deg", "nan", "attack"), ("--standoff", "inf", "standoff"),
    ("--robot-center-deg", "nan", "robot_center_angle"),
    ("--robot-speed", "nan", "robot_linear_speed"), ("--dwell", "nan", "dwell_per_point"),
])
def test_non_finite_flags_fail_cleanly(tmp_path, capsys, command, flag, value, field):
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()  # drop the generate message
    outputs = {"plan": ["--out", str(tmp_path / "p.json")],
               "bench": ["--trials", "1", "--report", str(tmp_path / "r.csv"),
                         "--plot-data", str(tmp_path / "d.csv")]}[command]
    code = main([command, str(layout), flag, value] + outputs)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field} must be finite")
    assert len(err.strip().splitlines()) == 1


def test_plan_generates_waypoints_once(tmp_path, monkeypatch):
    layout = _generate(tmp_path)
    calls = count_waypoint_generation(monkeypatch)
    assert main(["plan", str(layout), "--out", str(tmp_path / "p.json")]) == 0
    assert len(calls) == 1


def test_plan_rejects_unknown_algorithm(tmp_path):
    layout = _generate(tmp_path, n=3)
    with pytest.raises(SystemExit) as exc:
        main(["plan", str(layout), "--algorithm", "santa", "--out", str(tmp_path / "p.json")])
    assert exc.value.code != 0


def _plan_ssp(layout, algorithm, seed, out, capsys):
    assert main(["plan", str(layout), "--algorithm", algorithm, "--seed", str(seed),
                 "--format", "json", "--out", str(out)]) == 0
    return json.loads(capsys.readouterr().out)["ssp_distance_m"]


def test_greedy_beats_baseline_on_bundled_layout(bundled_layout_path, tmp_path, capsys):
    out = tmp_path / "p.json"
    baseline = _plan_ssp(bundled_layout_path, "baseline", 0, out, capsys)
    wins = sum(_plan_ssp(bundled_layout_path, "greedy", seed, out, capsys) <= baseline
               for seed in range(50))
    assert wins >= 45  # >= 90% of seeds


def test_bench_writes_reports_with_expected_shape(tmp_path, capsys):
    layout = _generate(tmp_path)
    report, plot = tmp_path / "rep.csv", tmp_path / "plot.csv"
    assert main(["bench", str(layout), "--trials", "3",
                 "--report", str(report), "--plot-data", str(plot)]) == 0
    report_lines = report.read_text().strip().splitlines()
    assert len(report_lines) == 1 + 3 * 4  # header + 3 algorithms x (3 trials + mean)
    assert report_lines[0].endswith("improvement_vs_baseline")
    improvements = [line.rsplit(",", 1)[1] for line in report_lines[1:] if ",mean," in line]
    assert len(improvements) == 3
    assert all(abs(float(v)) < 1.0 for v in improvements)
    plot_lines = plot.read_text().strip().splitlines()
    assert len(plot_lines) == 1 + 3 * 3 * 3
    assert "wrote" in capsys.readouterr().out


def test_bench_files_reproducible_for_fixed_seed(tmp_path):
    layout = _generate(tmp_path)
    paths = []
    for tag in ("a", "b"):
        report, plot = tmp_path / f"{tag}_rep.csv", tmp_path / f"{tag}_plot.csv"
        assert main(["bench", str(layout), "--trials", "3", "--seed", "5",
                     "--report", str(report), "--plot-data", str(plot)]) == 0
        paths.append((report, plot))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_bench_json_summary(tmp_path, capsys):
    layout = _generate(tmp_path)
    capsys.readouterr()  # drop the generate message
    assert main(["bench", str(layout), "--trials", "2", "--format", "json",
                 "--report", str(tmp_path / "r.csv"),
                 "--plot-data", str(tmp_path / "p.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[0])
    assert set(summary) == {"baseline", "cluster", "greedy"}
    assert summary["greedy"]["improvement_vs_baseline"] > 0.0


def test_bench_rejects_zero_trials(tmp_path, capsys):
    layout = _generate(tmp_path, n=3)
    code = main(["bench", str(layout), "--trials", "0",
                 "--report", str(tmp_path / "r.csv"),
                 "--plot-data", str(tmp_path / "p.csv")])
    assert code != 0
    assert "error" in capsys.readouterr().err
