import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import turnplan
from conftest import count_waypoint_generation
from turnplan import cli
from turnplan.bench import Scenario, run_comparison, trial_reports
from turnplan.cli import main
from turnplan.clustering import ClusterParams
from turnplan.geometry import generate_waypoints, hemisphere_layout, load_part_layout
from turnplan.metrics import CellModel


def _generate(tmp_path, name="layout.json", n=40, seed=7):
    path = tmp_path / name
    assert main(["generate", "--n", str(n), "--radius", "0.15",
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_generate_writes_loadable_layout(tmp_path, capsys):
    path = _generate(tmp_path)
    part = load_part_layout(path)
    assert len(part.origins) == 40
    assert "40 holes" in capsys.readouterr().out


def test_generate_minimal_layout(tmp_path):
    path = _generate(tmp_path, n=1)
    assert len(load_part_layout(path).origins) == 1


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


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_generate_rejects_non_finite_radius(tmp_path, capsys, radius):
    code = main(["generate", "--radius", radius, "--out", str(tmp_path / "g.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: radius") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64",
    ""], ids=["numpy-message", "bare"])
def test_generate_out_of_memory_fails_cleanly(tmp_path, capsys, monkeypatch, message):
    # a stand-in builder: a real 10**12-hole attempt could page in terabytes
    def no_memory(n, radius, seed):
        raise MemoryError(message)

    monkeypatch.setattr("turnplan.cli.hemisphere_layout", no_memory)
    path = tmp_path / "huge.json"
    code = main(["generate", "--n", "1000000000000", "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: out of memory: ") and len(err.strip().splitlines()) == 1
    assert (message or "allocation failed") in err
    assert not path.exists()


def test_baseline_plan_file_is_deterministic(tmp_path, capsys):
    layout = _generate(tmp_path, n=3)
    out_a, out_b = tmp_path / "a_plan.json", tmp_path / "b_plan.json"
    assert main(["plan", str(layout), "--algorithm", "baseline", "--out", str(out_a)]) == 0
    assert main(["plan", str(layout), "--algorithm", "baseline", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = json.loads(out_a.read_text())
    assert sorted(r["waypoint_index"] for r in records) == [0, 1, 2]


def test_greedy_plan_file_is_reproducible_for_fixed_seed(tmp_path):
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
    line, note = capsys.readouterr().out.splitlines()
    assert [field.split("=")[0] for field in line.split()] == [
        "n", "ssp_distance_m", "total_rotation_rad", "estimated_execution_time_s",
        "travel_time_s", "rotation_time_s", "dwell_time_s",
        "out_of_reach_points", "rotation_floor_rad", "planning_time_s"]
    assert line.startswith("n=40 ") and note.startswith("note: execution times use placeholder")
    # a cell of the user's own speeds gets no note
    assert main(["plan", str(layout), "--dwell", "2", "--out", str(tmp_path / "p.json")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.mark.parametrize("cell_flags,cell", [
    ([], CellModel()),
    (["--robot-speed", "2", "--dwell", "0.5"], CellModel(robot_linear_speed=2.0,
                                                         dwell_per_point=0.5)),
], ids=["default-cell", "own-cell"])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("algorithm", ["baseline", "cluster", "greedy"])
def test_plan_summary_is_one_bench_trial(bundled_layout_path, tmp_path, capsys, algorithm, seed,
                                         cell_flags, cell):
    assert main(["plan", bundled_layout_path, "--algorithm", algorithm, "--seed", str(seed),
                 "--format", "json", "--out", str(tmp_path / "p.json"), *cell_flags]) == 0
    summary = json.loads(capsys.readouterr().out)
    scenario = Scenario(part=load_part_layout(bundled_layout_path),
                        cluster_params=ClusterParams(seed=seed), cell=cell)
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    report = trial_reports(algorithm, waypoints, scenario, 1)[0]
    assert summary.pop("planning_time_s") >= 0.0
    keys = ["ssp_distance_m", "total_rotation_rad", "estimated_execution_time_s",
            "travel_time_s", "rotation_time_s", "dwell_time_s", "out_of_reach_points",
            "rotation_floor_rad"]
    assert summary == {"n": report.n_points, **{key: getattr(report, key) for key in keys}}


def test_plan_json_summary(tmp_path, capsys):
    layout = _generate(tmp_path)
    capsys.readouterr()  # drop the generate message
    assert main(["plan", str(layout), "--format", "json",
                 "--out", str(tmp_path / "p.json")]) == 0
    summary = json.loads(capsys.readouterr().out)
    # the key list perfbench's cli40 workload reads and that bench's summary follows
    assert list(summary) == [
        "n", "ssp_distance_m", "total_rotation_rad", "estimated_execution_time_s",
        "travel_time_s", "rotation_time_s", "dwell_time_s",
        "out_of_reach_points", "rotation_floor_rad", "planning_time_s"]
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


def _far_out(tmp_path, case):
    """A 5-hole layout with waypoints at or beyond 2**500, and the flags that put them there."""
    layout = _generate(tmp_path, n=5)
    doc = json.loads(layout.read_text())
    flags = []
    if case == "standoff":
        flags = ["--standoff", "1e160"]
    elif case == "center":
        doc["turntable_center"] = [1e300, 0.0, 0.0]
    elif case == "shifted":
        for hole in doc["holes"]:
            hole["origin"] = [c + 2.0**505 for c in hole["origin"]]
    else:  # origins near the largest double, and a stand-off that overflows their sum
        for hole in doc["holes"]:
            hole["origin"] = [1.7e308, 0.0, 0.0]
        flags = ["--standoff", "1e308"]
    layout.write_text(json.dumps(doc))
    return layout, flags


_COMMANDS = {
    "plan-baseline": ["plan", "--algorithm", "baseline", "--out", "p.json"],
    "plan-cluster": ["plan", "--algorithm", "cluster", "--out", "p.json"],
    "plan-greedy": ["plan", "--algorithm", "greedy", "--out", "p.json"],
    "bench": ["bench", "--trials", "1", "--report", "r.csv", "--plot-data", "d.csv"],
}


def _run_in(tmp_path, command, layout, flags, capsys, monkeypatch):
    """Run a _COMMANDS entry on `layout` in tmp_path; returns (exit code, stderr, new files)."""
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    name, *rest = _COMMANDS[command]
    code = main([name, str(layout), *rest, *flags])
    return code, capsys.readouterr().err, set(tmp_path.iterdir()) - before


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("case", ["standoff", "center", "shifted", "overflow"])
def test_far_out_waypoints_fail_cleanly(tmp_path, capsys, monkeypatch, command, case):
    # each planner, and the bench, turns them away: one line, and no numpy warning;
    # origins that reach the bound fail as the layout loads
    layout, flags = _far_out(tmp_path, case)
    capsys.readouterr()
    code, err, written = _run_in(tmp_path, command, layout, flags, capsys, monkeypatch)
    assert code == 2
    if case in ("shifted", "overflow"):
        assert err == (f"error: layout file {layout}: origin must be finite and below 2**500 "
                       "in magnitude (hole 0)\n")
    else:
        assert err == ("error: waypoints and their offsets from the turntable center must lie "
                       "below 2**500 in magnitude\n")
    assert not written


@pytest.mark.parametrize("command", ["plan-greedy", "bench"])
def test_a_too_deeply_nested_layout_fails_cleanly(tmp_path, capsys, monkeypatch, command):
    # json.load raises RecursionError, not ValueError, on an array this deep
    layout = tmp_path / "nested.json"
    layout.write_text('{"holes": ' + "[" * 200000)
    code, err, written = _run_in(tmp_path, command, layout, [], capsys, monkeypatch)
    assert (code, err, written) == (2, f"error: layout file {layout} is nested too deeply\n", set())


@pytest.mark.parametrize("command", ["plan-greedy", "bench"])
@pytest.mark.parametrize("broken", ["truncated", "not-utf-8"])
def test_an_undecodable_layout_names_its_file(tmp_path, capsys, monkeypatch, command, broken):
    layout = _generate(tmp_path, n=5)
    data = layout.read_bytes()
    layout.write_bytes(data[:100] if broken == "truncated" else b"\xff\xfe" + data)
    capsys.readouterr()
    code, err, written = _run_in(tmp_path, command, layout, [], capsys, monkeypatch)
    assert (code, written) == (2, set())
    assert err.startswith(f"error: layout file {layout}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["plan-baseline", "bench"])
def test_a_k_beyond_the_largest_float_fails_cleanly(tmp_path, capsys, monkeypatch, command):
    # the baseline's sector width 2*pi/k has no float value
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()
    code, err, written = _run_in(tmp_path, command, layout, ["--k", str(10**400)], capsys,
                                 monkeypatch)
    assert (code, err, written) == (2, "error: groups must convert to a float\n", set())


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_negative_seed_fails_cleanly(tmp_path, capsys, monkeypatch, command):
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()
    code, err, written = _run_in(tmp_path, command, layout, ["--seed", "-1"], capsys, monkeypatch)
    assert (code, err, written) == (2, "error: seed must be >= 0, got -1\n", set())


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_an_empty_layout_fails_cleanly(tmp_path, capsys, monkeypatch, command):
    layout = _generate(tmp_path, n=1)
    doc = json.loads(layout.read_text())
    doc["holes"] = []
    layout.write_text(json.dumps(doc))
    capsys.readouterr()
    code, err, written = _run_in(tmp_path, command, layout, [], capsys, monkeypatch)
    assert (code, err, written) == (2, "error: part has no holes\n", set())


@pytest.mark.parametrize("field,value,message", [
    ("y_axis", 2.0**600, "y_axis must have unit norm (hole 0)"),
    ("turntable_axis", 1e200, "turntable_axis must have unit norm, got inf"),
])
def test_an_axis_whose_norm_overflows_fails_with_one_line(bundled_layout_path, tmp_path, capsys,
                                                         monkeypatch, field, value, message):
    # the norm's square overflows: numpy must print no warning before the error line
    doc = json.loads(Path(bundled_layout_path).read_text())
    (doc["holes"][0] if field == "y_axis" else doc)[field] = [value, 0.0, 0.0]
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(doc))
    code, err, written = _run_in(tmp_path, "plan-greedy", layout, [], capsys, monkeypatch)
    assert (code, err, written) == (2, f"error: layout file {layout}: {message}\n", set())


# the probe's ways to break a layout: components of every magnitude, wrong JSON types,
# missing fields, on-axis origins, duplicated holes and truncated hole lists
COMPONENTS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, -1.0, 1e154, 1e200, 2.0**600,
                              1.7e308, 10**400, math.inf, -math.inf, math.nan])
WRONG_TYPES = st.sampled_from(["0.1", True, None, {}, [], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                               [[1.0, 0.0, 0.0]] * 3, ["1", 0, 0], [True, 0, 0], [None, 0, 0]])
PART_FIELDS = ("turntable_axis", "turntable_center", "holes")
# (kind, hole, field, component, value): `hole` wraps around the holes left
MUTATIONS = st.tuples(
    st.sampled_from(["component", "value", "missing", "on axis", "duplicate", "truncate"]),
    st.integers(0, 39), st.sampled_from(("origin", "x_axis", "y_axis", "z_axis", *PART_FIELDS)),
    st.integers(0, 2), st.one_of(COMPONENTS, WRONG_TYPES))
FLAG_VALUES = {
    "--algorithm": ["baseline", "cluster", "greedy"],
    "--k": [-1, 0, 1, 5, 40, 41, 10**400],
    "--seed": [-1, 0, 3, 2**64],
    "--standoff": [-1.0, 0.0, 5e-324, 0.05, 1e160, math.inf, math.nan],
    "--attack-deg": [0.0, -90.0, 30.0, 1e300, math.nan],
    "--robot-center-deg": [0.0, 90.0, 720.0, -1e300, math.inf],
    "--angular-bound-deg": [72.0, 0.0, -5.0, 360.0, 1e308, math.nan],
    "--robot-speed": [0.5, 2.0, 0.0, 1e-320, math.nan],
    "--table-speed": [0.2, 1e-320],
    "--dwell": [1.0, 0.0, -1.0, 1e308],
    "--planner-overhead": [0.0, 0.5, 1e308],
}
# every flag may also get no number, or a negative one in exponent form, and is written
# as --flag=value (True) or as --flag value
ODD_VALUES = ["abc", "-1e-3", "-inf"]
PLAN_FLAGS = {flag: st.tuples(st.sampled_from([*values, *ODD_VALUES]), st.booleans())
              for flag, values in FLAG_VALUES.items()}


def _mutate(doc: dict, kind: str, hole: int, field: str, component: int, value) -> None:
    """Apply one of MUTATIONS to `doc`, a layout document whose holes are objects."""
    holes = doc["holes"]
    if field in PART_FIELDS and kind in ("component", "value", "missing"):
        owner = doc
    elif holes:
        owner = holes[hole % len(holes)]
    else:
        return  # no hole left to break
    if kind == "value":
        owner[field] = value
    elif kind == "missing":
        owner.pop(field, None)
    elif kind == "truncate":
        del holes[hole % len(holes):]
    elif kind == "duplicate":
        holes.insert(component, dict(owner))
    elif kind == "on axis":  # the table axis is +z through the origin
        owner["origin"] = [0.0, 0.0, value]
    else:
        vector = owner.get(field)
        vector = list(vector) if isinstance(vector, list) and len(vector) == 3 else [0.0, 0.0, 1.0]
        vector[component] = value
        owner[field] = vector


@settings(max_examples=120, deadline=None)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
       flags=st.fixed_dictionaries({}, optional=PLAN_FLAGS))
@example(mutations=[("component", 0, "y_axis", 0, 2.0**600)], flags={})
@example(mutations=[("component", 0, "turntable_axis", 0, 1e200)], flags={})
@example(mutations=[], flags={"--robot-center-deg": ("-1e-3", False)})
def test_a_broken_layout_or_flag_plans_or_fails_with_one_error_line(bundled_layout_path,
                                                                    mutations, flags):
    # in-process, pytest would hide a warning that a user sees on stderr: record them all
    doc = json.loads(Path(bundled_layout_path).read_text())
    for mutation in mutations:
        holes = doc.get("holes")
        if isinstance(holes, list) and all(isinstance(hole, dict) for hole in holes):
            _mutate(doc, *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        layout, out = Path(tmp, "layout.json"), Path(tmp, "plan.json")
        layout.write_text(json.dumps(doc))
        code, err = _main_recording_warnings(
            ["plan", str(layout), "--out", str(out),
             *(arg for flag, (value, joined) in flags.items()
               for arg in ([f"{flag}={value}"] if joined else [flag, str(value)]))])
        if code == 0:
            assert out.exists() and err == ""
        else:
            assert code == 2 and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1


def _main_recording_warnings(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr. In-process, pytest would hide a warning that a
    user sees on stderr: record them all, and assert there are none."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


# generate's flags, with radii about 2**500 (3.27e150) and beyond, and output paths that may
# name the layout: by its own name, by another spelling of it, or by a hard link to it; or
# name one earlier CSV by two hard links
GENERATE_FLAGS = st.fixed_dictionaries({
    "--n": st.sampled_from([1, 5, 40]),
    "--radius": st.one_of(st.sampled_from([0.15, 2.0**500, 1e200, math.inf]),
                          st.floats(3.2e150, 3.4e150)),
    "--seed": st.sampled_from([0, 7, -1])})
OUTPUTS = st.sampled_from(["layout.json", "./layout.json", "link.json", "out.json", "out.csv",
                           "old.csv", "old-link.csv"])


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["generate", "plan", "bench"]), flags=GENERATE_FLAGS,
       out=OUTPUTS, other=OUTPUTS)
@example(command="generate", flags={"--n": 40, "--radius": 1e200, "--seed": 0}, out="out.json",
         other="out.csv")
@example(command="plan", flags={}, out="layout.json", other="out.csv")
@example(command="bench", flags={}, out="layout.json", other="out.csv")
@example(command="bench", flags={}, out="old.csv", other="old-link.csv")
def test_generate_and_every_output_path_write_plannable_files_or_fail_with_one_error_line(
        bundled_layout_path, command, flags, out, other):
    # exit 0 with a layout that plan accepts (generate) or with the layout unchanged (plan,
    # bench, whose two files then hold a report and plot data); or exit 2 with one error
    # line and every file byte for byte as it was
    with tempfile.TemporaryDirectory() as tmp:
        layout = Path(tmp, "layout.json")
        layout.write_bytes(Path(bundled_layout_path).read_bytes())
        os.link(layout, Path(tmp, "link.json"))
        Path(tmp, "old.csv").write_text("earlier,report\n")
        os.link(Path(tmp, "old.csv"), Path(tmp, "old-link.csv"))
        before = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
        out, other = f"{tmp}/{out}", f"{tmp}/{other}"
        code, err = _main_recording_warnings({
            "generate": ["generate", *(f"{flag}={value!r}" for flag, value in flags.items()),
                         "--out", out],
            "plan": ["plan", str(layout), "--out", out],
            "bench": ["bench", str(layout), "--trials", "1", "--report", out,
                      "--plot-data", other]}[command])
        if code == 0:
            assert err == ""
            if command == "generate":
                assert _main_recording_warnings(["plan", out, "--out", f"{tmp}/plan.json"]) == \
                    (0, "")
            else:
                assert layout.read_bytes() == before["layout.json"]
            if command == "bench":
                assert Path(out).read_text().startswith("algorithm,trial,")
                assert Path(other).read_text().startswith("algorithm,seed,metric,")
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
            assert {path.name: path.read_bytes() for path in Path(tmp).iterdir()} == before


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "g.json")])
    assert (code, capsys.readouterr().err) == (2, "error: seed must be >= 0, got -1\n")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["plan", "layout.json", "--out", "p.json", "--k", "abc"],
     "argument --k: invalid int value: 'abc'"),
    (["plan", "layout.json", "--out", "p.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["plan", "layout.json"], "the following arguments are required: --out"),
    (["plan", "layout.json", "--out", "p.json", "--robot-center-deg", "-1e-3", "--seed"],
     "argument --seed: expected one argument"),
    (["bench", "layout.json", "--trials", "-inf"], "argument --trials: expected one argument"),
    ([], "the following arguments are required: command"),
], ids=["k-abc", "unknown-flag", "no-out", "exponent-then-no-seed", "trials-inf", "no-command"])
def test_a_bad_command_line_fails_with_one_error_line(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-2.e-1", "-0.001", "-7"])
def test_a_negative_number_is_a_value_in_any_form(bundled_layout_path, tmp_path, value):
    out = tmp_path / "p.json"
    argv = ["plan", bundled_layout_path, "--robot-center-deg", value, "--out", str(out)]
    assert cli.build_parser().parse_args(argv).robot_center_deg == float(value)
    assert main(argv) == 0 and out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: turnplan")


def test_plan_generates_waypoints_once(tmp_path, monkeypatch):
    layout = _generate(tmp_path)
    calls = count_waypoint_generation(monkeypatch)
    assert main(["plan", str(layout), "--out", str(tmp_path / "p.json")]) == 0
    assert len(calls) == 1


def test_plan_rejects_unknown_algorithm(tmp_path, capsys):
    layout = _generate(tmp_path, n=3)
    capsys.readouterr()
    code = main(["plan", str(layout), "--algorithm", "santa", "--out", str(tmp_path / "p.json")])
    (line,) = capsys.readouterr().err.splitlines()
    assert code == 2 and line.startswith("error: argument --algorithm: invalid choice: 'santa'")


@pytest.mark.parametrize("argv", [["plan", "layout.json", "--out", "plan.json"],
                                  ["bench", "layout.json"]], ids=["plan", "bench"])
def test_flags_left_out_give_the_records_own_defaults(argv):
    part = hemisphere_layout(5, 0.15, seed=7)
    assert cli._scenario(cli.build_parser().parse_args(argv), part) == Scenario(part=part)


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


@pytest.mark.parametrize("spelling", ["same", "dotted", "absolute", "hard link",
                                      "symlink to a hard link"])
def test_bench_rejects_one_file_for_report_and_plot_data(tmp_path, capsys, monkeypatch, spelling):
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    if "link" in spelling:  # an earlier report, which must keep its bytes
        Path("r.csv").write_text("earlier,report\n")
        os.link("r.csv", "h.csv")
        os.symlink("h.csv", "s.csv")  # resolves to h.csv, which realpath tells from r.csv
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    plot_data = {"same": "r.csv", "dotted": "./r.csv", "absolute": str(tmp_path / "r.csv"),
                 "hard link": "h.csv", "symlink to a hard link": "s.csv"}
    code = main(["bench", str(layout), "--trials", "1", "--report", "r.csv",
                 "--plot-data", plot_data[spelling]])
    assert (code, capsys.readouterr().err) == (2, "error: --report and --plot-data both name "
                                                  "r.csv\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_bench_json_summary(tmp_path, capsys):
    layout = _generate(tmp_path)
    capsys.readouterr()  # drop the generate message
    assert main(["plan", str(layout), "--format", "json", "--out", str(tmp_path / "p.json")]) == 0
    n, *plan_keys = json.loads(capsys.readouterr().out)
    keys = [*(f"mean_{key}" for key in plan_keys), "improvement_vs_baseline"]
    bench = ["bench", str(layout), "--trials", "2",
             "--report", str(tmp_path / "r.csv"), "--plot-data", str(tmp_path / "p.csv")]
    assert main([*bench, "--format", "json"]) == 0
    # stdout is one JSON document and nothing else
    summary = json.loads(capsys.readouterr().out)
    assert n == "n" and list(summary) == ["baseline", "cluster", "greedy"]
    assert summary["greedy"]["improvement_vs_baseline"] > 0.0
    result = run_comparison(Scenario(part=load_part_layout(layout)), 2)
    for name, row in summary.items():
        assert list(row) == keys
        assert row["mean_planning_time_s"] >= 0.0
        means = ["ssp_distance_m", "total_rotation_rad", "estimated_execution_time_s",
                 "travel_time_s", "rotation_time_s", "dwell_time_s", "out_of_reach_points",
                 "rotation_floor_rad"]
        assert {key: row[key] for key in keys if key != "mean_planning_time_s"} == {
            **{f"mean_{key}": result.means(key)[name] for key in means},
            "improvement_vs_baseline": result.improvement_vs_baseline[name]}
    # the table form: one line per planner, its name then key=value pairs in plan's format
    assert main(bench) == 0
    *lines, note, wrote = capsys.readouterr().out.splitlines()
    assert note.startswith("note: execution times use placeholder") and wrote.startswith("wrote")
    assert [line.split()[0] for line in lines] == list(summary)
    for line in lines:
        name, *pairs = line.split()
        assert [pair.split("=")[0] for pair in pairs] == keys
        assert all(pair == f"{key}={summary[name][key]:.6f}" for pair, key in zip(pairs, keys)
                   if key != "mean_planning_time_s")


def test_bench_rejects_a_zero_baseline_time_without_writing_files(tmp_path, capsys):
    # one point served at the baseline's sector center with no dwell: 0 s
    layout = _generate(tmp_path, n=1)
    capsys.readouterr()
    report, plot = tmp_path / "r.csv", tmp_path / "p.csv"
    code = main(["bench", str(layout), "--k", "1", "--robot-center-deg", "180", "--dwell", "0",
                 "--trials", "1", "--report", str(report), "--plot-data", str(plot)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "baseline" in line and "0 s" in line
    assert not report.exists() and not plot.exists()


@pytest.mark.parametrize("flag,value", [
    ("--robot-speed", "1e-320"), ("--table-speed", "1e-320"), ("--dwell", "1e308"),
])
def test_bench_names_an_overflowing_metric_without_writing_files(tmp_path, capsys, flag, value):
    # each flag passes CellModel's checks, but the execution time overflows to inf
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()
    report, plot = tmp_path / "r.csv", tmp_path / "p.csv"
    code = main(["bench", str(layout), flag, value, "--trials", "1",
                 "--report", str(report), "--plot-data", str(plot)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "estimated_execution_time" in line and "inf" in line
    assert not report.exists() and not plot.exists()


def test_bench_writes_neither_file_when_one_cannot_be_opened(tmp_path, capsys):
    layout = _generate(tmp_path, n=5)
    capsys.readouterr()
    report, plot = tmp_path / "r.csv", tmp_path / "missing" / "p.csv"
    bench = ["bench", str(layout), "--trials", "1", "--report", str(report),
             "--plot-data", str(plot)]
    assert main(bench) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{plot}'\n"
    assert not report.exists()
    # a report file from an earlier run keeps its bytes
    report.write_text("earlier,report\n")
    assert main(bench) == 2
    assert report.read_text() == "earlier,report\n"
    assert sorted(tmp_path.iterdir()) == [layout, report]


def _fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports this turnplan; return its stdout."""
    package_root = str(Path(turnplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test session has imported scipy already. Nor does it load
    # statistics, which would bring decimal and fractions with it. A greedy plan of 600
    # holes at k=5 builds the bundle's chain index (its largest cluster has 148 points)
    # and loads none of them either
    layout = _generate(tmp_path, n=600)
    plan = ["plan", str(layout), "--k", "5", "--out", str(tmp_path / "plan.json")]
    code = f"""
import contextlib, io, sys
from turnplan import cli, sequencing

def loaded():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] in ('scipy', 'statistics', 'decimal', 'fractions'))

print(loaded())
built = []

class Counted(sequencing._ChainIndex):
    def __init__(self, pts):
        built.append(len(pts))
        super().__init__(pts)

sequencing._ChainIndex = Counted
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({plan!r}) == 0
print(built, loaded())
"""
    assert _fresh_python(code).splitlines() == ["[]", "[600] []"]


def test_a_plan_whose_clusters_are_all_small_builds_no_chain_index():
    # 4000 holes at k=60: every cluster walks its own distance matrix, so the
    # bundle holds no chain index
    code = """
from turnplan.clustering import ClusterParams
from turnplan.geometry import generate_waypoints, hemisphere_layout
from turnplan.sequencing import _CHAIN_INDEXES, CHAIN_TABLE_MIN_POINTS, plan_waypoints
waypoints = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
plan = plan_waypoints(waypoints, ClusterParams(k=60, seed=0))
print(len(plan.flattened_order), max(map(len, plan.sequences)) <= CHAIN_TABLE_MIN_POINTS,
      _CHAIN_INDEXES.get(waypoints))
"""
    assert _fresh_python(code) == "4000 True None"


@pytest.mark.parametrize("command,n,algorithm,flags", [
    *(pytest.param("plan", 40, algorithm, [], id=algorithm)
      for algorithm in ("baseline", "cluster", "greedy")),
    # one cluster of 200 points: the greedy plan builds the bundle's chain index
    pytest.param("plan", 200, "greedy", ["--k", "1"], id="greedy-200-holes-k1"),
    pytest.param("bench", 200, "greedy", ["--k", "1", "--trials", "2"],
                 id="bench-greedy-200-holes-k1"),
    # clusters of 103, 109, 113, 127 and 148 points: one walk needs the index, though
    # the plan averages fewer than CHAIN_TABLE_MIN_POINTS points per cluster
    pytest.param("plan", 600, "greedy", ["--k", "5"], id="greedy-600-holes-k5"),
])
def test_timed_plan_call_imports_nothing(bundled_layout_path, tmp_path, command, n, algorithm,
                                         flags):
    # planning_time_s times only the planner call: a module it imported on
    # first use would be counted as planning time
    layout = bundled_layout_path if n == 40 else str(_generate(tmp_path, n=n))
    outputs = (["--algorithm", algorithm, "--out", str(tmp_path / "plan.json")]
               if command == "plan" else
               ["--report", str(tmp_path / "r.csv"), "--plot-data", str(tmp_path / "p.csv")])
    code = f"""
import contextlib, io, sys
from turnplan import cli, sequencing
plan_waypoints, loaded = sequencing.plan_waypoints, []

def timed(*args):
    before = set(sys.modules)
    plan = plan_waypoints(*args)
    if args[3] == {algorithm!r}:
        loaded.append(sorted(set(sys.modules) - before))
    return plan

sequencing.plan_waypoints = timed
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({[command, layout, *outputs, *flags]!r}) == 0
print(loaded, "scipy.spatial" in sys.modules)
"""
    calls = 2 if command == "bench" else 1
    assert _fresh_python(code) == f"{[[]] * calls} False"


def test_bench_rejects_zero_trials(tmp_path, capsys):
    layout = _generate(tmp_path, n=3)
    code = main(["bench", str(layout), "--trials", "0",
                 "--report", str(tmp_path / "r.csv"),
                 "--plot-data", str(tmp_path / "p.csv")])
    assert code != 0
    assert "error" in capsys.readouterr().err
