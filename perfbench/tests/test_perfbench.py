"""Tests of the benchmark itself: determinism, tracing arithmetic, scoring, checks.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from scoring import CheckError, score_plan, waypoint_layout
from spans import REQUEST, Tracer, layer_metrics, self_times
from turnplan import bench, geometry

BENCH = Path(__file__).resolve().parent.parent
SMALL = {"CLI40_LAYOUTS": 4, "REPLAN4K_SEEDS": 2, "NARROW4K_SEEDS": 1}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def traced_pass(name: str, seed: int, workdir: Path):
    """One traced pass over a workload's inputs: quality, per-layer counts, spans."""
    workdir.mkdir()
    inputs = workloads.WORKLOADS[name].setup(seed, workdir)
    tracer = Tracer()
    loop = run.run_loop(inputs.requests, 0.0, 1, tracer)
    traced = sum(o.traced for o in loop.outcomes)
    layers = layer_metrics(tracer.spans, len(inputs.requests), traced, [])
    counts = {k: v for k, (v, unit) in layers.items() if unit in ("count", "B")}
    return inputs, loop, tracer, run.first_pass_quality(inputs, loop), counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_quality_and_counts_exactly(name, small, tmp_path):
    first = traced_pass(name, 3, tmp_path / "a")
    second = traced_pass(name, 3, tmp_path / "b")
    assert first[0].fingerprint == second[0].fingerprint
    assert all(o.error is None for o in first[1].outcomes + second[1].outcomes)
    assert first[3] == second[3]
    assert first[4] == second[4]
    assert [o.score.digest for o in first[1].outcomes] == \
        [o.score.digest for o in second[1].outcomes]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs(name, small, tmp_path):
    a = workloads.WORKLOADS[name].setup(3, tmp_path)
    b = workloads.WORKLOADS[name].setup(4, tmp_path)
    assert a.fingerprint != b.fingerprint


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_the_request_span(name, small, tmp_path):
    _, loop, tracer, _, counts = traced_pass(name, 5, tmp_path / "w")
    spans = tracer.spans
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == REQUEST]
    assert len(roots) == len(loop.outcomes) / 2 == sum(o.traced for o in loop.outcomes)
    for root in roots:
        request = spans[root].request
        total = sum(t for s, t in zip(spans, own) if s.request == request)
        assert math.isclose(total, spans[root].end - spans[root].start, rel_tol=1e-9)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    assert all(t >= 0.0 for t in own)
    expected_calls = {"cli40": 2.0, "replan4k": 0.0, "narrow4k": 1.0}[name]
    assert counts["geometry.generate_waypoints.calls_per_request"] == expected_calls


def test_tracing_restores_the_program(tmp_path):
    from turnplan import cli, sequencing

    before = (cli.generate_waypoints, cli.main, sequencing.plan_waypoints)
    with Tracer().patched():
        assert cli.generate_waypoints is not before[0]
    assert (cli.generate_waypoints, cli.main, sequencing.plan_waypoints) == before


def test_scoring_matches_run_comparison_on_the_bundled_layout(tmp_path):
    path = Path(str(files("turnplan").joinpath("data/hemisphere40.json")))
    inputs = workloads.cli_requests([path] * 3, [0, 1, 2], tmp_path / "plan.json")
    loop = run.run_loop(inputs.requests, 0.0, 1)
    assert all(o.error is None for o in loop.outcomes)
    ours = run.first_pass_quality(inputs, loop)
    theirs = bench.run_comparison(bench.Scenario(part=geometry.load_part_layout(path)), 3)
    assert math.isclose(ours["cycle_time_s"], theirs.mean_execution_time["greedy"],
                        rel_tol=1e-12)
    assert math.isclose(ours["gain_vs_baseline"], theirs.improvement_vs_baseline["greedy"],
                        rel_tol=1e-12)


def test_calibration_scales_each_request_by_the_blocks_around_it(small, tmp_path,
                                                                 monkeypatch):
    import calibrate

    unit_times = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(calibrate, "block", lambda units: next(unit_times))
    inputs = workloads.setup_replan4k(1, tmp_path)
    loop = run.run_loop(inputs.requests, 0.0, 1, calibration_units=3)
    assert len(loop.outcomes) == 2
    expected = [calibrate.UNIT_NOMINAL_S / 0.003, calibrate.UNIT_NOMINAL_S / 0.005]
    assert all(math.isclose(o.speed, e) for o, e in zip(loop.outcomes, expected))
    assert run.run_loop(inputs.requests, 0.0, 1).outcomes[0].speed == 1.0


def test_checks_reject_broken_plans_and_the_loop_goes_on(small, tmp_path):
    inputs = workloads.setup_replan4k(1, tmp_path)
    good = inputs.requests[0]
    plan = good.call()

    sequences = [list(s) for s in plan.sequences]
    sequences[0][1], sequences[0][2] = sequences[0][2], sequences[0][1]
    swapped = replace(plan, sequences=tuple(map(tuple, sequences)),
                      flattened_order=tuple(i for s in sequences for i in s))
    with pytest.raises(CheckError, match="nearest-neighbour"):
        good.check(swapped)

    def boom():
        raise RuntimeError("planner fell over")

    broken = [replace(good, key=0, group=0, call=boom),
              replace(good, key=1, group=1, call=lambda: swapped),
              replace(good, key=2, group=2)]
    loop = run.run_loop(broken, 0.0, 1)
    errors = [o.error for o in loop.outcomes]
    assert errors[0].startswith("RuntimeError") and errors[1].startswith("check:")
    assert errors[2] is None and loop.outcomes[2].score is not None


def test_score_rejects_a_non_permutation():
    positions = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    layout = waypoint_layout(positions, np.zeros((2, 3)), 0.0, 1, math.pi)
    cell = workloads.default_cell()
    with pytest.raises(CheckError, match="permutation"):
        score_plan(layout, cell, "cluster", [[0, 0]], [0.0], 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli40",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
