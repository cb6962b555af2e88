import time

import numpy as np
import pytest

from conftest import count_waypoint_generation
from turnplan import sequencing
from turnplan.angles import TWO_PI, rotation_floor
from turnplan.bench import (REPORT_COLUMNS, BenchmarkReport, ComparisonResult, comparison_rows,
                            hemisphere_scenario, run_comparison, trial_reports, write_csvs)
from turnplan.clustering import Cluster, ClusterParams, ClusterPlan
from turnplan.geometry import generate_waypoints
from turnplan.metrics import CellModel, out_of_reach, ssp_distance
from turnplan.sequencing import Plan, plan_waypoints


def _manual_plan(order, rotation=0.0):
    """Single-cluster plan visiting `order` with one up-front rotation."""
    cluster = Cluster(members=tuple(sorted(order)), mean_angle=rotation)
    cluster_plan = ClusterPlan(clusters=(cluster,), start_angle=0.0)
    return Plan(cluster_plan=cluster_plan, sequences=(tuple(order),),
                flattened_order=tuple(order))


# --- ssp distance ----------------------------------------------------------

def test_ssp_distance_single_point_is_zero():
    assert ssp_distance(_manual_plan([0]), [(0.4, 0.2, 0.1)]) == 0.0


def test_ssp_distance_unit_segment():
    assert ssp_distance(_manual_plan([0, 1]), [(0, 0, 0), (1, 0, 0)]) == 1.0


def test_ssp_distance_depends_on_order():
    positions = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert abs(ssp_distance(_manual_plan([0, 1, 2]), positions) - 2.0) < 1e-12
    assert abs(ssp_distance(_manual_plan([0, 2, 1]), positions) - 3.0) < 1e-12


def test_ssp_distance_rejects_inconsistent_plan():
    with pytest.raises(ValueError):
        ssp_distance(_manual_plan([0, 1]), [(0, 0, 0), (1, 0, 0), (2, 0, 0)])


def test_ssp_distance_rigid_motion_invariant():
    rng = np.random.default_rng(20)
    pts = rng.uniform(-1, 1, (12, 3))
    order = list(rng.permutation(12))
    base = ssp_distance(_manual_plan(order), pts)
    # random rotation (QR of a random matrix) plus translation
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q.T + rng.uniform(-5, 5, 3)
    assert abs(ssp_distance(_manual_plan(order), moved) - base) < 1e-9


# --- execution-time model ---------------------------------------------------

def _priced(cell, order, positions, rotation=0.0):
    """`cell.execution_time` of `_manual_plan(order, rotation)` over `positions`, from the
    plan's SSP distance, total rotation and point count, as `bench.timed_plan` prices it."""
    plan = _manual_plan(order, rotation)
    return cell.execution_time(ssp_distance(plan, positions), plan.cluster_plan.total_rotation,
                               plan.n_points)


def test_execution_time_is_the_sum_of_its_three_terms():
    order, positions = [0, 1, 2], [(0, 0, 0), (1, 0, 0), (1, 2, 0)]
    plan = _manual_plan(order, rotation=1.5)
    ssp, rotation = ssp_distance(plan, positions), plan.cluster_plan.total_rotation
    # speeds a power of two apart give exact terms; 0.3 and 0.7 round each one
    exact = CellModel(robot_linear_speed=0.25, turntable_angular_speed=0.5,
                      dwell_per_point=0.75, planner_overhead_per_point=0.5)
    assert exact.time_terms(ssp, rotation, 3) == (12.0, 3.0, 3 * 1.25)
    for cell in (exact, CellModel(robot_linear_speed=0.3, turntable_angular_speed=0.7,
                                  dwell_per_point=0.1, planner_overhead_per_point=0.3)):
        travel, turning, dwell = cell.time_terms(ssp, rotation, 3)
        assert (travel + turning) + dwell == _priced(cell, order, positions, rotation=1.5)


def test_execution_time_single_dwell():
    cell = CellModel(dwell_per_point=1.0)
    assert _priced(cell, [0], [(1, 0, 0)]) == 1.0


def test_execution_time_travel_only():
    cell = CellModel(robot_linear_speed=0.5, dwell_per_point=0.0)
    t = _priced(cell, [0, 1], [(0, 0, 0), (1, 0, 0)])
    assert abs(t - 2.0) < 1e-12


def test_execution_time_counts_rotation_and_overhead():
    cell = CellModel(robot_linear_speed=1.0, turntable_angular_speed=0.5,
                     dwell_per_point=2.0, planner_overhead_per_point=5.0)
    t = _priced(cell, [0, 1], [(0, 0, 0), (1, 0, 0)], rotation=1.0)
    assert abs(t - (1.0 + 2.0 + 2 * 2.0 + 2 * 5.0)) < 1e-12


def test_execution_time_monotonicity():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (10, 3))
    order = list(range(10))
    cell = CellModel()
    base = _priced(cell, order, pts, rotation=1.0)
    # longer path, fixed rotation and n
    assert _priced(cell, order, 2.0 * pts, rotation=1.0) > base
    # more rotation, fixed path and n
    assert _priced(cell, order, pts, rotation=2.0) > base
    # more dwell, fixed plan
    slower = CellModel(dwell_per_point=cell.dwell_per_point + 1.0)
    assert _priced(slower, order, pts, rotation=1.0) > base


def test_execution_time_improves_with_pipeline_over_baseline():
    # seed chosen so the greedy plan cuts both travel and rotation
    scenario = hemisphere_scenario()
    reports = {name: rs[0] for name, rs in run_comparison(scenario, trials=1).reports.items()}
    assert reports["greedy"].ssp_distance_m < reports["baseline"].ssp_distance_m
    assert reports["greedy"].total_rotation_rad < reports["baseline"].total_rotation_rad
    assert (reports["greedy"].estimated_execution_time_s
            < reports["baseline"].estimated_execution_time_s)


def test_cell_model_validation():
    with pytest.raises(ValueError):
        CellModel(robot_linear_speed=0.0)
    with pytest.raises(ValueError):
        CellModel(dwell_per_point=-1.0)


@pytest.mark.parametrize("field", ["robot_linear_speed", "turntable_angular_speed",
                                   "dwell_per_point", "planner_overhead_per_point"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cell_model_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        CellModel(**{field: value})


# --- reach and the rotation floor --------------------------------------------

# two stops, 0.0 for points 0-3 and 3.0 for points 4-7; point 7 lies on the table axis
STOP_ANGLES = np.array([0.4, TWO_PI - 0.4, 0.6, TWO_PI - 0.6, 3.0, 3.5, 2.4, 0.0])
STOP_ON_AXIS = np.arange(8) == 7


def _two_stop_plan():
    clusters = (Cluster(members=(0, 1, 2, 3), mean_angle=0.0),
                Cluster(members=(4, 5, 6, 7), mean_angle=3.0))
    return Plan(ClusterPlan(clusters, start_angle=0.0), tuple(c.members for c in clusters))


def test_out_of_reach_counts_the_points_beyond_half_the_bound_from_their_stop():
    plan = _two_stop_plan()
    # b/2 = 0.5: 0.4 either side of stop 0.0, and 3.5, exactly b/2 past stop 3.0, are in
    # reach; 0.6 either side of 0.0 and 2.4 are not; point 7 is 3.0 from its stop, on the axis
    assert out_of_reach(plan, STOP_ANGLES, STOP_ON_AXIS, 1.0) == 3
    assert out_of_reach(plan, STOP_ANGLES, np.zeros(8, dtype=bool), 1.0) == 4
    # a bound of 2*pi reaches every angle from every stop
    assert out_of_reach(plan, STOP_ANGLES, np.zeros(8, dtype=bool), TWO_PI) == 0


def test_rotation_floor_is_the_furthest_arc_a_stop_must_reach():
    # from start 1.0 with b/2 = 0.5: 1.25 and 0.75 lie within b/2 ahead of and behind the
    # start, 1.5 exactly b/2 ahead; 3.0 needs a stop at arc 1.5, 5.0 one at 3.5; point 5 is
    # on the axis at angle 0.0, 2*pi - 1 ahead
    angles = np.array([1.25, 0.75, 1.5, 3.0, 5.0, 0.0])
    on_axis = np.arange(6) == 5
    assert rotation_floor(angles, on_axis, 1.0, 1.0) == 3.5
    assert rotation_floor(angles, np.zeros(6, dtype=bool), 1.0, 1.0) == \
        pytest.approx(TWO_PI - 1.5, abs=1e-12)
    assert rotation_floor(angles[:3], on_axis[:3], 1.0, 1.0) == 0.0
    assert rotation_floor(angles[5:], on_axis[5:], 1.0, 1.0) == 0.0
    assert rotation_floor(angles, on_axis, TWO_PI, 1.0) == 0.0
    # 0.5 lies exactly b/2 behind the start, so a stop at the start reaches it as it does 1.5
    assert rotation_floor(np.array([0.5]), np.zeros(1, dtype=bool), 1.0, 1.0) == 0.0


# --- benchmark harness ------------------------------------------------------

def test_benchmark_one_report_per_trial_with_distinct_seeds():
    scenario = hemisphere_scenario(cluster_params=ClusterParams(seed=5))
    reports = run_comparison(scenario, trials=3).reports["greedy"]
    assert len(reports) == 3
    assert [r.seed for r in reports] == [5, 6, 7]
    assert all(r.n_points == 40 for r in reports)


def test_benchmark_baseline_is_constant_across_trials():
    scenario = hemisphere_scenario()
    reports = run_comparison(scenario, trials=3).reports["baseline"]
    assert len({r.ssp_distance_m for r in reports}) == 1


def test_benchmark_pipeline_varies_across_seeds():
    scenario = hemisphere_scenario()
    reports = run_comparison(scenario, trials=10).reports["greedy"]
    assert len({r.ssp_distance_m for r in reports}) > 1


def test_benchmark_rejects_bad_inputs():
    scenario = hemisphere_scenario()
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    with pytest.raises(ValueError):
        trial_reports("greedy", waypoints, scenario, trials=0)


def test_benchmark_times_only_the_planning_call(monkeypatch):
    scenario = hemisphere_scenario(n=5)
    prebuilt = {}

    def canned(*args):
        return prebuilt["plan"]

    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    prebuilt["plan"] = plan_waypoints(waypoints, scenario.cluster_params)
    monkeypatch.setattr(sequencing, "plan_waypoints", canned)
    report = trial_reports("greedy", waypoints, scenario, trials=1)[0]
    assert report.planning_time_s < 0.01  # no-op planner: metric evaluation is untimed


def test_benchmark_slow_planner_is_measured(monkeypatch):
    scenario = hemisphere_scenario(n=5)
    def sleepy(waypoints, params, *args):
        time.sleep(0.05)
        return plan_waypoints(waypoints, params)

    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    monkeypatch.setattr(sequencing, "plan_waypoints", sleepy)
    report = trial_reports("greedy", waypoints, scenario, trials=1)[0]
    assert report.planning_time_s >= 0.05


def test_benchmark_generates_waypoints_once_outside_the_timer(monkeypatch):
    scenario = hemisphere_scenario(n=5)
    calls = count_waypoint_generation(monkeypatch, delay=0.05)
    result = run_comparison(scenario, trials=3)
    assert len(calls) == 1
    assert max(r.planning_time_s for rs in result.reports.values() for r in rs) < 0.05


# --- report export ----------------------------------------------------------

def test_report_csv_shape_and_columns(tmp_path):
    scenario = hemisphere_scenario()
    reports = run_comparison(scenario, trials=3).reports["baseline"]
    path = tmp_path / "report.csv"
    write_csvs({path: comparison_rows(ComparisonResult({"baseline": reports}))})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + 3 + 1  # header + trials + mean
    mean = lines[-1].split(",")
    assert mean[1] == "mean" and mean[2] == ""


def test_strip_timing_zeroes_only_planning_time():
    """The report file writes planning time as 0.0 and every other field as measured."""
    report = BenchmarkReport(planning_time_s=1.5, ssp_distance_m=2.0,
                             estimated_execution_time_s=3.0, travel_time_s=1.0,
                             rotation_time_s=1.5, dwell_time_s=0.5, total_rotation_rad=1.0,
                             n_points=4, seed=9, out_of_reach_points=0, rotation_floor_rad=0.0)
    header, trial, _ = comparison_rows(ComparisonResult({"baseline": [report]}))
    cell = dict(zip(header, trial))
    assert cell["planning_time_s"] == "0.0"
    assert cell["ssp_distance_m"] == "2.0"
    assert cell["estimated_execution_time_s"] == "3.0"
    assert cell["seed"] == 9
    assert report.planning_time_s == 1.5
