import io
import time

import numpy as np
import pytest

from conftest import count_waypoint_generation
from turnplan.bench import hemisphere_scenario
from turnplan.clustering import Cluster, ClusterPlan
from turnplan.geometry import generate_waypoints
from turnplan.metrics import (BenchmarkReport, CellModel, REPORT_COLUMNS, benchmark,
                              estimate_execution_time, report_rows, ssp_distance, strip_timing,
                              write_csv)
from turnplan.sequencing import Plan, plan_waypoints


def _manual_plan(order, rotation=0.0):
    """Single-cluster plan visiting `order` with one up-front rotation."""
    cluster = Cluster(members=tuple(sorted(order)), centroid=np.zeros(3), mean_angle=0.0)
    cluster_plan = ClusterPlan(clusters=(cluster,), rotation_deltas=(rotation,),
                               total_rotation=rotation)
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

def test_execution_time_single_dwell():
    cell = CellModel(dwell_per_point=1.0)
    assert estimate_execution_time(_manual_plan([0]), [(1, 0, 0)], cell) == 1.0


def test_execution_time_travel_only():
    cell = CellModel(robot_linear_speed=0.5, dwell_per_point=0.0)
    t = estimate_execution_time(_manual_plan([0, 1]), [(0, 0, 0), (1, 0, 0)], cell)
    assert abs(t - 2.0) < 1e-12


def test_execution_time_counts_rotation_and_overhead():
    cell = CellModel(robot_linear_speed=1.0, turntable_angular_speed=0.5,
                     dwell_per_point=2.0, planner_overhead_per_point=5.0)
    t = estimate_execution_time(_manual_plan([0, 1], rotation=1.0),
                                [(0, 0, 0), (1, 0, 0)], cell)
    assert abs(t - (1.0 + 2.0 + 2 * 2.0 + 2 * 5.0)) < 1e-12


def test_execution_time_monotonicity():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (10, 3))
    order = list(range(10))
    cell = CellModel()
    base = estimate_execution_time(_manual_plan(order, rotation=1.0), pts, cell)
    # longer path, fixed rotation and n
    assert estimate_execution_time(_manual_plan(order, rotation=1.0), 2.0 * pts, cell) > base
    # more rotation, fixed path and n
    assert estimate_execution_time(_manual_plan(order, rotation=2.0), pts, cell) > base
    # more dwell, fixed plan
    slower = CellModel(dwell_per_point=cell.dwell_per_point + 1.0)
    assert estimate_execution_time(_manual_plan(order, rotation=1.0), pts, slower) > base


def test_execution_time_improves_with_pipeline_over_baseline():
    # seed chosen so the greedy plan cuts both travel and rotation
    scenario = hemisphere_scenario(base_seed=0)
    reports = {name: benchmark(name, scenario, trials=1)[0]
               for name in ("baseline", "greedy")}
    assert reports["greedy"].ssp_distance < reports["baseline"].ssp_distance
    assert reports["greedy"].total_rotation < reports["baseline"].total_rotation
    assert (reports["greedy"].estimated_execution_time
            < reports["baseline"].estimated_execution_time)


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


# --- benchmark harness ------------------------------------------------------

def test_benchmark_one_report_per_trial_with_distinct_seeds():
    scenario = hemisphere_scenario(base_seed=5)
    reports = benchmark("greedy", scenario, trials=3)
    assert len(reports) == 3
    assert [r.seed for r in reports] == [5, 6, 7]
    assert all(r.n_points == 40 for r in reports)


def test_benchmark_baseline_is_constant_across_trials():
    scenario = hemisphere_scenario()
    reports = benchmark("baseline", scenario, trials=3)
    assert len({r.ssp_distance for r in reports}) == 1


def test_benchmark_pipeline_varies_across_seeds():
    scenario = hemisphere_scenario()
    reports = benchmark("greedy", scenario, trials=10)
    assert len({r.ssp_distance for r in reports}) > 1


def test_benchmark_rejects_bad_inputs():
    scenario = hemisphere_scenario()
    with pytest.raises(ValueError):
        benchmark("greedy", scenario, trials=0)
    with pytest.raises(ValueError):
        benchmark("annealing", scenario, trials=1)


def test_benchmark_times_only_the_planning_call():
    scenario = hemisphere_scenario(n=5)
    prebuilt = {}

    def canned(waypoints, scenario, params):
        return prebuilt["plan"]

    prebuilt["plan"] = plan_waypoints(
        generate_waypoints(scenario.part, scenario.standoff, scenario.attack),
        scenario.cluster_params)
    report = benchmark(canned, scenario, trials=1)[0]
    assert report.algorithm_name == "canned"
    assert report.planning_time < 0.01  # no-op planner: metric evaluation is untimed


def test_benchmark_slow_planner_is_measured():
    scenario = hemisphere_scenario(n=5)
    def sleepy(waypoints, scenario, params):
        time.sleep(0.05)
        return plan_waypoints(waypoints, params)

    report = benchmark(sleepy, scenario, trials=1)[0]
    assert report.planning_time >= 0.05


def test_benchmark_generates_waypoints_once_outside_the_timer(monkeypatch):
    scenario = hemisphere_scenario(n=5)
    calls = count_waypoint_generation(monkeypatch, delay=0.05)
    reports = benchmark("greedy", scenario, trials=3)
    assert len(calls) == 1
    assert max(r.planning_time for r in reports) < 0.05


# --- report export ----------------------------------------------------------

def test_report_csv_shape_and_columns():
    scenario = hemisphere_scenario()
    reports = benchmark("baseline", scenario, trials=3)
    buffer = io.StringIO()
    write_csv([REPORT_COLUMNS] + report_rows(reports), buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + 3 + 1  # header + trials + mean
    mean = lines[-1].split(",")
    assert mean[1] == "mean" and mean[2] == ""


def test_strip_timing_zeroes_only_planning_time():
    report = BenchmarkReport(algorithm_name="x", planning_time=1.5, ssp_distance=2.0,
                             estimated_execution_time=3.0, total_rotation=1.0,
                             n_points=4, seed=9)
    (stripped,) = strip_timing([report])
    assert stripped.planning_time == 0.0
    assert stripped.ssp_distance == 2.0
    assert stripped.seed == 9
