from dataclasses import replace
from statistics import fmean

import numpy as np
import pytest

from conftest import count_waypoint_generation
from turnplan import bench, metrics, sequencing
from turnplan.angles import TWO_PI
from turnplan.bench import (METRICS, PLOT_COLUMNS, REPORT_COLUMNS, Scenario, comparison_rows,
                            hemisphere_scenario, plot_data_rows, run_comparison, timed_plan,
                            trial_reports, write_csvs)
from turnplan.clustering import ClusterParams
from turnplan.geometry import generate_waypoints, hemisphere_layout
from turnplan.metrics import CellModel
from turnplan.sequencing import ALGORITHMS


def _cluster_only_plan(scenario, seed=0):
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    params = replace(scenario.cluster_params, seed=seed)
    return timed_plan("cluster", waypoints, replace(scenario, cluster_params=params))[0]


def test_hemisphere_scenario_shapes():
    scenario = hemisphere_scenario()
    assert len(scenario.part.origins) == 40
    assert scenario.standoff == 0.05
    assert scenario.cluster_params.k == 5


def test_clustering_only_plan_single_hole():
    scenario = Scenario(part=hemisphere_layout(1, 0.1, seed=0))
    plan = _cluster_only_plan(scenario)
    assert plan.flattened_order.tolist() == [0]


def test_clustering_only_plan_deterministic():
    scenario = hemisphere_scenario()
    a = _cluster_only_plan(scenario, seed=4)
    b = _cluster_only_plan(scenario, seed=4)
    assert np.array_equal(a.flattened_order, b.flattened_order)


def test_clustering_only_sits_between_baseline_and_greedy():
    scenario = hemisphere_scenario()
    trials = 50
    means = run_comparison(scenario, trials).means("ssp_distance")
    assert means["greedy"] < means["cluster"] < means["baseline"]


def test_greedy_improvement_beats_clustering_only_per_seed():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=50)
    wins = sum(
        g.estimated_execution_time < c.estimated_execution_time
        for g, c in zip(result.reports["greedy"], result.reports["cluster"])
    )
    assert wins >= 40  # >= 80% of seeds


def test_run_comparison_means_and_improvement():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=3)
    assert set(result.reports) == set(ALGORITHMS)
    assert all(len(rs) == 3 for rs in result.reports.values())
    assert result.improvement_vs_baseline["baseline"] == 0.0
    assert result.improvement_vs_baseline["greedy"] > 0.0
    ssp = result.means("ssp_distance")
    assert ssp["greedy"] < ssp["baseline"]


def test_every_plan_is_a_permutation_within_one_revolution():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=5)
    for reports in result.reports.values():
        for report in reports:
            assert report.n_points == 40
            assert report.total_rotation <= TWO_PI + 1e-9


def test_comparison_rows_shape():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=3)
    rows = comparison_rows(result)
    assert len(rows) == 1 + 3 * (3 + 1)  # header + 3 algorithms x (3 trials + mean)
    assert rows[0][-1] == "improvement_vs_baseline"
    mean_rows = [r for r in rows[1:] if r[1] == "mean"]
    assert len(mean_rows) == 3
    assert all(r[-1] != "" for r in mean_rows)
    trial_rows = [r for r in rows[1:] if r[1] != "mean"]
    assert len(trial_rows) == 9
    assert all(r[-1] == "" for r in trial_rows)


def test_plot_data_rows_shape():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=4)
    rows = plot_data_rows(result)
    assert rows[0] == PLOT_COLUMNS
    assert len(rows) == 1 + 3 * 4 * 3  # algorithms x trials x metrics


def test_csv_writers_write_files(tmp_path):
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=2)
    report_path, plot_path = tmp_path / "report.csv", tmp_path / "plot.csv"
    write_csvs({report_path: comparison_rows(result), plot_path: plot_data_rows(result)})
    assert report_path.read_text().startswith("algorithm,trial,seed,n_points")
    assert plot_path.read_text().startswith("algorithm,seed,metric,value")


@pytest.mark.parametrize("bad", range(4))
def test_write_csvs_writes_no_file_when_one_cannot_be_opened(tmp_path, bad):
    # wherever the path that cannot be opened stands, the files this call created are
    # removed and a file from an earlier run keeps its bytes
    earlier = tmp_path / "earlier.csv"
    earlier.write_text("earlier,report\n")
    paths = [tmp_path / "new.csv", earlier, tmp_path / "other.csv"]
    paths.insert(bad, tmp_path / "missing" / "x.csv")
    with pytest.raises(FileNotFoundError):
        write_csvs({path: [["a", 1]] for path in paths})
    assert sorted(tmp_path.iterdir()) == [earlier]
    assert earlier.read_text() == "earlier,report\n"


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


def test_write_csvs_removes_the_files_it_created_when_a_row_fails(tmp_path):
    # the file written before the failing one goes too; a later, earlier-run file is
    # only opened, so it keeps its bytes
    earlier = tmp_path / "earlier.csv"
    earlier.write_text("earlier,report\n")
    first, failing = tmp_path / "first.csv", tmp_path / "failing.csv"
    with pytest.raises(RuntimeError, match="no text"):
        write_csvs({first: [["a", 1]], failing: [["b", _Unprintable()]], earlier: [["c"]]})
    assert sorted(tmp_path.iterdir()) == [earlier]
    assert earlier.read_text() == "earlier,report\n"


def test_write_csvs_replaces_an_earlier_file_s_bytes(tmp_path):
    earlier = tmp_path / "report.csv"
    earlier.write_text("a longer report from an earlier run\n" * 3)
    write_csvs({earlier: [["a", 1.5], ["b", "c,d"]]})
    assert earlier.read_bytes() == b'a,1.5\r\nb,"c,d"\r\n'


def test_without_timing_preserves_everything_else():
    """comparison_rows zeroes only the planning-time cells; the reports keep their times."""
    result = run_comparison(hemisphere_scenario(), trials=2)
    measured = {name: [r.planning_time for r in rs] for name, rs in result.reports.items()}
    rows = comparison_rows(result)
    time_column = REPORT_COLUMNS.index("planning_time_s")
    assert all(row[time_column] == "0.0" for row in rows[1:])
    assert {name: [r.planning_time for r in rs] for name, rs in result.reports.items()} == measured
    assert all(t > 0.0 for times in measured.values() for t in times)
    metric_columns = [REPORT_COLUMNS.index(column) for column, _ in METRICS]
    body = iter(rows[1:])
    for name, reports in result.reports.items():
        for trial, report in enumerate(reports, 1):
            row = next(body)
            assert row[:4] == [name, trial, report.seed, report.n_points]
            assert [row[c] for c in metric_columns] == [repr(getattr(report, key))
                                                       for _, key in METRICS]
            assert row[-1] == ""
        row = next(body)
        assert row[:4] == [name, "mean", "", reports[0].n_points]
        assert [row[c] for c in metric_columns] == [
            repr(fmean(getattr(r, key) for r in reports)) for _, key in METRICS]
        assert row[-1] == repr(result.improvement_vs_baseline[name])
    assert next(body, None) is None


def test_run_comparison_generates_waypoints_once(monkeypatch):
    calls = count_waypoint_generation(monkeypatch)
    result = run_comparison(hemisphere_scenario(n=8), trials=3)
    assert len(calls) == 1
    assert all(len(result.reports[name]) == 3 for name in ALGORITHMS)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_timed_plan_prices_each_plan_with_one_ssp_distance(monkeypatch, algorithm):
    cell = CellModel(robot_linear_speed=0.7, dwell_per_point=0.3, planner_overhead_per_point=0.1)
    scenario = hemisphere_scenario(n=20, cell=cell)
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    ssp_distance, calls = metrics.ssp_distance, []

    def counting(plan, positions):
        calls.append(plan)
        return ssp_distance(plan, positions)

    for module in (bench, metrics):  # each namespace that binds the name
        monkeypatch.setattr(module, "ssp_distance", counting)
    plan, report = timed_plan(algorithm, waypoints, scenario)
    assert calls == [plan]
    assert report.estimated_execution_time == cell.execution_time(
        ssp_distance(plan, waypoints.positions), plan.cluster_plan.total_rotation, plan.n_points)
    assert report.ssp_distance == ssp_distance(plan, waypoints.positions)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_timed_plan_reports_the_three_terms_of_the_execution_time(algorithm):
    cell = CellModel(robot_linear_speed=0.7, turntable_angular_speed=0.3, dwell_per_point=0.3,
                     planner_overhead_per_point=0.1)
    scenario = hemisphere_scenario(n=20, cell=cell)
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    plan, report = timed_plan(algorithm, waypoints, scenario)
    terms = (report.travel_time, report.rotation_time, report.dwell_time)
    assert terms == cell.time_terms(report.ssp_distance, report.total_rotation, plan.n_points)
    assert (terms[0] + terms[1]) + terms[2] == report.estimated_execution_time


@pytest.mark.parametrize("cell", [CellModel(robot_linear_speed=1e-320),
                                  CellModel(turntable_angular_speed=1e-320),
                                  CellModel(dwell_per_point=1e308)],
                         ids=["travel", "rotation", "dwell"])
def test_an_overflowing_term_is_named_by_the_estimate_it_overflows(cell):
    # the estimate is checked before its terms, so the message is the one the CSVs' metric gets
    with pytest.raises(ValueError, match="report metric estimated_execution_time must be finite"):
        run_comparison(hemisphere_scenario(n=8, cell=cell), 1)


def test_trial_seeds_count_up_from_the_cluster_params_seed():
    scenario = Scenario(hemisphere_layout(12, 0.15, seed=7), cluster_params=ClusterParams(seed=9))
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    assert [r.seed for r in trial_reports("greedy", waypoints, scenario, 2)] == [9, 10]
    result = run_comparison(scenario, 2)
    assert all([r.seed for r in result.reports[name]] == [9, 10] for name in ALGORITHMS)


def test_each_trial_plans_the_caller_s_scenario_with_its_own_seed(monkeypatch):
    base = 2**63 - 1  # given as a numpy int64, base + 1 must not wrap
    scenario = Scenario(hemisphere_layout(12, 0.15, seed=7), robot_center_angle=0.3,
                        cluster_params=ClusterParams(k=3, seed=np.int64(base)))
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    plan_waypoints, seen = sequencing.plan_waypoints, []

    def recording(waypoints, params, robot_center_angle, algorithm):
        seen.append((params, robot_center_angle, algorithm))
        return plan_waypoints(waypoints, params, robot_center_angle, algorithm)

    monkeypatch.setattr(sequencing, "plan_waypoints", recording)
    trial_reports("greedy", waypoints, scenario, 3)
    assert [params.seed for params, *_ in seen] == [base, base + 1, base + 2]
    for trial, (params, robot_center_angle, algorithm) in enumerate(seen):
        assert params == replace(scenario.cluster_params, seed=base + trial)
        assert robot_center_angle == scenario.robot_center_angle
        assert algorithm == "greedy"


def test_an_unknown_algorithm_gets_the_planner_s_message():
    scenario = hemisphere_scenario(n=8)
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    with pytest.raises(ValueError, match="^unknown algorithm 'magic'$"):
        timed_plan("magic", waypoints, scenario)
    with pytest.raises(ValueError, match="^unknown algorithm 'magic'$"):
        trial_reports("magic", waypoints, scenario, 1)


def test_a_negative_standoff_gets_one_message():
    part = hemisphere_layout(4, 0.1, seed=0)
    message = "^standoff must be finite and >= 0, got -1.0$"
    with pytest.raises(ValueError, match=message):
        run_comparison(Scenario(part=part, standoff=-1.0), 1)
    with pytest.raises(ValueError, match=message):
        generate_waypoints(part, -1.0, 0.0)


def test_run_comparison_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_comparison(hemisphere_scenario(), trials=0)
