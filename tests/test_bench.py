import io
from dataclasses import replace
from statistics import fmean

import pytest

from conftest import count_waypoint_generation
from turnplan.angles import TWO_PI
from turnplan.bench import (ALGORITHMS, PLOT_COLUMNS, Scenario, comparison_rows,
                            hemisphere_scenario, plot_data_rows, run_comparison, without_timing)
from turnplan.geometry import generate_waypoints, hemisphere_layout
from turnplan.metrics import PLANNERS, benchmark, write_csv


def _cluster_only_plan(scenario, seed=0):
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    return PLANNERS["cluster"](waypoints, scenario, replace(scenario.cluster_params, seed=seed))


def test_hemisphere_scenario_shapes():
    scenario = hemisphere_scenario()
    assert len(scenario.part.holes) == 40
    assert scenario.standoff == 0.05
    assert scenario.cluster_params.k == 5


def test_clustering_only_plan_single_hole():
    scenario = Scenario(part=hemisphere_layout(1, 0.1, seed=0))
    plan = _cluster_only_plan(scenario)
    assert plan.flattened_order == (0,)


def test_clustering_only_plan_deterministic():
    scenario = hemisphere_scenario()
    a = _cluster_only_plan(scenario, seed=4)
    b = _cluster_only_plan(scenario, seed=4)
    assert a.flattened_order == b.flattened_order


def test_clustering_only_sits_between_baseline_and_greedy():
    scenario = hemisphere_scenario()
    trials = 50
    reports = {name: benchmark(name, scenario, trials) for name in ALGORITHMS}
    means = {name: fmean(r.ssp_distance for r in rs) for name, rs in reports.items()}
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
    assert result.mean_ssp_distance["greedy"] < result.mean_ssp_distance["baseline"]


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


def test_csv_writers_accept_buffers():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=2)
    report_buffer, plot_buffer = io.StringIO(), io.StringIO()
    write_csv(comparison_rows(result), report_buffer)
    write_csv(plot_data_rows(result), plot_buffer)
    assert report_buffer.getvalue().startswith("algorithm,trial,seed,n_points")
    assert plot_buffer.getvalue().startswith("algorithm,seed,metric,value")


def test_without_timing_preserves_everything_else():
    scenario = hemisphere_scenario()
    result = run_comparison(scenario, trials=2)
    stripped = without_timing(result)
    for name in ALGORITHMS:
        for raw, clean in zip(result.reports[name], stripped.reports[name]):
            assert clean.planning_time == 0.0
            assert clean.ssp_distance == raw.ssp_distance
            assert clean.estimated_execution_time == raw.estimated_execution_time
    assert stripped.improvement_vs_baseline == result.improvement_vs_baseline


def test_run_comparison_generates_waypoints_once(monkeypatch):
    calls = count_waypoint_generation(monkeypatch)
    result = run_comparison(hemisphere_scenario(n=8), trials=3)
    assert len(calls) == 1
    assert all(len(result.reports[name]) == 3 for name in ALGORITHMS)


def test_run_comparison_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_comparison(hemisphere_scenario(), trials=0)
