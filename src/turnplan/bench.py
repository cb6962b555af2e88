"""Desk-scale benchmark: the one planning timer, seeded trials scored by `metrics`,
the 40-hole hemisphere, and a comparison of the angle baseline, clustering only
and the full greedy pipeline, with the two CSV files that report it.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

from . import sequencing
from .clustering import ClusterParams
from .angles import rotation_floor
from .geometry import (PartModel, Waypoints, _as_int, _on_axis, generate_waypoints,
                       hemisphere_layout)
from .metrics import CellModel, out_of_reach, ssp_distance


@dataclass(frozen=True)
class Scenario:
    """Everything needed to plan and score one work-cell setup, checked where it is used."""

    part: PartModel
    standoff: float = 0.05
    attack: float = 0.0
    cluster_params: ClusterParams = field(default_factory=ClusterParams)
    cell: CellModel = field(default_factory=CellModel)
    robot_center_angle: float = 0.0


@dataclass(frozen=True)
class BenchmarkReport:
    """One trial's worth of benchmark criteria, each field named by the key that the
    `plan` and `bench` summaries print, in their order after `n_points` and `seed`.

    `travel_time_s`, `rotation_time_s` and `dwell_time_s` are the terms of
    `estimated_execution_time_s` (`metrics.CellModel.time_terms`).
    `out_of_reach_points` counts the plan's points served more than half the angular
    bound from their stop (`metrics.out_of_reach`); `rotation_floor_rad` is R*, the
    least rotation of a plan that leaves none (`angles.rotation_floor`).
    """

    n_points: int
    seed: int
    ssp_distance_m: float
    total_rotation_rad: float
    estimated_execution_time_s: float
    travel_time_s: float
    rotation_time_s: float
    dwell_time_s: float
    out_of_reach_points: int
    rotation_floor_rad: float
    planning_time_s: float

    def __post_init__(self):
        for name in (*SUMMARY, "n_points"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:  # False for NaN too
                raise ValueError(f"report metric {name} must be finite and >= 0, got {value!r}")


# the keys `plan` and `bench` print, in order; the first three are the CSVs' quality metrics
SUMMARY = tuple(f.name for f in fields(BenchmarkReport))[2:]
METRICS = SUMMARY[:3]
REPORT_COLUMNS = ["algorithm", "trial", "seed", "n_points", "planning_time_s", *METRICS,
                  "improvement_vs_baseline"]
PLOT_COLUMNS = ["algorithm", "seed", "metric", "value"]


def timed_plan(algorithm: str, waypoints: Waypoints,
               scenario: Scenario) -> tuple[sequencing.Plan, BenchmarkReport]:
    """Plan `waypoints`, generated from `scenario.part`, by `algorithm` under `scenario`; return
    the plan and its report, scored with `scenario.cell` and the angular bound of
    `scenario.cluster_params`. Its `planning_time_s` is the wall-clock seconds of one
    `sequencing.plan_waypoints` call, the package's only planning timer.
    """
    tic = time.perf_counter()
    plan = sequencing.plan_waypoints(waypoints, scenario.cluster_params,
                                     scenario.robot_center_angle, algorithm)
    planning_time = time.perf_counter() - tic
    ssp, rotation = ssp_distance(plan, waypoints.positions), plan.cluster_plan.total_rotation
    angles, bound = waypoints.table_angles, scenario.cluster_params.angular_bound
    on_axis = _on_axis(waypoints.positions, scenario.part)
    travel, turning, dwell = scenario.cell.time_terms(ssp, rotation, plan.n_points)
    return plan, BenchmarkReport(
        n_points=plan.n_points,
        seed=scenario.cluster_params.seed,
        ssp_distance_m=ssp,
        total_rotation_rad=rotation,
        estimated_execution_time_s=scenario.cell.execution_time(ssp, rotation, plan.n_points),
        travel_time_s=travel,
        rotation_time_s=turning,
        dwell_time_s=dwell,
        out_of_reach_points=out_of_reach(plan, angles, on_axis, bound),
        rotation_floor_rad=rotation_floor(angles, on_axis, bound, plan.cluster_plan.start_angle),
        planning_time_s=planning_time,
    )


def trial_reports(algorithm: str, waypoints: Waypoints, scenario: Scenario,
                  trials: int) -> list[BenchmarkReport]:
    """Plan and score `trials` seeded trials of one algorithm on one waypoint bundle.

    Trial i plans the scenario with cluster_params.seed raised by i, timed and scored
    by `timed_plan`. Every trial plans the same bundle, so its greedy trials share
    one chain index; `sequencing._greedy_order` says which trial pays for what.
    """
    params = scenario.cluster_params
    scenarios = [replace(scenario, cluster_params=replace(params, seed=params.seed + trial))
                 for trial in range(_as_int(trials, "trials", 1))]
    return [timed_plan(algorithm, waypoints, trial_scenario)[1] for trial_scenario in scenarios]


def hemisphere_scenario(n: int = 40, radius: float = 0.15, layout_seed: int = 7,
                        **overrides) -> Scenario:
    """The stock test scenario: holes over a hemisphere; `overrides` are `Scenario` fields."""
    part = hemisphere_layout(n, radius, seed=layout_seed)
    return Scenario(part=part, **overrides)


@dataclass(frozen=True)
class ComparisonResult:
    """Per-algorithm trial reports; the means and the improvement derive from them."""

    reports: dict[str, list[BenchmarkReport]]

    def means(self, key: str) -> dict[str, float]:
        """Per algorithm, the mean over its trials of the report field `key`: their
        `math.fsum` over their count, the value `statistics.fmean` gives."""
        return {name: math.fsum(getattr(r, key) for r in reports) / len(reports)
                for name, reports in self.reports.items()}

    @property
    def mean_execution_time(self) -> dict[str, float]:
        return self.means("estimated_execution_time_s")

    @property
    def improvement_vs_baseline(self) -> dict[str, float]:
        """1 - t / t_baseline on the mean estimated execution time."""
        mean_time = self.mean_execution_time
        base_time = mean_time["baseline"]
        if base_time == 0.0:
            raise ValueError("the baseline's mean execution time is 0 s, so the improvement "
                             "vs baseline is undefined")
        return {name: 1.0 - t / base_time for name, t in mean_time.items()}


def run_comparison(scenario: Scenario, trials: int) -> ComparisonResult:
    """Run every planner's trials on one waypoint bundle, generated once, with shared seeds."""
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    return ComparisonResult({name: trial_reports(name, waypoints, scenario, trials)
                             for name in sequencing.ALGORITHMS})


def comparison_rows(result: ComparisonResult) -> list[list]:
    """REPORT_COLUMNS, then per algorithm its trial rows and a mean row.

    Only the mean row fills `improvement_vs_baseline`. The file stays
    byte-identical across runs with the same inputs and seeds, so the
    wall-clock planning time is written as 0.0; it is reported on stdout only.
    """
    improvement = result.improvement_vs_baseline
    means = [result.means(key) for key in METRICS]
    rows = [REPORT_COLUMNS]
    for name, reports in result.reports.items():
        rows.extend([name, trial, r.seed, r.n_points, repr(0.0),
                     *(repr(getattr(r, key)) for key in METRICS), ""]
                    for trial, r in enumerate(reports, 1))
        rows.append([name, "mean", "", reports[0].n_points, repr(0.0),
                     *(repr(mean[name]) for mean in means), repr(improvement[name])])
    return rows


def plot_data_rows(result: ComparisonResult) -> list[list]:
    """Long-format per-trial points for improvement-vs-algorithm charts."""
    rows = [PLOT_COLUMNS]
    for name, reports in result.reports.items():
        for r in reports:
            rows.extend([name, r.seed, key, repr(getattr(r, key))] for key in METRICS)
    return rows


def write_csvs(outputs: dict[str | os.PathLike, list[list]]) -> None:
    """Write each path's rows as a UTF-8 CSV file: every path is opened, without truncating
    it, before any is written, and on a failure the files this call created are removed.
    A file that existed before the call is written in place and not restored."""
    created = [path for path in outputs if not os.path.lexists(path)]
    try:
        for path in outputs:
            open(path, "a").close()
        for path, rows in outputs.items():
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
