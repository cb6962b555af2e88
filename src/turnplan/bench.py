"""Desk-scale benchmark scenarios: the 40-hole hemisphere and a three-way
comparison of the angle baseline, clustering only, and the full greedy
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import fmean

from .clustering import ClusterParams
from .geometry import PartModel, _as_vector3, generate_waypoints, hemisphere_layout
from .metrics import (BenchmarkReport, CellModel, PLANNERS, REPORT_COLUMNS, report_rows,
                      strip_timing, trial_reports)

ALGORITHMS = tuple(PLANNERS)

PLOT_COLUMNS = ["algorithm", "seed", "metric", "value"]
PLOT_METRICS = ["ssp_distance_m", "total_rotation_rad", "estimated_execution_time_s"]


@dataclass(frozen=True)
class Scenario:
    """Everything needed to plan and score one work-cell setup."""

    part: PartModel
    standoff: float = 0.05
    attack: float = 0.0
    cluster_params: ClusterParams = field(default_factory=ClusterParams)
    cell: CellModel = field(default_factory=CellModel)
    robot_center_angle: float = 0.0
    robot_home: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("standoff", "attack", "robot_center_angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.standoff < 0.0:
            raise ValueError("standoff must be >= 0")
        _as_vector3(self.robot_home, "robot_home")


def hemisphere_scenario(n: int = 40, radius: float = 0.15, standoff: float = 0.05,
                        layout_seed: int = 7, **overrides) -> Scenario:
    """The stock test scenario: holes over a hemisphere, sprayed from a stand-off."""
    part = hemisphere_layout(n, radius, seed=layout_seed)
    return Scenario(part=part, standoff=standoff, **overrides)


@dataclass(frozen=True)
class ComparisonResult:
    """Per-algorithm trial reports with means and improvement vs the baseline."""

    reports: dict[str, list[BenchmarkReport]]
    mean_execution_time: dict[str, float]
    mean_ssp_distance: dict[str, float]
    improvement_vs_baseline: dict[str, float]


def run_comparison(scenario: Scenario, trials: int) -> ComparisonResult:
    """Benchmark all three algorithms on one waypoint bundle with shared trial seeds.

    Improvement is (1 - t / t_baseline) on the mean estimated execution time.
    """
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    reports = {name: trial_reports(PLANNERS[name], name, waypoints, scenario, trials)
               for name in ALGORITHMS}
    mean_time = {name: fmean(r.estimated_execution_time for r in rs)
                 for name, rs in reports.items()}
    mean_ssp = {name: fmean(r.ssp_distance for r in rs) for name, rs in reports.items()}
    base_time = mean_time["baseline"]
    improvement = {name: 1.0 - mean_time[name] / base_time for name in ALGORITHMS}
    return ComparisonResult(reports=reports, mean_execution_time=mean_time,
                            mean_ssp_distance=mean_ssp,
                            improvement_vs_baseline=improvement)


def without_timing(result: ComparisonResult) -> ComparisonResult:
    """The same result with wall-clock planning times zeroed (for file artifacts)."""
    return ComparisonResult(
        reports={name: strip_timing(rs) for name, rs in result.reports.items()},
        mean_execution_time=result.mean_execution_time,
        mean_ssp_distance=result.mean_ssp_distance,
        improvement_vs_baseline=result.improvement_vs_baseline,
    )


def comparison_rows(result: ComparisonResult) -> list[list]:
    """Report rows plus an improvement column, filled on the mean rows."""
    rows = [REPORT_COLUMNS + ["improvement_vs_baseline"]]
    for name in ALGORITHMS:
        for row in report_rows(result.reports[name]):
            if row[1] == "mean":
                row = row + [repr(result.improvement_vs_baseline[name])]
            else:
                row = row + [""]
            rows.append(row)
    return rows


def plot_data_rows(result: ComparisonResult) -> list[list]:
    """Long-format per-trial points for improvement-vs-algorithm charts."""
    rows = [PLOT_COLUMNS]
    for name in ALGORITHMS:
        for report in result.reports[name]:
            values = {
                "ssp_distance_m": report.ssp_distance,
                "total_rotation_rad": report.total_rotation,
                "estimated_execution_time_s": report.estimated_execution_time,
            }
            rows.extend([name, report.seed, metric, repr(values[metric])]
                        for metric in PLOT_METRICS)
    return rows
