"""Benchmark criteria: planning time, open-path travel distance, and a
kinematic execution-time estimate for the robot + turntable cell.

The execution model is deliberately simple: constant robot speed over
straight segments, constant table speed over the scheduled rotations, a fixed
dwell per point, and an optional per-point planner overhead. Robot and table
motion are sequential, never overlapped. The default speeds are placeholders,
not measurements of any particular cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import sequencing
from .geometry import Waypoints, generate_waypoints
from .sequencing import Plan

if TYPE_CHECKING:
    from .bench import Scenario


@dataclass(frozen=True)
class CellModel:
    """Work-cell speeds for the execution-time estimate."""

    robot_linear_speed: float = 0.5        # m/s
    turntable_angular_speed: float = 0.2   # rad/s; the table is the slow axis
    dwell_per_point: float = 1.0           # s spent acting at each point
    planner_overhead_per_point: float = 0.0  # s; emulates motion-planner search time

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN is rejected too
        for name in ("robot_linear_speed", "turntable_angular_speed"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        for name in ("dwell_per_point", "planner_overhead_per_point"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BenchmarkReport:
    """One trial's worth of benchmark criteria."""

    algorithm_name: str
    planning_time: float
    ssp_distance: float
    estimated_execution_time: float
    total_rotation: float
    n_points: int
    seed: int

    def __post_init__(self):
        for name in ("planning_time", "ssp_distance", "estimated_execution_time",
                     "total_rotation", "n_points"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:  # False for NaN too
                raise ValueError(f"report metric {name} must be finite and >= 0, got {value!r}")


def ssp_distance(plan: Plan, positions) -> float:
    """Total straight-line length of the open path through the plan's visit order."""
    pts = np.asarray(positions, dtype=float)
    pts = pts.reshape(len(pts), 3)
    # a Plan visits 0..n_points-1 once each, so only the count needs checking
    if plan.n_points != len(pts):
        raise ValueError("plan does not cover exactly the supplied positions")
    path = pts[list(plan.flattened_order)]
    return float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())


def estimate_execution_time(plan: Plan, positions, cell: CellModel) -> float:
    """Travel time + rotation time + per-point dwell and planner overhead."""
    travel = ssp_distance(plan, positions) / cell.robot_linear_speed
    rotation = plan.cluster_plan.total_rotation / cell.turntable_angular_speed
    per_point = plan.n_points * (cell.dwell_per_point + cell.planner_overhead_per_point)
    return travel + rotation + per_point


def _plan_baseline(waypoints: Waypoints, scenario: Scenario, params) -> Plan:
    return sequencing.baseline_angle_sequence(waypoints, groups=params.k,
                                              start_angle=scenario.robot_center_angle)


def _plan_cluster_only(waypoints: Waypoints, scenario: Scenario, params) -> Plan:
    return sequencing.plan_waypoints(waypoints, params,
                                     robot_center_angle=scenario.robot_center_angle,
                                     within_cluster="input")


def _plan_greedy(waypoints: Waypoints, scenario: Scenario, params) -> Plan:
    return sequencing.plan_waypoints(waypoints, params,
                                     robot_center_angle=scenario.robot_center_angle,
                                     robot_home=scenario.robot_home)


# Every planner takes (waypoints, scenario, params) -> Plan; params carries the trial's seed.
PLANNERS = {
    "baseline": _plan_baseline,
    "cluster": _plan_cluster_only,
    "greedy": _plan_greedy,
}


def benchmark(algorithm, scenario: Scenario, trials: int) -> list[BenchmarkReport]:
    """Run one algorithm for `trials` seeded trials and report each trial.

    `algorithm` is a key of PLANNERS or a callable with the planner signature
    (waypoints, scenario, params) -> Plan. The scenario's waypoints are
    generated once, before the first trial, outside the timer; see
    `trial_reports` for the trials themselves.
    """
    if callable(algorithm):
        plan_fn, name = algorithm, getattr(algorithm, "__name__", "custom")
    else:
        if algorithm not in PLANNERS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(PLANNERS)}")
        plan_fn, name = PLANNERS[algorithm], algorithm
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    return trial_reports(plan_fn, name, waypoints, scenario, trials)


def trial_reports(plan_fn, name: str, waypoints: Waypoints, scenario: Scenario,
                  trials: int) -> list[BenchmarkReport]:
    """Plan and score `trials` seeded trials of one planner on one waypoint bundle.

    Trial i uses seed scenario.cluster_params.seed + i. The planning time is
    wall clock around the planner call only.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    positions = waypoints.positions
    reports = []
    for trial in range(trials):
        seed = scenario.cluster_params.seed + trial
        params = replace(scenario.cluster_params, seed=seed)
        tic = time.perf_counter()
        plan = plan_fn(waypoints, scenario, params)
        elapsed = time.perf_counter() - tic
        reports.append(BenchmarkReport(
            algorithm_name=name,
            planning_time=elapsed,
            ssp_distance=ssp_distance(plan, positions),
            estimated_execution_time=estimate_execution_time(plan, positions, scenario.cell),
            total_rotation=plan.cluster_plan.total_rotation,
            n_points=plan.n_points,
            seed=seed,
        ))
    return reports
