"""Plan scoring: open-path travel distance, a kinematic execution-time
estimate for the robot + turntable cell, and the points a plan leaves out of reach.

The execution model is deliberately simple: constant robot speed over
straight segments, constant table speed over the scheduled rotations, a fixed
dwell per point, and an optional per-point planner overhead. Robot and table
motion are sequential, never overlapped. The default speeds are placeholders,
not measurements of any particular cell.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .angles import circular_separation
from .geometry import _as_real
from .sequencing import Plan


@dataclass(frozen=True)
class CellModel:
    """Work-cell speeds for the execution-time estimate."""

    robot_linear_speed: float = 0.5        # m/s
    turntable_angular_speed: float = 0.2   # rad/s; the table is the slow axis
    dwell_per_point: float = 1.0           # s spent acting at each point
    planner_overhead_per_point: float = 0.0  # s; emulates motion-planner search time

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        for name in ("robot_linear_speed", "turntable_angular_speed"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        for name in ("dwell_per_point", "planner_overhead_per_point"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")

    def time_terms(self, ssp: float, rotation: float,
                   n_points: int) -> tuple[float, float, float]:
        """Seconds of travel, of rotation, and of per-point dwell and planner overhead."""
        return (ssp / self.robot_linear_speed, rotation / self.turntable_angular_speed,
                n_points * (self.dwell_per_point + self.planner_overhead_per_point))

    def execution_time(self, ssp: float, rotation: float, n_points: int) -> float:
        """The sum of `time_terms`: (travel + rotation) + dwell and planner overhead."""
        travel, turning, dwell = self.time_terms(ssp, rotation, n_points)
        return travel + turning + dwell


def ssp_distance(plan: Plan, positions) -> float:
    """Total straight-line length of the open path through the plan's visit order."""
    pts = np.asarray(positions, dtype=float)
    pts = pts.reshape(len(pts), 3)
    # a Plan visits 0..n_points-1 once each, so only the count needs checking
    if plan.n_points != len(pts):
        raise ValueError("plan does not cover exactly the supplied positions")
    path = pts[plan.flattened_order]
    return float(np.linalg.norm(np.diff(path, axis=0), axis=1).sum())


def out_of_reach(plan: Plan, table_angles: np.ndarray, on_axis: np.ndarray, bound: float) -> int:
    """How many points the plan serves at a stop (its cluster's angle) more than bound / 2 away
    by `circular_separation`; points on the table axis (`on_axis`) are in reach at every stop."""
    stops = np.repeat([c.mean_angle for c in plan.cluster_plan.clusters],
                      list(map(len, plan.sequences)))
    visits = plan.flattened_order
    far = circular_separation(table_angles[visits], stops) > bound / 2.0
    return int(np.count_nonzero(far & ~on_axis[visits]))
