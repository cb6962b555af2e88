"""Plan checks and plan-quality scores, recomputed with plain numpy.

Nothing here calls `turnplan.metrics`: the expected waypoint positions come
from the hole frames, the table angles from atan2 about the default +z axis,
and the turntable schedule from the clusters' member angles. A plan that
breaks a check raises `CheckError`; the run counts it as failed and goes on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# Same limit the planner uses for a usable circular-mean resultant.
DEGENERATE_RESULTANT = 1e-9
ANGLE_TOL = 1e-9
REL_TOL = 1e-9


class CheckError(ValueError):
    """A plan violated one of the benchmark's correctness checks."""


@dataclass(frozen=True)
class Layout:
    """What the checks need to know about one part, computed without turnplan."""

    positions: np.ndarray      # (n, 3) stand-off waypoint positions, meters
    angles: np.ndarray         # (n,) table angles in [0, 2*pi)
    k: int                     # clusters requested (baseline sectors)
    angular_bound: float       # reachable sector width, radians


@dataclass(frozen=True)
class Cell:
    """Execution-time model constants (read from turnplan's default CellModel)."""

    robot_speed: float
    table_speed: float
    per_point: float


@dataclass(frozen=True)
class Score:
    algorithm: str
    ssp: float
    rotation: float
    cycle_time: float
    clusters: int
    reach_violations: int
    digest: str


def waypoint_layout(origins, y_axes, standoff: float, k: int, angular_bound: float) -> Layout:
    """Stand-off positions (attack angle 0: offset along the hole's y axis) and their angles."""
    positions = np.asarray(origins, dtype=float) + standoff * np.asarray(y_axes, dtype=float)
    angles = np.mod(np.arctan2(positions[:, 1], positions[:, 0]), TWO_PI)
    angles[angles >= TWO_PI] = 0.0
    return Layout(positions=positions, angles=angles, k=k, angular_bound=angular_bound)


def _circular_mean(angles: np.ndarray) -> float:
    s, c = float(np.sin(angles).sum()), float(np.cos(angles).sum())
    if math.hypot(s, c) <= DEGENERATE_RESULTANT:
        return float(angles[0])  # members ascend, so this is the lowest index
    return math.atan2(s, c) % TWO_PI


def _targets(layout: Layout, algorithm: str, sequences) -> list[float]:
    """Angle the table presents for each cluster, recomputed from its members."""
    targets = []
    width = TWO_PI / layout.k
    for seq in sequences:
        members = np.sort(np.asarray(seq))
        angles = layout.angles[members]
        if algorithm == "baseline":
            sectors = np.minimum((angles // width).astype(int), layout.k - 1)
            if np.any(sectors != sectors[0]):
                raise CheckError("a baseline group spans more than one sector")
            targets.append((sectors[0] * width + width / 2.0) % TWO_PI)
        else:
            targets.append(_circular_mean(angles))
    return targets


def _nearest_chain(positions: np.ndarray, seq, previous: np.ndarray) -> None:
    """Each visit must be the nearest unvisited member; ties go to the lowest index.

    Distances are rounded the way the planner rounds them (a norm for the
    entry point, a summed square root along the chain): every hemisphere
    waypoint lies 0.2 m from the robot home, so the entry point of the first
    cluster is an exact tie in one rounding and not in another.
    """
    members = np.sort(np.asarray(seq))
    local = np.searchsorted(members, seq)
    pts = positions[members]
    unvisited = np.ones(len(members), dtype=bool)
    for step, chosen in enumerate(local):
        diff = pts - previous
        if step == 0:
            dist = np.linalg.norm(diff, axis=1)
        else:
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist[~unvisited] = np.inf
        d = dist[chosen]
        if d > dist.min() * (1.0 + 1e-12) or np.any(dist[:chosen] == d):
            raise CheckError("greedy order is not a nearest-neighbour chain")
        unvisited[chosen] = False
        previous = pts[chosen]


def score_plan(layout: Layout, cell: Cell, algorithm: str, sequences, claimed_deltas,
               claimed_rotation: float, claimed_ssp: float | None = None,
               home=(0.0, 0.0, 0.0)) -> Score:
    """Check one plan and score it. `sequences` are waypoint indices per cluster, in visit order."""
    sequences = [list(seq) for seq in sequences]
    order = np.fromiter((i for seq in sequences for i in seq), dtype=np.int64)
    n = len(layout.positions)
    if len(order) != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise CheckError("plan is not a permutation of the waypoints")

    targets = np.asarray(_targets(layout, algorithm, sequences))
    if np.any(np.diff(targets) < -ANGLE_TOL):  # start angle 0: forward arc == angle
        raise CheckError("clusters are not served in ascending angle")
    deltas = np.mod(np.diff(np.concatenate(([0.0], targets))), TWO_PI)
    rotation = float(deltas.sum())
    if rotation > TWO_PI + ANGLE_TOL:
        raise CheckError(f"total rotation {rotation} exceeds one revolution")
    if len(claimed_deltas) != len(deltas) or \
            np.max(np.abs(np.asarray(claimed_deltas) - deltas), initial=0.0) > ANGLE_TOL:
        raise CheckError("rotation schedule does not match the cluster angles")
    if abs(claimed_rotation - rotation) > ANGLE_TOL:
        raise CheckError(f"plan reports rotation {claimed_rotation}, recomputed {rotation}")

    path = layout.positions[order]
    step = np.diff(path, axis=0)
    ssp = float(np.sqrt(np.einsum("ij,ij->i", step, step)).sum())
    if claimed_ssp is not None and not math.isclose(claimed_ssp, ssp, rel_tol=REL_TOL):
        raise CheckError(f"plan reports SSP {claimed_ssp}, recomputed {ssp}")

    if algorithm == "greedy":
        previous = np.asarray(home, dtype=float)
        for seq in sequences:
            _nearest_chain(layout.positions, seq, previous)
            previous = layout.positions[seq[-1]]
    elif algorithm == "cluster" and any(seq != sorted(seq) for seq in sequences):
        raise CheckError("clustering-only plan reorders members")

    violations = 0
    for seq, target in zip(sequences, targets):
        gap = np.abs(layout.angles[seq] - target) % TWO_PI
        extent = float(np.minimum(gap, TWO_PI - gap).max())
        violations += extent > layout.angular_bound / 2.0

    cycle = ssp / cell.robot_speed + rotation / cell.table_speed + n * cell.per_point
    digest = hashlib.sha256(order.tobytes() + deltas.tobytes()).hexdigest()[:16]
    return Score(algorithm=algorithm, ssp=ssp, rotation=rotation, cycle_time=cycle,
                 clusters=len(sequences), reach_violations=violations, digest=digest)


def quality(greedy: list[Score], baseline: list[Score]) -> dict:
    """Plan-quality metrics over one pass: greedy means, and gain on the same layouts."""
    cycle = float(np.mean([s.cycle_time for s in greedy]))
    clusters = sum(s.clusters for s in greedy)
    violations = sum(s.reach_violations for s in greedy)
    return {
        "cycle_time_s": cycle,
        "ssp_m": float(np.mean([s.ssp for s in greedy])),
        "rotation_rad": float(np.mean([s.rotation for s in greedy])),
        "gain_vs_baseline": 1.0 - cycle / float(np.mean([s.cycle_time for s in baseline])),
        "reach_violation_ratio": violations / clusters,
        "clusters_scored": clusters,
    }
