"""Waypoint ordering: greedy nearest-neighbor within clusters, an exact
open-path oracle for small instances, the angle-sector baseline, and the
planning pipeline over generated waypoints (clusters -> schedule -> sequences).

All path lengths are open: the robot is not required to return to its start.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, forward_delta, wrap_angle
from .clustering import Cluster, ClusterParams, ClusterPlan, cluster_points, order_clusters
from .geometry import as_waypoints

# Exact search is capped here; beyond this the subset table gets unwieldy.
EXACT_SEARCH_MAX_POINTS = 12


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exact solver's size cap."""


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Pairwise Euclidean distances between waypoint positions."""

    n: int
    d: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=float)
        if d.shape != (self.n, self.n):
            raise ValueError(f"distance matrix must be {self.n}x{self.n}, got {d.shape}")
        if not np.all(np.isfinite(d)) or np.any(d < 0.0):
            raise ValueError("distances must be finite and non-negative")
        if np.max(np.abs(d - d.T), initial=0.0) > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(d) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class Sequence:
    """A visit order over matrix indices; always a full permutation."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)

    def length(self, m: DistanceMatrix) -> float:
        return float(sum(m.d[a][b] for a, b in zip(self.order, self.order[1:])))


def distance_matrix(positions) -> DistanceMatrix:
    """Pairwise Euclidean distance matrix for a non-empty set of 3D points."""
    pts = np.asarray(positions, dtype=float)
    if pts.size == 0:
        raise ValueError("cannot build a distance matrix from no points")
    pts = pts.reshape(len(pts), 3)
    diff = pts[:, None, :] - pts[None, :, :]
    return DistanceMatrix(n=len(pts), d=np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


def _nearest_neighbor_chain(n: int, start: int, row) -> Sequence:
    """Greedy chain from `start`; `row(current)` gives the distances from `current`
    with every visited point (current included) at inf. Ties go to the lowest index."""
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, {n}), got {start!r}")
    order = [start]
    current = start
    for _ in range(n - 1):
        current = int(row(current).argmin())
        order.append(current)
    return Sequence(tuple(order))


def greedy_sequence(m: DistanceMatrix, start: int = 0) -> Sequence:
    """Nearest-neighbor chain over a distance matrix from `start`; ties go to the lowest index."""
    unvisited = np.ones(m.n, dtype=bool)

    def row(current: int) -> np.ndarray:
        unvisited[current] = False
        return np.where(unvisited, m.d[current], np.inf)

    return _nearest_neighbor_chain(m.n, start, row)


def greedy_chain(positions, start: int = 0) -> Sequence:
    """The nearest-neighbor chain of greedy_sequence(distance_matrix(positions)), matrix-free.

    Each step computes one row of distances, so memory is O(n) rather than
    O(n^2). Visited points are overwritten with inf in a private copy.
    """
    pts = np.array(positions, dtype=float).reshape(-1, 3)
    diff = np.empty_like(pts)
    dist = np.empty(len(pts))

    def row(current: int) -> np.ndarray:
        here = pts[current].copy()
        pts[current] = np.inf
        np.subtract(here, pts, out=diff)
        # the same einsum as distance_matrix, so each row is bitwise equal to its row
        np.einsum("ij,ij->i", diff, diff, out=dist)
        return np.sqrt(dist, out=dist)

    return _nearest_neighbor_chain(len(pts), start, row)


def optimal_sequence(m: DistanceMatrix, start: int = 0) -> Sequence:
    """Minimum-length open path from `start`, by dynamic programming over subsets.

    Exact but exponential; capped at EXACT_SEARCH_MAX_POINTS points. Ties are
    broken toward the lexicographically smallest visit order.
    """
    n = m.n
    if n > EXACT_SEARCH_MAX_POINTS:
        raise InstanceTooLargeError(
            f"exact search handles at most {EXACT_SEARCH_MAX_POINTS} points, got {n}")
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, {n}), got {start!r}")
    if n == 1:
        return Sequence((0,))

    d = m.d.tolist()
    size = 1 << n
    # best[mask][j]: shortest path starting at j that visits exactly `mask` (j in mask)
    best = [[math.inf] * n for _ in range(size)]
    for j in range(n):
        best[1 << j][j] = 0.0
    members_of = [[j for j in range(n) if mask >> j & 1] for mask in range(size)]
    for mask in range(3, size):
        members = members_of[mask]
        if len(members) < 2:
            continue
        for j in members:
            rest = mask ^ (1 << j)
            rest_best = best[rest]
            dj = d[j]
            value = math.inf
            for k in members_of[rest]:
                cand = dj[k] + rest_best[k]
                if cand < value:
                    value = cand
            best[mask][j] = value

    order = [start]
    mask = size - 1
    current = start
    while mask != 1 << current:
        rest = mask ^ (1 << current)
        target = best[mask][current]
        for k in members_of[rest]:  # ascending: smallest index achieving the optimum
            if d[current][k] + best[rest][k] == target:
                order.append(k)
                mask = rest
                current = k
                break
    return Sequence(tuple(order))


@dataclass(frozen=True, eq=False)
class Plan:
    """Ordered clusters with their rotation schedule and per-cluster visit order."""

    cluster_plan: ClusterPlan
    sequences: tuple[tuple[int, ...], ...]
    flattened_order: tuple[int, ...]

    def __post_init__(self):
        sequences = tuple(tuple(int(i) for i in seq) for seq in self.sequences)
        flattened = tuple(int(i) for i in self.flattened_order)
        object.__setattr__(self, "sequences", sequences)
        object.__setattr__(self, "flattened_order", flattened)
        if len(sequences) != len(self.cluster_plan.clusters):
            raise ValueError("need one sequence per cluster")
        for seq, cluster in zip(sequences, self.cluster_plan.clusters):
            if sorted(seq) != sorted(cluster.members):
                raise ValueError("each sequence must reorder exactly its cluster's members")
        if flattened != tuple(i for seq in sequences for i in seq):
            raise ValueError("flattened_order must concatenate the per-cluster sequences")
        if sorted(flattened) != list(range(len(flattened))):
            raise ValueError("flattened_order must be a permutation of all waypoints")

    @property
    def n_points(self) -> int:
        return len(self.flattened_order)


def _make_plan(cluster_plan: ClusterPlan, sequences) -> Plan:
    sequences = tuple(tuple(seq) for seq in sequences)
    return Plan(cluster_plan=cluster_plan, sequences=sequences,
                flattened_order=tuple(i for seq in sequences for i in seq))


def baseline_angle_sequence(waypoints, groups: int = 5, start_angle: float = 0.0) -> Plan:
    """Bin waypoints into equal angular sectors with no ordering inside a bin.

    The base case: `groups` sectors of width 2*pi/groups, visited in ascending
    angular order from `start_angle`, input order kept within each sector. The
    rotation schedule steps between successive sector centers. Deterministic.
    """
    waypoints = as_waypoints(waypoints)
    if not len(waypoints):
        raise ValueError("no waypoints to sequence")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups!r}")
    width = TWO_PI / groups
    bins: list[list[int]] = [[] for _ in range(groups)]
    for index, angle in enumerate(waypoints.table_angles.tolist()):
        bins[min(int(angle // width), groups - 1)].append(index)
    # serve sectors ascending by center angle from the start; ordering by the
    # sector start instead can exceed one revolution when the start angle sits
    # in a sector's second half
    centers = [wrap_angle(s * width + width / 2.0) for s in range(groups)]
    sector_order = sorted(range(groups), key=lambda s: forward_delta(start_angle, centers[s]))
    clusters = []
    deltas = []
    previous = start_angle
    for sector in sector_order:
        members = bins[sector]
        if not members:
            continue
        clusters.append(Cluster(members=tuple(members),
                                centroid=waypoints.positions[members].mean(axis=0),
                                mean_angle=centers[sector]))
        deltas.append(forward_delta(previous, centers[sector]))
        previous = centers[sector]
    cluster_plan = ClusterPlan(clusters=tuple(clusters), rotation_deltas=tuple(deltas),
                               total_rotation=sum(deltas))
    return _make_plan(cluster_plan, [c.members for c in clusters])


def plan_waypoints(waypoints, params: ClusterParams, robot_center_angle: float = 0.0,
                   robot_home=None, within_cluster: str = "greedy") -> Plan:
    """Cluster waypoints, schedule the turntable, and order each cluster.

    within_cluster: "greedy" runs the nearest-neighbor chain per cluster,
    starting at the member closest to the end of the previous cluster (the
    robot home for the first); "input" keeps members in input order (the
    clustering-only variant).
    """
    waypoints = as_waypoints(waypoints)
    if not len(waypoints):
        raise ValueError("no waypoints to plan")
    if within_cluster not in ("greedy", "input"):
        raise ValueError(f"unknown within_cluster mode {within_cluster!r}")
    positions = waypoints.positions
    clusters = cluster_points(positions, params, angles=waypoints.table_angles)
    cluster_plan = order_clusters(clusters, start_angle=robot_center_angle)

    previous_pos = np.zeros(3) if robot_home is None else np.asarray(robot_home, dtype=float)
    sequences = []
    for cluster in cluster_plan.clusters:
        members = cluster.members
        if within_cluster == "input" or len(members) == 1:
            seq = members
        else:
            local_pts = positions[list(members)]
            local_start = int(np.linalg.norm(local_pts - previous_pos, axis=1).argmin())
            seq = [members[i] for i in greedy_chain(local_pts, start=local_start).order]
        sequences.append(seq)
        previous_pos = positions[seq[-1]]
    return _make_plan(cluster_plan, sequences)


def plan_records(plan: Plan, waypoints) -> list[dict]:
    """One record per visited waypoint, in visit order.

    rotation_before is the table rotation applied immediately before reaching
    that waypoint: the cluster's delta for the first point of each cluster,
    zero otherwise.
    """
    waypoints = as_waypoints(waypoints)
    positions = waypoints.positions.tolist()
    angles = waypoints.table_angles.tolist()
    records = []
    for cluster_index, (sequence, delta) in enumerate(
            zip(plan.sequences, plan.cluster_plan.rotation_deltas)):
        for position_in_cluster, waypoint_index in enumerate(sequence):
            records.append({
                "waypoint_index": waypoint_index,
                "cluster_index": cluster_index,
                "position": positions[waypoint_index],
                "table_angle": angles[waypoint_index],
                "rotation_before": float(delta) if position_in_cluster == 0 else 0.0,
            })
    return records


def save_plan(plan: Plan, waypoints, path: str | os.PathLike) -> None:
    """Serialize a plan as a JSON array of visit records."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_records(plan, waypoints), fh, indent=2)
        fh.write("\n")

