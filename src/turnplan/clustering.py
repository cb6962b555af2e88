"""Spatial clustering of waypoints and the single-revolution turntable schedule.

Waypoints are grouped with seeded k-means (Lloyd's algorithm) on their 3D
positions. Each cluster gets a circular-mean angle about the turntable axis;
clusters are then served in ascending angular order so the table, which can
only rotate one way, never needs more than one full revolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, circular_separation, forward_delta, wrap_angle
from .geometry import _DEFAULT_PART, Waypoints, _table_angles

DEFAULT_CLUSTER_COUNT = 5
# Sector the robot can reach without moving the table: 72 degrees.
DEFAULT_ANGULAR_BOUND = TWO_PI / 5.0

# Resultant-vector norm below which a set of angles has no usable mean.
DEGENERATE_RESULTANT_TOL = 1e-9


class DegenerateMeanError(ValueError):
    """Raised when angles cancel out and their circular mean is undefined."""


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for the clustering step."""

    k: int = DEFAULT_CLUSTER_COUNT
    angular_bound: float = DEFAULT_ANGULAR_BOUND
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not 0.0 < self.angular_bound <= TWO_PI:
            raise ValueError(f"angular_bound must lie in (0, 2*pi], got {self.angular_bound!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


@dataclass(frozen=True, eq=False)
class Cluster:
    """A group of waypoint indices with its 3D centroid and mean table angle."""

    members: tuple[int, ...]
    centroid: np.ndarray
    mean_angle: float

    def __post_init__(self):
        members = tuple(int(i) for i in self.members)
        if not members:
            raise ValueError("cluster must have at least one member")
        object.__setattr__(self, "members", members)
        centroid = np.array(self.centroid, dtype=float)
        if centroid.shape != (3,):
            raise ValueError(f"centroid must be a 3-vector, got shape {centroid.shape}")
        centroid.setflags(write=False)
        object.__setattr__(self, "centroid", centroid)
        angle = float(self.mean_angle)
        if not 0.0 <= angle < TWO_PI:
            raise ValueError(f"mean_angle must lie in [0, 2*pi), got {angle!r}")
        object.__setattr__(self, "mean_angle", angle)


@dataclass(frozen=True, eq=False)
class ClusterPlan:
    """Clusters in serving order plus the forward table rotation before each one."""

    clusters: tuple[Cluster, ...]
    rotation_deltas: tuple[float, ...]
    total_rotation: float

    def __post_init__(self):
        clusters = tuple(self.clusters)
        deltas = tuple(float(d) for d in self.rotation_deltas)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "rotation_deltas", deltas)
        object.__setattr__(self, "total_rotation", float(self.total_rotation))
        if not clusters:
            raise ValueError("cluster plan must contain at least one cluster")
        if len(deltas) != len(clusters):
            raise ValueError("need exactly one rotation delta per cluster")
        if any(not 0.0 <= d < TWO_PI for d in deltas):
            raise ValueError("rotation deltas must lie in [0, 2*pi)")
        if abs(self.total_rotation - sum(deltas)) > 1e-9:
            raise ValueError("total_rotation must equal the sum of rotation deltas")
        if self.total_rotation > TWO_PI + 1e-9:
            raise ValueError("plan exceeds one turntable revolution")
        all_members = [i for c in clusters for i in c.members]
        if sorted(all_members) != list(range(len(all_members))):
            raise ValueError("clusters must partition waypoint indices 0..N-1 exactly")

    @property
    def n_points(self) -> int:
        return sum(len(c.members) for c in self.clusters)


def circular_mean(angles) -> float:
    """Mean of circular quantities: atan2 of summed sines and cosines, in [0, 2*pi).

    Raises DegenerateMeanError when the angles cancel (resultant norm <= 1e-9),
    e.g. two perfectly opposed directions.
    """
    arr = np.asarray(angles, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take the circular mean of no angles")
    sin_sum = float(np.sin(arr).sum())
    cos_sum = float(np.cos(arr).sum())
    if math.hypot(sin_sum, cos_sum) <= DEGENERATE_RESULTANT_TOL:
        raise DegenerateMeanError("angles cancel out; circular mean undefined")
    return wrap_angle(math.atan2(sin_sum, cos_sum))


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact (n, k) squared distances: the reference every assignment reproduces."""
    # einsum, not a hand-written x + y + z, over a C-ordered diff whatever the
    # inputs' layout: its 3-term sum rounds in an order set by the memory
    # layout, and the assignments must not move by a last-bit difference
    diff = np.empty((len(points), len(centroids), 3))
    np.subtract(points[:, None, :], centroids, out=diff)
    return np.einsum("ijk,ijk->ij", diff, diff)


# Tie margin of the matmul assignment, per unit of max|p|^2 (see below).
_TIE_TOL = 256.0 * float(np.finfo(float).eps)


def _nearest_centroid(points: np.ndarray, k: int):
    """An assignment step for `points`: (k, 3) centroids -> index of each point's nearest one.

    The result is bitwise equal to `_squared_distances(points, c).argmin(1)`,
    but costs one (n, 4) @ (4, k) matmul instead of an (n, k, 3) pass.
    Every centroid must be a mean of the points, so that |c| <= M = max|p|
    (up to the rounding of the mean, which is far below the margin here).

    Why it is exact. The matmul gives approx = -2 p.c + |c|^2, the squared
    distance less |p|^2, which is the same for every centroid of a row and
    so moves neither the argmin nor the gaps. BLAS may sum the four terms in
    any order, and fuse multiply-adds. With u = eps/2 and |p|, |c| <= M:
    - |c|^2 carries at most 3u M^2 of rounding;
    - the terms' magnitudes sum to at most 2|p||c| + |c|^2 <= 3 M^2, so the
      4-term dot product adds at most 4u * 3 M^2 = 12u M^2;
    - the einsum value is off the true distance d <= 4 M^2 by at most
      5u d <= 20u M^2 (a rounded difference, squared, then 3 terms).
    So approx + |p|^2 and the einsum value differ by at most
    B = 35u M^2 < 18 eps M^2. If every other centroid's approx exceeds the
    row's best by more than tol >= 2B, its einsum value exceeds the best's
    too: the exact argmin is unique and the same, whatever order and however
    many threads BLAS uses. tol = 256 eps M^2 is over 14 B, which also covers
    the rounding of best + tol. Rows within tol of their best (ties) are
    recomputed with the exact einsum, whose argmin sends ties to the lowest
    index.
    """
    n = len(points)
    lifted = np.ones((n, 4))
    lifted[:, :3] = points
    tol = _TIE_TOL * float(np.einsum("ij,ij->i", points, points).max())
    rows = np.arange(n)
    coeffs = np.empty((4, k))
    approx = np.empty((n, k))
    near = np.empty((n, k), dtype=bool)

    def assign(centroids: np.ndarray) -> np.ndarray:
        np.multiply(centroids.T, -2.0, out=coeffs[:3])
        np.einsum("ij,ij->i", centroids, centroids, out=coeffs[3])
        np.matmul(lifted, coeffs, out=approx)
        labels = approx.argmin(axis=1)
        best = approx[rows, labels]
        best += tol
        np.less_equal(approx, best[:, None], out=near)
        # every row counts its own best; more than n means some row is tied
        if np.count_nonzero(near) > n:
            tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
            labels[tied] = _squared_distances(points[tied], centroids).argmin(axis=1)
        return labels

    return assign


def _fix_empty_clusters(assign: np.ndarray, dist2: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Move the point farthest from its centroid into each empty cluster; updates `counts`."""
    assign = assign.copy()
    own_dist = dist2[np.arange(len(assign)), assign]
    for empty in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assign] > 1)
        moved = donors[int(np.argmax(own_dist[donors]))]
        counts[assign[moved]] -= 1
        assign[moved] = empty
        counts[empty] = 1
    return assign


def _singleton_clusters(points: np.ndarray, angles: np.ndarray) -> list[Cluster]:
    return [Cluster(members=(i,), centroid=points[i], mean_angle=wrap_angle(float(angles[i])))
            for i in range(len(points))]


def _member_mean_angle(angles: np.ndarray, members: np.ndarray) -> float:
    try:
        return circular_mean(angles[members])
    except DegenerateMeanError:
        # opposed angles (e.g. collinear points through the axis): fall back to
        # the lowest-index member so planning never dies on crafted inputs
        return wrap_angle(float(angles[members.min()]))


def cluster_points(positions, params: ClusterParams, angles=None) -> list[Cluster]:
    """Partition positions into up to `params.k` spatial clusters.

    Runs Lloyd's k-means seeded from `params.seed` (initial centroids are
    distinct input points). `angles` supplies each point's table angle for the
    cluster means; when omitted it is derived from the in-plane coordinates
    under the default axis convention. With fewer points than k, every point
    becomes its own cluster.
    """
    points = np.asarray(positions, dtype=float)
    if points.size == 0:
        raise ValueError("cannot cluster an empty point set")
    points = points.reshape(len(points), 3)
    if not np.isfinite(points).all():
        raise ValueError("positions must be finite")
    if angles is None:
        angle_arr = np.array(_table_angles(points, _DEFAULT_PART)[0])
    else:
        angle_arr = np.asarray(angles, dtype=float)
    if angle_arr.shape != (len(points),):
        raise ValueError("need exactly one angle per position")
    if not np.isfinite(angle_arr).all():
        raise ValueError("angles must be finite")

    n = len(points)
    k = min(params.k, n)
    if n <= k:
        return _singleton_clusters(points, angle_arr)

    rng = np.random.default_rng(params.seed)
    centroids = points[rng.choice(n, size=k, replace=False)]
    nearest = _nearest_centroid(points, k)
    # centroid sums come from one bincount over (axis, cluster) bins, with
    # the coordinates laid out axis by axis; each bin sums its members in
    # index order, so a centroid is bitwise equal to points[assign == j].mean(axis=0)
    coords = points.T.ravel()
    axis_offsets = k * np.arange(3)[:, None]
    prev_assign = None
    for _ in range(params.max_iterations):
        assign = nearest(centroids)  # ties go to the lowest cluster index
        counts = np.bincount(assign, minlength=k)
        if np.count_nonzero(counts) < k:
            assign = _fix_empty_clusters(assign, _squared_distances(points, centroids), counts)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        sums = np.bincount((axis_offsets + assign).ravel(), weights=coords, minlength=3 * k)
        centroids = (sums.reshape(3, k) / counts).T

    members = np.split(np.argsort(assign, kind="stable"), np.cumsum(counts)[:-1])
    return [Cluster(members=m.tolist(), centroid=centroids[j],
                    mean_angle=_member_mean_angle(angle_arr, m))
            for j, m in enumerate(members)]


def order_clusters(clusters, start_angle: float) -> ClusterPlan:
    """Sort clusters by ascending angle from `start_angle` and schedule the rotations.

    Each rotation delta is the forward arc from the previous angular target to
    the next, so the whole plan never exceeds one revolution.
    """
    clusters = list(clusters)
    if not clusters:
        raise ValueError("no clusters to order")
    keys = np.array([forward_delta(start_angle, c.mean_angle) for c in clusters])
    order = np.argsort(keys, kind="stable")  # equal angles keep input order
    ordered = [clusters[i] for i in order]
    deltas = []
    previous = start_angle
    for cluster in ordered:
        deltas.append(forward_delta(previous, cluster.mean_angle))
        previous = cluster.mean_angle
    return ClusterPlan(clusters=tuple(ordered), rotation_deltas=tuple(deltas),
                       total_rotation=sum(deltas))


def center_offset(cluster: Cluster, robot_center_angle: float) -> float:
    """Forward table rotation that brings the cluster mean onto the robot's center angle."""
    return forward_delta(cluster.mean_angle, robot_center_angle)


@dataclass(frozen=True)
class ClusterReach:
    """How far a cluster's members stray from its mean angle."""

    cluster_index: int
    extent: float
    within_bound: bool


def reachability_report(plan: ClusterPlan, waypoints: Waypoints,
                        params: ClusterParams) -> list[ClusterReach]:
    """Per-cluster angular extent versus half the reachable bound.

    Advisory only: clustering runs on 3D positions, so nothing forces a
    cluster to fit the angular bound.
    """
    n = len(waypoints)
    report = []
    for index, cluster in enumerate(plan.clusters):
        if max(cluster.members) >= n:
            raise ValueError("plan references waypoints beyond the supplied bundle")
        extent = max(circular_separation(angle, cluster.mean_angle)
                     for angle in waypoints.table_angles[list(cluster.members)].tolist())
        report.append(ClusterReach(cluster_index=index, extent=extent,
                                   within_bound=extent <= params.angular_bound / 2.0))
    return report
