"""Spatial clustering of waypoints and the single-revolution turntable schedule.

Two partitions: `cluster_points`, seeded k-means (Lloyd's algorithm) on the
3D positions, each cluster at the circular mean of its members' angles about
the turntable axis; and the baseline's `sector_clusters`, sectors of 2*pi/k,
each at its center. Clusters are served in ascending angular order so the
table, which can only rotate one way, never needs more than one revolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first use: import it here, so that the first
# plan of a process does not spend its time importing it
from numpy.random import default_rng

from .angles import TWO_PI, forward_delta, wrap_angle
from .geometry import Waypoints, _as_indices, _as_int, _as_real, _freeze, _squared_norms

DEFAULT_CLUSTER_COUNT = 5
# Sector the robot can reach without moving the table: 72 degrees.
DEFAULT_ANGULAR_BOUND = TWO_PI / 5.0

# Resultant-vector norm below which a set of angles has no usable mean.
DEGENERATE_RESULTANT_TOL = 1e-9

_PARTITION = "clusters must partition waypoint indices 0..N-1 exactly"
_MAX_ITERATIONS = 100  # Lloyd iterations, after which k-means stops unconverged


class DegenerateMeanError(ValueError):
    """Raised when angles cancel out and their circular mean is undefined."""


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for the clustering step."""

    k: int = DEFAULT_CLUSTER_COUNT
    angular_bound: float = DEFAULT_ANGULAR_BOUND
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, low))
        object.__setattr__(self, "angular_bound", _as_real(self.angular_bound, "angular_bound"))
        if not 0.0 < self.angular_bound <= TWO_PI:
            raise ValueError(f"angular_bound must lie in (0, 2*pi], got {self.angular_bound!r}")


@dataclass(frozen=True, eq=False)
class Cluster:
    """A group of waypoint indices, a read-only np.intp array, with its mean table angle."""

    members: np.ndarray
    mean_angle: float

    def __post_init__(self):
        members = _as_indices(self.members, "members", _PARTITION)
        if not len(members):
            raise ValueError("cluster must have at least one member")
        object.__setattr__(self, "members", members)
        angle = _as_real(self.mean_angle, "mean_angle")
        if not 0.0 <= angle < TWO_PI:
            raise ValueError(f"mean_angle must lie in [0, 2*pi), got {angle!r}")
        object.__setattr__(self, "mean_angle", angle)


@dataclass(frozen=True, eq=False)
class ClusterPlan:
    """Clusters in serving order from `start_angle`, and the forward rotation before each.

    The one owner of two plan invariants: the clusters partition the waypoint
    indices 0..N-1, and the rotations (each the forward arc from the previous
    angle, the first from `start_angle`, which is stored wrapped into
    [0, 2*pi)), whose sum is `total_rotation`, add up to at most one revolution.
    """

    clusters: tuple[Cluster, ...]
    start_angle: float
    rotation_deltas: tuple[float, ...] = field(init=False)
    total_rotation: float = field(init=False)

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if not clusters:
            raise ValueError("cluster plan must contain at least one cluster")
        start = wrap_angle(_as_real(self.start_angle, "start_angle"))
        angles = [start] + [c.mean_angle for c in clusters]
        deltas = tuple(map(forward_delta, angles[:-1], angles[1:]))
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "start_angle", start)
        object.__setattr__(self, "rotation_deltas", deltas)
        object.__setattr__(self, "total_rotation", sum(deltas))
        if self.total_rotation > TWO_PI + 1e-9:
            raise ValueError("plan exceeds one turntable revolution")
        members = np.concatenate([c.members for c in clusters])
        n = len(members)
        # range first, so that bincount allocates no more than n bins; as
        # unsigned, a negative index is above n too
        if not members.view(np.uintp).max() < n or \
                np.count_nonzero(np.bincount(members, minlength=n)) != n:
            raise ValueError(_PARTITION)


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
    """Exact (n, k) squared distances (`_squared_norms`), the reference of every assignment."""
    diff = np.empty((3, len(points), len(centroids)))
    np.subtract(points.T[:, :, None], centroids.T[:, None, :], out=diff)
    return _squared_norms(diff)


# Margins of the assignment step (derived in _NearestCentroid): the gap
# margin and the drift padding per unit of M, where M = max|p|. When the
# step pays at all: below _KERNEL_PAIRS (point, centroid) pairs, k-means
# assigns with the exact argmin itself. Since the exact path sums by
# _squared_norms, it is the faster one up to about 4000 pairs at k=5 and
# beyond 5000 at k=20 (one BLAS thread, 2 vCPU Xeon); both give the same
# labels, and no workload lies between 1024 and 5000 pairs, so this stays.
_GAP_TOL = 2.0**-23
_DRIFT_PAD = 16.0 * float(np.finfo(float).eps)
_KERNEL_PAIRS = 2**10


class _NearestCentroid:
    """A k-means assignment step that recomputes only the rows centroid drift could flip.

    Calling it with (k, 3) centroids returns each point's nearest centroid
    index, bitwise equal to `_squared_distances(points, c).argmin(1)`.
    Every centroid must be a mean of the points, so that |c| <= M = max|p|
    (up to the rounding of the mean, far below every margin here).

    Every recomputed row gets its label a and a lower bound b on its gap G:
    the distance to its second-nearest centroid minus that to its nearest.
    Every call after the first lowers every bound by the centroids' drift
    since the previous call and recomputes only the stale rows, those with
    b <= 0 (all of them when most are stale); the others keep their labels.

    The kernel. Each point is lifted to (p, 1) and each centroid to
    (-2c, C) with C = fl(|c|^2); one (rows, 4) @ (4, k) matmul gives
    q_j = -2 p.c_j + C_j, the squared distance D_j^2 = |p - c_j|^2 less
    |p|^2, which is the same for every centroid of a row and so moves
    neither the argmin nor the gaps. A row's label a is the argmin of its q.
    BLAS may sum the four terms in any order, and fuse multiply-adds. With
    u = eps/2 and |p|, |c| <= M, C carries at most 3u M^2 of rounding and
    the terms' magnitudes sum to at most 2|p||c| + |c|^2 <= 3 M^2, so q_j
    is within 3u M^2 + 4u * 3 M^2 = 15u M^2 of D_j^2 - |p|^2.

    The gap check makes it exact. For its best q and for the least q of
    the other centroids (taken from a (k, rows) product), the row gets
    d = fl(sqrt(max(fl(q + P), 0))), with P = fl(|p|^2) off by at most
    3u M^2 and the sum rounding by at most 4u M^2, so that fl(q + P) is
    within e = 22u M^2 = 11 eps M^2 of D^2; each d is then within
    sqrt(e) + 2u M of the true distance (|sqrt(x) - sqrt(y)| <= sqrt|x - y|,
    and the sqrt's own rounding), and h = fl(d_second - d_best) is within
    E = 2 sqrt(e) + 6u M = (2 sqrt(11 eps) + 3 eps) M < 9.9e-8 M of G.
    The kernel stores b = h - margin, with margin = _GAP_TOL * M = 2^-23 M
    > 1.19e-7 M, so that b <= G - m with m = margin - E > 2e-8 M. A row
    with b > 0 therefore has G > m > 6 eps M. The reference values, (dx^2 +
    dy^2) + dz^2 (`_squared_norms`), are within 5u, relative, of D^2 (3u
    per coordinate's rounded difference and square, u per add), and D_a <=
    2M, so every other centroid's reference value exceeds a's: a is the
    reference argmin, whatever order and however many threads BLAS uses. A
    row with b <= 0 is a near tie: it is recomputed with `_squared_distances`,
    whose argmin sends ties to the lowest index, and its bound becomes -inf.

    Drift keeps b <= G - m. When centroid j moves by Delta_j, D_a grows by
    at most Delta_a and every other D_j shrinks by at most max(Delta), so
    G falls by at most Delta_a + max(Delta). A call lowers b by
    x_a = fl(delta_a + fl(max(delta) + r)), where delta is the computed
    drift, within 3.6u, relative, of Delta, and r = _DRIFT_PAD * M =
    16 eps M = 32u M. The padding covers every rounding of the update: the
    drifts' 3.6u (delta_a + max(delta)) <= 14.4u M (no drift exceeds 2M),
    the two sums' 2u (delta_a + max(delta)) <= 8u M, and the subtraction's
    u |b - x_a| <= 4u M (a finite bound entering an update is at most 2M,
    and negative only when fresh), 26.4u M in all. So b stays at most G - m
    after any number of updates, and _MAX_ITERATIONS has no place in the
    margin. Empty-cluster repair moves points to clusters that are not
    their nearest; `relabel` makes their bounds -inf.
    """

    def __init__(self, points: np.ndarray, k: int):
        n = len(points)
        self.points = points
        self.lifted = np.ones((n, 4))  # a row per point: (x, y, z, 1)
        self.lifted[:, :3] = points
        self.squares = np.einsum("ij,ij->i", points, points)
        scale = math.sqrt(float(self.squares.max()))
        self.margin = _GAP_TOL * scale
        self.pad = _DRIFT_PAD * scale
        self.coeffs = np.empty((4, k))  # a column per centroid: (-2c, |c|^2)
        self.labels = self.bounds = None
        self.centroids = None  # those of the last call, from which the next one's drift is taken
        self._cols = np.arange(n)
        # room for the matmul outputs, (rows, k) and then (k, rows)
        self._products = np.empty(n * k)

    def __call__(self, centroids: np.ndarray) -> np.ndarray:
        n = len(self.points)
        np.multiply(centroids.T, -2.0, out=self.coeffs[:3])
        np.einsum("ij,ij->i", centroids, centroids, out=self.coeffs[3])
        rows = None
        if self.centroids is not None:
            drift = centroids - self.centroids
            drift = np.sqrt(np.einsum("ij,ij->i", drift, drift))
            drift += drift.max() + self.pad
            self.bounds -= drift[self.labels]
            # not "<= 0": a NaN bound (from overflowing coordinates) is stale too
            rows = (~(self.bounds > 0.0)).nonzero()[0]
        if rows is None or 2 * len(rows) > n:  # most rows stale: recompute them all
            labels, self.bounds = self._recompute(None, centroids)
        else:
            labels = self.labels.copy()
            labels[rows], self.bounds[rows] = self._recompute(rows, centroids)
        self.labels = labels
        self.centroids = centroids.copy()
        return labels

    def _recompute(self, rows, centroids: np.ndarray):
        """Labels and gap bounds of the given rows of the points (None: all)."""
        if rows is None:
            lifted, cols, squares = self.lifted, self._cols, self.squares
        else:
            lifted = np.take(self.lifted, rows, axis=0)
            cols, squares = self._cols[:len(rows)], self.squares[rows]
        r, k = len(lifted), len(centroids)
        products = self._products[:r * k]
        labels = np.matmul(lifted, self.coeffs, out=products.reshape(r, k)).argmin(axis=1)
        # the second-best from the (k, rows) product, where a min over
        # centroids runs down contiguous rows; it overwrites the first
        far = np.matmul(self.coeffs.T, lifted.T, out=products.reshape(k, r))
        best = far[labels, cols]
        far[labels, cols] = np.inf
        bounds = np.minimum.reduce(far, axis=0)  # the second-best, until the gap
        for q in (best, bounds):
            q += squares
            np.sqrt(np.maximum(q, 0.0, out=q), out=q)
        bounds -= best
        bounds -= self.margin
        tied = (~(bounds > 0.0)).nonzero()[0]
        if len(tied):
            points = self.points[tied if rows is None else rows[tied]]
            labels[tied] = _squared_distances(points, centroids).argmin(axis=1)
            bounds[tied] = -np.inf
        return labels, bounds

    def relabel(self, labels: np.ndarray) -> None:
        """Take labels changed outside the step; the rows that moved lose their bounds."""
        self.bounds[labels != self.labels] = -np.inf
        self.labels = labels


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


def _members_by_key(keys: np.ndarray) -> tuple[list[np.ndarray], list]:
    """Each distinct key's points in input order, by ascending key, and the keys.

    The points are read-only slices of one stable argsort.
    """
    by_key = _freeze(np.argsort(keys, kind="stable"))
    ordered = keys[by_key]
    firsts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()]
    ends = firsts[1:] + [len(keys)]
    return [by_key[a:b] for a, b in zip(firsts, ends)], ordered[firsts].tolist()


def _member_mean_angle(angles: np.ndarray, members: np.ndarray) -> float:
    try:
        return circular_mean(angles[members])
    except DegenerateMeanError:
        # opposed angles (e.g. collinear points through the axis): fall back to
        # the lowest-index member so planning never dies on crafted inputs
        return float(angles[members.min()])


def cluster_points(waypoints: Waypoints, params: ClusterParams) -> list[Cluster]:
    """Partition the waypoints into up to `params.k` clusters by their positions.

    Runs Lloyd's k-means seeded from `params.seed` (initial centroids are
    distinct input points); each cluster's angle is the circular mean of its
    members' table angles. With fewer points than k, every point becomes its
    own cluster.
    """
    points, angles = waypoints.positions, waypoints.table_angles
    n = len(points)
    k = min(params.k, n)
    if n <= k:
        return [Cluster(members=m, mean_angle=a)
                for m, a in zip(_members_by_key(np.arange(n))[0], angles.tolist())]

    rng = default_rng(params.seed)
    centroids = points[rng.choice(n, size=k, replace=False)]
    # below the crossover, the exact argmin that the kernel reproduces costs less
    nearest = _NearestCentroid(points, k) if n * k >= _KERNEL_PAIRS else None
    # centroid sums come from one bincount over (axis, cluster) bins, with
    # the coordinates laid out axis by axis; each bin sums its members in
    # index order, so a centroid is bitwise equal to points[assign == j].mean(axis=0)
    coords = points.T.ravel()
    axis_offsets = k * np.arange(3)[:, None]
    prev_assign = older = None  # the assignments of the last two iterations
    for iteration in range(_MAX_ITERATIONS):
        if nearest is None:  # ties go to the lowest cluster index
            assign = _squared_distances(points, centroids).argmin(axis=1)
        else:
            assign = nearest(centroids)
        counts = np.bincount(assign, minlength=k)
        repaired = np.count_nonzero(counts) < k
        if repaired:
            assign = _fix_empty_clusters(assign, _squared_distances(points, centroids), counts)
            if nearest is not None:
                nearest.relabel(assign)
        if prev_assign is not None and not np.count_nonzero(assign != prev_assign):
            break
        # each assignment is a function of the one before (the exact argmin of the
        # centroids it gives, then the repair), so one that recurs two iterations on
        # starts a period-2 cycle: return what the last iteration would
        if repaired and older is not None and not np.count_nonzero(assign != older):
            if (_MAX_ITERATIONS - 1 - iteration) % 2:  # an odd number of iterations left
                assign = prev_assign
            break
        older, prev_assign = prev_assign, assign
        sums = np.bincount((axis_offsets + assign).ravel(), weights=coords, minlength=3 * k)
        centroids = (sums.reshape(3, k) / counts).T

    # the repair leaves every label 0..k-1 with members
    return [Cluster(members=m, mean_angle=_member_mean_angle(angles, m))
            for m in _members_by_key(assign)[0]]


def sector_clusters(waypoints: Waypoints, groups: int) -> list[Cluster]:
    """A cluster, in input order, per occupied sector of width 2*pi/groups, at its center.

    Served by its start instead, a plan can exceed one revolution when the start
    angle sits in a sector's second half. The cost does not grow with `groups`.
    """
    groups = _as_int(groups, "groups", 1)
    try:
        width = TWO_PI / groups
    except OverflowError:
        raise ValueError("groups must convert to a float") from None
    last = float(groups - 1)
    # indices at or past groups - 1 join the last sector; beyond 2**53, one
    # that groups - 1 rounds down to stays a sector of its own, at the same center
    cut = last if last >= groups - 1 else math.nextafter(last, math.inf)
    members, sectors = _members_by_key(np.minimum(waypoints.table_angles // width, cut))
    return [Cluster(members=m, mean_angle=wrap_angle(min(sector, last) * width + width / 2.0))
            for m, sector in zip(members, sectors)]


def order_clusters(clusters, start_angle: float) -> ClusterPlan:
    """Serve clusters by ascending forward arc from `start_angle`, equal angles in input order.

    Where rounding gives two angles one arc, the one at or past the start
    comes first, then the lower angle: the order in which the table meets them.
    """
    start = wrap_angle(_as_real(start_angle, "start_angle"))
    ordered = sorted(clusters, key=lambda c: (forward_delta(start, c.mean_angle),
                                              c.mean_angle < start, c.mean_angle))
    return ClusterPlan(clusters=tuple(ordered), start_angle=start)
