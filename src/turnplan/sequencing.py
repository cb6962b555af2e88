"""Waypoint ordering: greedy nearest-neighbor within clusters, the planner
registry `ALGORITHMS`, and the one pipeline every planner runs over generated
waypoints (partition -> schedule -> order within each cluster).

All path lengths are open: the robot is not required to return to its start.
"""

from __future__ import annotations

import mmap
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterParams, ClusterPlan, cluster_points, order_clusters, sector_clusters
from .geometry import Waypoints, _as_indices, _as_int, _as_real, _freeze, _squared_norms

# The greedy chain's candidate lists (see _certified_candidates): neighbours
# listed per point in the table, neighbours listed in a deep row, and the
# cluster size above which a plan walks the table rather than each cluster's
# own distance matrix. _greedy_order builds one table per waypoint bundle,
# over all its points, the first time a greedy plan has a cluster above the
# threshold, fetching it once before its first walk; no other plan builds
# one, and every later greedy plan of the bundle walks it. Deep rows are built
# only for the points where a walk on the bundle has fallen back (see
# _ChainIndex). The threshold is the low edge of where the two walks cost the
# same on a fresh bundle, index build included, in a sweep over cluster sizes
# made before the matrix build got cheaper, which moved that tie up (see
# README's step 4); it must stay above CHAIN_CANDIDATES, since the query needs
# that many others.
CHAIN_CANDIDATES = 8
CHAIN_DEEP_CANDIDATES = 64
CHAIN_TABLE_MIN_POINTS = 128
_CERTIFICATE = 1.0 - 64.0 * np.finfo(float).eps


def _preload_chain_index(algorithm: str, n: int, k: int) -> None:
    """Import scipy.spatial, which the chain index needs, if a plan by `algorithm` of n points
    could build the index: only the greedy order walks one (an unknown name walks nothing), on
    a cluster of more than CHAIN_TABLE_MIN_POINTS members; every partition makes min(k, n)
    non-empty clusters, so the largest has at most n - min(k, n) + 1."""
    if (ALGORITHMS.get(algorithm, (None, None))[1] is _greedy_order
            and n - min(k, n) + 1 > CHAIN_TABLE_MIN_POINTS):
        import scipy.spatial  # noqa: F401


def _norms(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The square root of `_squared_norms(diff, out)`: every distance the greedy order reads,
    which is np.linalg.norm(..., axis=-1)'s rounding bit for bit on every host."""
    dist = _squared_norms(diff, out)
    return np.sqrt(dist, out=dist)


def distance_matrix(positions) -> np.ndarray:
    """Pairwise Euclidean distances between a non-empty set of 3D points, rounded by `_norms`,
    as a read-only (n, n) array."""
    pts = np.asarray(positions, dtype=float)
    if pts.size == 0:
        raise ValueError("cannot build a distance matrix from no points")
    coords = pts.reshape(len(pts), 3).T
    return _freeze(_norms(coords[:, :, None] - coords[:, None, :]))


def greedy_sequence(d: np.ndarray, start: int = 0) -> tuple[int, ...]:
    """Nearest-neighbor chain from `start` over an (n, n) distance array such as
    `distance_matrix` returns; ties go to the lowest index."""
    n = len(d)
    if not 0 <= (start := _as_int(start, "start")) < n:
        raise ValueError(f"start must lie in [0, {n}), got {start!r}")
    unvisited = np.ones(n, dtype=bool)
    order = [start]
    current = start
    for _ in range(n - 1):
        unvisited[current] = False
        current = int(np.where(unvisited, d[current], np.inf).argmin())
        order.append(current)
    return tuple(order)


def _certified_candidates(tree, coords: np.ndarray, query: np.ndarray, width: int) -> np.ndarray:
    """Per query point, the nearest others that a greedy step may take without a distance row.

    `coords` holds the N points coordinate-major, (3, N). Row r holds point
    i = query[r]'s `width` nearest points (itself included) from one query
    on `tree`, a cKDTree over the points, sorted by (distance, index).
    `query` is any subset of the point indices and `width` any count from 2
    to N: the argument below holds for each. A point is certified when its
    distance is below the row's certificate c_i = d_i (1 - 64 eps), where
    d_i is the row's largest distance; every other slot holds i itself.
    Each distance is computed with the chain's own expression (`here -
    other`, then `_norms`), so it is bitwise the value the chain's distance
    row would hold. The build is O(q w) memory for q query points. A
    bundle's `_ChainIndex` makes two kinds of rows with it: the table, every
    point at width CHAIN_CANDIDATES + 1, and deep rows, a few points at
    width CHAIN_DEEP_CANDIDATES + 1.

    Why the first open certified point is the argmin over any open subset.
    Write u = eps/2. The `_norms` distance is within 4u, relative, of the
    true distance (per coordinate a rounded difference and a rounded square,
    then two rounded adds, (dx^2 + dy^2) + dz^2, and a rounded sqrt); so is
    the tree's, which sums the same squares in its own order. Let j be a
    point the query did not return and c* the listed point at distance d_i.
    The query keeps the nearest points by tree distance, up to the rounding
    of its pruning bounds, so tree(j) >= tree(c*) (1 - 4u), and then
    norm(j) >= d_i (1 - 4u)^3 / (1 + 4u)^2 > d_i (1 - 10 eps). A
    certified point (norm < c_i, and c_i is itself rounded by at most u)
    is therefore strictly nearer than every point of the whole set off the
    list, and uncertified listed points lie at d >= c_i, further still. So
    for any set of open points (a cluster's unvisited members), the first
    certified entry that is open is strictly nearer than every open point
    off the list, and among listed points the (distance, index) order is
    argmin's rule: least distance, ties to the lowest index. It is the
    argmin of the open points' distance row. Only the rows the tree returned
    out of that order are lexsorted: a row's indices are distinct, so a row
    whose adjacent pairs are all in order is already its lexsort. Nothing
    here depends on which point is queried or on how many are listed. The
    bounds assume no overflow or underflow: the caller rejects coordinates
    of 2^500 or more, and a row with d_i < 2^-500 certifies nothing, as does
    a row with d_i = 0 (more than `width` coincident copies).
    """
    # take, not coords[:, …], whose result is not C-ordered: each plane of diff is contiguous
    here = coords.take(query, axis=1)
    near = tree.query(here.T, width)[1]
    diff = coords.take(near, axis=1)
    np.subtract(here[:, :, None], diff, out=diff)
    dist = _norms(diff)
    del diff  # the largest temporary: free it before the rows are built
    # lexsort only the rows the tree returned out of (distance, index) order
    step, before = dist[:, 1:], dist[:, :-1]
    unsorted = (step < before) | ((step == before) & (near[:, 1:] < near[:, :-1]))
    if len(rows := unsorted.any(axis=1).nonzero()[0]):
        by_distance = np.lexsort((near[rows], dist[rows]))
        near[rows] = np.take_along_axis(near[rows], by_distance, axis=1)
        dist[rows] = np.take_along_axis(dist[rows], by_distance, axis=1)
    d_max = dist[:, -1:]
    limit = np.where(d_max >= 2.0**-500, d_max * _CERTIFICATE, 0.0)
    # an uncertified slot names the row's own point, which the walk has
    # always closed when it reads the row, so the slot is skipped
    np.copyto(near, query[:, None], where=dist >= limit)
    return near


class _ChainIndex:
    """One point set's certified candidate rows for the greedy chain, in one flat store.

    The cKDTree over all the points is built once and kept, and so are the
    points, coordinate-major, as `coords` (3, N). Point i's row is
    rows[at[i]:end[i]]: at first its CHAIN_CANDIDATES + 1 certified
    candidates (the table), which `_chain` scans before it takes a distance
    row. A walk that takes a distance row at a point whose row is still
    table-wide records the point in `fallen`, and `deepen` builds the rows of
    every recorded point, CHAIN_DEEP_CANDIDATES + 1 wide, in one tree query;
    it writes them into `rows` after the first `filled` entries and repoints
    `at` and `end`, so a deepened point's row replaces its table row. Either
    row's first open certified entry is the argmin over the open members
    (see `_certified_candidates`), so the walk does not depend on which row
    a point has. A deepened point is never recorded again, so no row is
    built twice, and the first batch moves the table once into a store with
    room for every point's deep row, which later batches fill in place. The
    store is N (CHAIN_CANDIDATES + CHAIN_DEEP_CANDIDATES + 2) indices for N
    points, of which only the table and the rows built so far are ever
    written. A `Waypoints` bundle keeps one index, in `_CHAIN_INDEXES`, as
    long as the bundle lives.
    """

    def __init__(self, pts: np.ndarray):
        # imported here: only a plan with a cluster above CHAIN_TABLE_MIN_POINTS
        # builds an index, so small plans skip scipy
        from scipy.spatial import cKDTree

        self.coords = np.ascontiguousarray(pts.T)
        self.tree = cKDTree(pts)
        everyone = np.arange(len(pts))
        self.rows = _certified_candidates(self.tree, self.coords, everyone,
                                          CHAIN_CANDIDATES + 1).ravel()
        self.filled = len(self.rows)  # rows[filled:] is room for deep rows, not yet written
        self.at = everyone * (CHAIN_CANDIDATES + 1)
        self.end = self.at + (CHAIN_CANDIDATES + 1)
        self.fallen: list[int] = []

    def deepen(self) -> None:
        """Replace the row of every point recorded in `fallen` by its deep row, in one batch."""
        if self.fallen:
            query = np.array(self.fallen)
            self.fallen.clear()
            n = self.coords.shape[1]
            width = min(CHAIN_DEEP_CANDIDATES + 1, n)
            if self.filled == len(self.rows):  # the first batch: make room for them all
                # in a mapping of its own, whose pages take memory only once
                # written: a malloc'd block may take over pages already in use
                room = mmap.mmap(-1, (self.filled + width * n) * self.rows.itemsize)
                store = np.frombuffer(room, self.rows.dtype)
                store[:self.filled] = self.rows
                self.rows = store
            deep = _certified_candidates(self.tree, self.coords, query, width).ravel()
            self.at[query] = self.filled + width * np.arange(len(query))
            self.end[query] = self.at[query] + width
            self.rows[self.filled:self.filled + len(deep)] = deep
            self.filled += len(deep)


# Each waypoint bundle's chain index, built by `_greedy_order`. Bundles hash by identity,
# and an index holds the bundle's positions, never the bundle, so it lives exactly as long.
_CHAIN_INDEXES: weakref.WeakKeyDictionary[Waypoints, _ChainIndex] = weakref.WeakKeyDictionary()


def _chain(index: _ChainIndex, members: list[int], start: int, slot: list[int],
           remaining: np.ndarray) -> list[int]:
    """The greedy chain over the points `members` of the index, from member `start`.

    Indices in and out are point indices, columns of `index.coords`;
    `remaining` is index.coords[:, members], a copy that the walk
    overwrites. `slot` is a list of N zeros, shared by every cluster of a
    plan: the walk stores each open member's position in `members` plus one
    there and zeroes it when the member is visited, so it leaves all zeros
    and its setup costs O(m) for m members, not O(N). A step takes the
    current point's first open certified entry; entries of other clusters
    are zero in `slot`, so they are skipped like visited ones. With none
    open it records the point in `index.fallen` if its row is still
    table-wide, and computes one row of distances over the members,
    `_norms` of the current point minus `remaining`, with every visited
    member overwritten by inf (written only now, for the members closed
    since the last row), and takes the row's argmin.
    """
    # point i's row is rows[at[i]:end[i]] of flat memoryviews: no Python
    # object per entry
    rows, at, end = memoryview(index.rows), memoryview(index.at), memoryview(index.end)
    for local, point in enumerate(members):
        slot[point] = local + 1
    diff = np.empty_like(remaining)
    dist = np.empty(len(members))
    closed = []  # members visited since the last distance row, by position in `members`
    order = [start]
    current = start
    for _ in range(len(members) - 1):
        closed.append(slot[current] - 1)
        slot[current] = 0
        for nxt in rows[at[current]:end[current]]:
            if slot[nxt]:
                break
        else:  # no certified candidate left: one row of distances
            if end[current] - at[current] == CHAIN_CANDIDATES + 1:
                index.fallen.append(current)
            # a lone index (a fallback right after another) is a cheaper write than a list
            remaining[:, closed[0] if len(closed) == 1 else closed] = np.inf
            closed.clear()
            np.subtract(index.coords[:, current, None], remaining, out=diff)
            nxt = members[int(_norms(diff, dist).argmin())]
        order.append(nxt)
        current = nxt
    slot[current] = 0
    return order


def _greedy_chain(index: _ChainIndex | None, members: np.ndarray, start: int, slot: list[int],
                  remaining: np.ndarray) -> np.ndarray:
    """The greedy chain over the bundle's `members` from members[start], a read-only np.intp array.

    `remaining` is the members' positions, coordinate-major (3, m), which
    the walk may overwrite. Given the bundle's `index`, it walks that
    (`_chain`, with `slot`). Without one it computes the cluster's (m, m)
    distances once, with the chain's own expression (`here - other`, then
    `_norms`), so each row is bitwise the distance row `_chain` would
    compute; each step sets the current member's column to inf and takes
    the first argmin of its row: the nearest open member, ties to the
    lowest position.
    """
    if index is not None:
        walk = _chain(index, members.tolist(), int(members[start]), slot, remaining)
        return _freeze(np.array(walk, dtype=np.intp))
    dist = _norms(remaining[:, :, None] - remaining[:, None, :])
    order = [start]
    current = start
    for _ in range(len(members) - 1):
        dist[:, current] = np.inf
        current = int(dist[current].argmin())
        order.append(current)
    return _freeze(members[order])


_REORDER = "each sequence must reorder exactly its cluster's members"
_CONCATENATE = "flattened_order must concatenate the per-cluster sequences"


@dataclass(frozen=True, eq=False)
class Plan:
    """Ordered clusters with their rotation schedule and per-cluster visit order.

    Each sequence reorders its cluster's members; as the `ClusterPlan`
    partitions 0..N-1, the plan visits every waypoint exactly once. The plan
    derives `flattened_order`, the concatenated sequences; a given one must
    equal it. Each sequence and `flattened_order` is a read-only np.intp array.
    """

    cluster_plan: ClusterPlan
    sequences: tuple[np.ndarray, ...]
    flattened_order: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.cluster_plan, ClusterPlan):
            raise TypeError(f"cluster_plan must be a ClusterPlan, "
                            f"got {type(self.cluster_plan).__name__}")
        sequences = tuple(_as_indices(seq, "sequences", _REORDER) for seq in self.sequences)
        object.__setattr__(self, "sequences", sequences)
        clusters = self.cluster_plan.clusters
        if len(sequences) != len(clusters):
            raise ValueError("need one sequence per cluster")
        # as the clusters partition 0..N-1, each sequence reorders its
        # cluster's members when it has their count, every index lies in its
        # own cluster, and no index repeats
        sizes = [len(c.members) for c in clusters]
        order = np.concatenate(sequences)
        n = len(order)
        # as unsigned, a negative index is above n too
        if sizes != list(map(len, sequences)) or not order.view(np.uintp).max() < n:
            raise ValueError(_REORDER)
        own = np.arange(len(clusters)).repeat(sizes)  # the cluster of each visit
        labels = np.empty(n, dtype=np.intp)  # the cluster of each waypoint
        labels[np.concatenate([c.members for c in clusters])] = own
        if np.count_nonzero(labels[order] != own) or \
                np.count_nonzero(np.bincount(order, minlength=n)) != n:
            raise ValueError(_REORDER)
        if self.flattened_order is not None and not np.array_equal(
                _as_indices(self.flattened_order, "flattened_order", _CONCATENATE), order):
            raise ValueError(_CONCATENATE)
        object.__setattr__(self, "flattened_order", _freeze(order))

    @property
    def n_points(self) -> int:
        return len(self.flattened_order)


def _input_order(waypoints: Waypoints, clusters) -> list[np.ndarray]:
    return [c.members for c in clusters]


def _greedy_order(waypoints: Waypoints, clusters) -> list[np.ndarray]:
    """Per cluster, the nearest-neighbor chain (`_greedy_chain`) from the member closest
    to the end of the previous cluster (the table-frame origin for the first).

    The walk is chosen once per plan. A plan walks the bundle's chain index
    (kept in `_CHAIN_INDEXES`) in every cluster if the bundle already holds
    one or if a cluster has more than CHAIN_TABLE_MIN_POINTS members; it
    fetches the index once, before its first walk, and deepens the rows of
    the points where earlier plans fell back: a bundle planned once pays for
    the table, its second plan for the first plan's fallbacks, and later
    replans take most steps without a distance row. Any other plan walks each
    cluster on its own distance matrix and builds no index.
    """
    positions = waypoints.positions
    coords = np.ascontiguousarray(positions.T)  # each cluster takes its (3, m) columns
    index = _CHAIN_INDEXES.get(waypoints)
    if index is None and any(len(c.members) > CHAIN_TABLE_MIN_POINTS for c in clusters):
        index = _CHAIN_INDEXES[waypoints] = _ChainIndex(waypoints.positions)
    if index is not None:
        index.deepen()  # the points where earlier plans fell back
    slot = [0] * len(positions)  # the chain's open-member map, all zeros between clusters
    previous_pos = np.zeros(3)  # the robot starts at the table-frame origin
    sequences = []
    for cluster in clusters:
        seq = cluster.members
        if len(seq) > 1:
            local = coords.take(seq, axis=1)  # picks the start, then the walk may overwrite it
            start = int(_norms(local - previous_pos[:, None]).argmin())
            seq = _greedy_chain(index, seq, start, slot, local)
        sequences.append(seq)
        previous_pos = positions[seq[-1]]
    return sequences


# Every planner, by name: its partition, (waypoints, params) -> clusters, and its order
# within each cluster, (waypoints, clusters in serving order) -> sequences. A
# partition looks its stage up in this module when it runs, so a stage rebound here (by a
# tracer, say) is the one every planner calls.
ALGORITHMS = {
    "baseline": (lambda waypoints, params: sector_clusters(waypoints, params.k), _input_order),
    "cluster": (lambda waypoints, params: cluster_points(waypoints, params), _input_order),
    "greedy": (lambda waypoints, params: cluster_points(waypoints, params), _greedy_order),
}


def plan_waypoints(waypoints: Waypoints, params: ClusterParams, robot_center_angle: float = 0.0,
                   algorithm: str = "greedy") -> Plan:
    """The one pipeline of every planner in `ALGORITHMS`: its partition of the waypoints,
    `order_clusters` from `robot_center_angle`, then its order within each cluster."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    partition, order = ALGORITHMS[algorithm]
    robot_center_angle = _as_real(robot_center_angle, "robot_center_angle")
    cluster_plan = order_clusters(partition(waypoints, params), start_angle=robot_center_angle)
    return Plan(cluster_plan, order(waypoints, cluster_plan.clusters))


def baseline_angle_sequence(waypoints: Waypoints, groups: int = 5,
                            start_angle: float = 0.0) -> Plan:
    """The "baseline" plan: `groups` sectors scheduled from `start_angle`, in input order within."""
    return plan_waypoints(waypoints, ClusterParams(k=_as_int(groups, "groups", 1)),
                          _as_real(start_angle, "start_angle"), algorithm="baseline")


# one visit record as json.dump(..., indent=2) writes it: json.encoder emits
# finite ints and floats by their repr
_RECORD = ('  {\n    "waypoint_index": %d,\n    "cluster_index": %d,\n    "position": [\n'
           '      %r,\n      %r,\n      %r\n    ],\n'
           '    "table_angle": %r,\n    "rotation_before": %r\n  }')


def save_plan(plan: Plan, waypoints: Waypoints, path: str | os.PathLike) -> None:
    """Write a plan as a JSON array of visit records, one per visited waypoint.

    rotation_before is the table rotation applied immediately before reaching
    that waypoint: the cluster's delta for the first point of each cluster,
    zero otherwise. Records are streamed, one format per record.
    """
    if plan.n_points != len(waypoints):
        raise ValueError("plan does not cover exactly the supplied waypoints")
    positions = waypoints.positions.tolist()
    angles = waypoints.table_angles.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        separator = "[\n"
        for cluster_index, (sequence, delta) in enumerate(
                zip(plan.sequences, plan.cluster_plan.rotation_deltas)):
            rotation = delta
            for i in sequence.tolist():
                fh.write(separator)
                fh.write(_RECORD % (i, cluster_index, *positions[i], angles[i], rotation))
                separator, rotation = ",\n", 0.0
        fh.write("\n]\n")
