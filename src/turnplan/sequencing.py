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

# The greedy chain's candidate lists (see _ChainIndex.candidates): neighbours
# listed per point in the table, neighbours listed in a deep row, and the
# cluster size above which a plan walks the bundle's chain index rather than
# each cluster's own distance matrix. On a fresh bundle, index build
# included, the two walks tie at a largest cluster of about 255-280 points;
# the threshold stays at 128 because an index built just above it also
# serves the bundle's replans, and it must stay above CHAIN_CANDIDATES, since
# a table row lists that many others.
CHAIN_CANDIDATES = 8
CHAIN_DEEP_CANDIDATES = 64
CHAIN_TABLE_MIN_POINTS = 128
_CERTIFICATE = 1.0 - 64.0 * np.finfo(float).eps
_DEEP_REACH = 3  # cells a deep row's block reaches past its own; a table row's reaches 1
_SLACK = 2.0**-20  # cells: covers how far rounding moves a scaled coordinate
_CHUNK_PAIRS = 2**16  # (query, candidate) pairs measured at once


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


class _ChainIndex:
    """One point set's certified candidate rows for the greedy chain, in one flat store,
    and the uniform grid of cubic cells that `candidates` lists them from.

    The points are kept coordinate-major, as `coords` (3, N). A point's
    scaled coordinates are s = (p - low) / side, per axis, and its cell is
    floor(s). `side` is 1.5 times the upper median, over 16 points spread
    through the indices, of the distance to the point's
    CHAIN_CANDIDATES-th nearest other point, so that a table row's block
    reaches past most points' listed neighbours; it is raised if need be
    so that s <= 2**20 on every axis. A cell's key numbers it x-major in
    the grid padded by _DEEP_REACH cells on every side, so keys stay below
    2**61, and for any reach r up to _DEEP_REACH the cells
    (x + dx, y + dy, z - r ... z + r) are one run of keys. `occupied` holds
    the keys of the cells that hold points, ascending, and the points of
    occupied[j] are order[bounds[j]:bounds[j + 1]], so a run's points are
    one slice of `order`. `sorted_coords` holds the points in that order.

    Point i's row is rows[at[i]:end[i]]: at first its CHAIN_CANDIDATES + 1
    certified candidates (the table), which `_chain` scans before it takes
    a distance row. A walk that takes a distance row at a point whose row
    is still table-wide records the point in `fallen`, and `deepen` builds
    the rows of every recorded point in one batch, each `deep_width` wide
    (CHAIN_DEEP_CANDIDATES + 1, or N if less); it writes them into `rows`
    after the first `filled` entries and repoints `at` and `end`, so a
    deepened point's row replaces its table row. Either row's first open
    certified entry is the argmin over the open members (see `candidates`),
    so the walk does not depend on which row a point has. A deepened point
    is never recorded again, so no row is built twice. `rows` is one store
    for the index's life, made with it: an anonymous mapping with room for
    the table and every point's deep row, N (CHAIN_CANDIDATES + 1 +
    deep_width) indices for N points, with the table at its start. Only the
    table and the rows built so far are ever written, and only written
    pages take memory. A `Waypoints` bundle keeps one index, in
    `_CHAIN_INDEXES`, as long as the bundle lives.
    """

    def __init__(self, pts: np.ndarray):
        coords = self.coords = np.ascontiguousarray(pts.T)
        n = coords.shape[1]
        self.low = coords.min(axis=1, keepdims=True)
        kth = min(CHAIN_CANDIDATES, n - 1)
        sample = sorted(float(np.partition(_norms(coords - coords[:, i, None]), kth)[kth])
                        for i in np.linspace(0, n - 1, 16).astype(np.intp))
        extent = float((coords - self.low).max())
        self.side = max(1.5 * sample[8], extent * 2.0**-20, 2.0**-1022)
        cells = np.floor((coords - self.low) / self.side).astype(np.int64)
        self.span = cells.max(axis=1)  # the last cell along each axis
        depth = self.span[1:] + (1 + 2 * _DEEP_REACH)
        self.stride = np.array([depth[0] * depth[1], depth[1], 1])
        keys = self.stride @ (cells + _DEEP_REACH)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_coords = coords.take(self.order, axis=1)
        keys = keys[self.order]
        starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        self.occupied = keys[np.r_[0, starts]]
        self.bounds = np.r_[0, starts, n]
        everyone = np.arange(n)
        table = self.candidates(everyone, CHAIN_CANDIDATES + 1).ravel()
        self.filled = len(table)  # rows[filled:] is room for deep rows, not yet written
        self.deep_width = min(CHAIN_DEEP_CANDIDATES + 1, n)
        # a mapping of its own, whose pages take memory only once written: a malloc'd
        # block may take over pages already in use
        room = mmap.mmap(-1, (self.filled + self.deep_width * n) * table.itemsize)
        self.rows = np.frombuffer(room, table.dtype)
        self.rows[:self.filled] = table
        self.at = everyone * (CHAIN_CANDIDATES + 1)
        self.end = self.at + (CHAIN_CANDIDATES + 1)
        self.fallen: list[int] = []

    def candidates(self, query: np.ndarray, width: int) -> np.ndarray:
        """Per query point, the nearest others that a greedy step may take without a distance row.

        Row r lists point i = query[r]'s `width` nearest points (itself
        included) in its block, the (2 reach + 1)**3 cells around its own,
        sorted by (distance, index); reach is 1 for a row of at most
        CHAIN_CANDIDATES + 1 and _DEEP_REACH for a wider one. `query` is
        any subset of the point indices and `width` any count from 2 to N:
        the argument below holds for each. A listed point is certified when
        its distance is below both the row's last distance d_i and the
        bound b_i, the query's distance to the nearest face of its block,
        less a slack; every other slot holds i itself. Each distance is
        computed with the chain's own expression (`here - other`, then
        `_norms`), so it is bitwise the value the chain's distance row
        would hold. The rows are measured in chunks of about _CHUNK_PAIRS
        (query, candidate) pairs, or one query's block if that holds more,
        so the build takes O(N) memory even where many points share a
        cell. The index makes two kinds of rows with it: the table, every
        point at width CHAIN_CANDIDATES + 1, and deep rows, a few points at
        width CHAIN_DEEP_CANDIDATES + 1.

        Why the first open certified point is the argmin over any open subset.
        The block's unlisted points lie at distances of at least d_i, as
        computed, so a certified point is strictly nearer than each. A point j
        outside the block has, on some axis, its cell beyond a face of the
        block: s_j >= c + reach + 1, or s_j < c - reach, for the query's cell
        c. Write u = eps/2. A scaled coordinate is two rounded operations from
        the point's, and s <= 2**20, so j lies at least side (g - 2**-30) from
        the query along that axis, for the query's scaled gap g to that face;
        b_i takes the least gap, rounded by at most u, less _SLACK = 2**-20.
        The `_norms` distance is within 4u, relative, of the true distance (per
        coordinate a rounded difference and a rounded square, then two rounded
        adds, (dx^2 + dy^2) + dz^2, and a rounded sqrt), and _CERTIFICATE =
        1 - 64 eps absorbs it and the rounding of b_i, so a certified point is
        strictly nearer than j as well. So for any set of open points (a
        cluster's unvisited members), the first certified entry that is open
        is strictly nearer than every open point off the list, and among
        listed points the (distance, index) order is argmin's rule: least
        distance, ties to the lowest index. It is the argmin of the open
        points' distance row. Nothing here depends on which point is queried,
        on how many are listed, or on the cell side. The bounds assume no
        overflow or underflow: the caller rejects coordinates of 2^500 or
        more, and a bound below 2^-500 certifies nothing. A row with d_i = 0
        (more than `width` coincident copies in the block) certifies nothing
        either.
        """
        reach = 1 if width <= CHAIN_CANDIDATES + 1 else _DEEP_REACH
        here = self.coords.take(query, axis=1)
        scaled = (here - self.low) / self.side
        cells = np.floor(scaled).astype(np.int64)
        gap = np.minimum(scaled - (cells - reach), (cells + (reach + 1)) - scaled).min(axis=0)
        bound = self.side * (gap - _SLACK) * _CERTIFICATE
        bound[bound < 2.0**-500] = 0.0
        # each query cell's block as (2 reach + 1)**2 runs of keys, and where they lie in `order`
        steps = np.arange(-reach, reach + 1)
        runs = (self.stride[0] * steps[:, None] + self.stride[1] * steps).ravel() - reach
        keys, cell = np.unique(self.stride @ (cells + _DEEP_REACH), return_inverse=True)
        first = (keys[:, None] + runs).T  # each row ascending, which searchsorted runs fastest
        start = self.bounds[np.searchsorted(self.occupied, first)]
        length = self.bounds[np.searchsorted(self.occupied, first + 2 * reach,
                                             side="right")] - start
        start, length = start.T[cell], length.T[cell]
        listed = length.sum(axis=1)
        near = np.empty((len(query), width), dtype=np.intp)
        # chunks of queries in key order, whose neighbours have blocks of like sizes
        by_key, done = np.argsort(cell, kind="stable"), 0
        while done < len(query):
            # the most queries whose rows times their widest block fit in _CHUNK_PAIRS
            widest = np.maximum.accumulate(
                np.maximum(listed[by_key[done:done + _CHUNK_PAIRS // width]], width))
            fit = np.searchsorted(widest * np.arange(1, len(widest) + 1), _CHUNK_PAIRS,
                                  side="right")
            rows = by_key[done:done + max(1, int(fit))]
            done += len(rows)
            near[rows] = self._chunk(here.take(rows, axis=1), query[rows], start[rows],
                                     length[rows], width, bound[rows])
        return near

    def _chunk(self, here: np.ndarray, query: np.ndarray, start: np.ndarray,
               length: np.ndarray, width: int, bound: np.ndarray) -> np.ndarray:
        """`candidates`' rows for one chunk of queries, at `here` (3, q), whose blocks hold
        the points order[start[r, k]:start[r, k] + length[r, k]]."""
        listed = length.sum(axis=1)
        slots = np.arange(max(listed.max(), width)) < listed[:, None]
        length = length.ravel()
        offset = np.cumsum(length) - length  # where each run begins among the row-major slots
        # each slot's point, by its place in `order`; an unused slot reads place 0
        place = np.zeros(slots.shape, dtype=np.intp)
        place[slots] = np.repeat(start.ravel() - offset, length) + np.arange(length.sum())
        # take, not sorted_coords[:, …], whose result is not C-ordered: each plane of diff
        # is contiguous
        diff = self.sorted_coords.take(place, axis=1)
        np.subtract(here[:, :, None], diff, out=diff)
        dist = _norms(diff)
        del diff  # the largest temporary: free it before the rows are built
        dist[~slots] = np.inf  # so an unused slot is never certified
        if slots.shape[1] > width:
            nearest = np.argpartition(dist, width - 1, axis=1)[:, :width]
            place = np.take_along_axis(place, nearest, axis=1)
            dist = np.take_along_axis(dist, nearest, axis=1)
        near = self.order[place]
        by_distance = np.lexsort((near, dist))
        near = np.take_along_axis(near, by_distance, axis=1)
        dist = np.take_along_axis(dist, by_distance, axis=1)
        # an uncertified slot names the row's own point, which the walk has
        # always closed when it reads the row, so the slot is skipped
        np.copyto(near, query[:, None], where=dist >= np.minimum(dist[:, -1], bound)[:, None])
        return near

    def deepen(self) -> None:
        """Replace the row of every point recorded in `fallen` by its deep row, in one batch."""
        if self.fallen:
            query = np.array(self.fallen)
            self.fallen.clear()
            width = self.deep_width
            deep = self.candidates(query, width).ravel()
            self.at[query] = self.filled + width * np.arange(len(query))
            self.end[query] = self.at[query] + width
            self.rows[self.filled:self.filled + len(deep)] = deep
            self.filled += len(deep)


# Each waypoint bundle's chain index, built by `_greedy_order`. Bundles hash by identity,
# and an index holds the bundle's positions, never the bundle, so it lives exactly as long.
_CHAIN_INDEXES: weakref.WeakKeyDictionary[Waypoints, _ChainIndex] = weakref.WeakKeyDictionary()


def _chain(index: _ChainIndex, members: np.ndarray, start: int, slot: list[int],
           remaining: np.ndarray) -> np.ndarray:
    """The greedy chain over the bundle's `members` from members[start], walked on the
    bundle's `index`, as a read-only np.intp array of point indices.

    `remaining` is the members' positions, coordinate-major (3, m), a copy
    that the walk overwrites. `slot` is a list of N zeros, shared by every
    cluster of a plan: the walk stores each open member's position in
    `members` plus one there and zeroes it when the member is visited, so
    it leaves all zeros and its setup costs O(m) for m members, not O(N). A
    step takes the current point's first open certified entry; entries of
    other clusters are zero in `slot`, so they are skipped like visited
    ones. With none open it records the point in `index.fallen` if its row
    is still table-wide, and computes one row of distances over the
    members, `_norms` of the current point minus `remaining`, with every
    visited member overwritten by inf (written only now, for the members
    closed since the last row), and takes the row's argmin.
    """
    # point i's row is rows[at[i]:end[i]] of flat memoryviews: no Python
    # object per entry
    rows, at, end = memoryview(index.rows), memoryview(index.at), memoryview(index.end)
    points = members.tolist()
    for local, point in enumerate(points):
        slot[point] = local + 1
    diff = np.empty_like(remaining)
    dist = np.empty(len(points))
    closed = []  # members visited since the last distance row, by position in `members`
    current = points[start]
    order = [current]
    for _ in range(len(points) - 1):
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
            nxt = points[int(_norms(diff, dist).argmin())]
        order.append(nxt)
        current = nxt
    slot[current] = 0
    return _freeze(np.array(order, dtype=np.intp))


def _matrix_chain(members: np.ndarray, start: int, remaining: np.ndarray) -> np.ndarray:
    """The greedy chain over the bundle's `members` from members[start], walked on the
    cluster's own distances, as a read-only np.intp array of point indices.

    `remaining` is the members' positions, coordinate-major (3, m). The
    (m, m) distances are computed once, with the chain's own expression
    (`here - other`, then `_norms`), so each row is bitwise the distance
    row `_chain` would compute; each step sets the current member's column
    to inf and takes the first argmin of its row: the nearest open member,
    ties to the lowest position.
    """
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
    """Per cluster, the nearest-neighbor chain from the member closest to the end of the
    previous cluster (the table-frame origin for the first).

    The walk is chosen once per plan. A plan walks the bundle's chain index
    (`_chain`, on the index kept in `_CHAIN_INDEXES`) in every cluster if
    the bundle already holds one or if a cluster has more than
    CHAIN_TABLE_MIN_POINTS members; it fetches the index once, before its
    first walk, and deepens the rows of the points where earlier plans fell
    back: a bundle planned once pays for the table, its second plan for the
    first plan's fallbacks, and later replans take most steps without a
    distance row. Any other plan walks each cluster on its own distance
    matrix (`_matrix_chain`) and builds no index.
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
            seq = (_matrix_chain(seq, start, local) if index is None
                   else _chain(index, seq, start, slot, local))
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
