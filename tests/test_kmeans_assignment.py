"""The k-means assignment step: labels from a matmul, made exact by gap bounds.

`_NearestCentroid` must pick, for every point, the same centroid as the
argmin over the exact reference distances (`_squared_distances`, which
sums the squares as (dx*dx + dy*dy) + dz*dz on every host), bit for bit,
including exact ties, which go to the lowest index, also for the rows it
skips because their gap bounds say no centroid move could have flipped them.
Below `_KERNEL_PAIRS` (point, centroid) pairs, `cluster_points` takes that
argmin itself, so tests that mean to run the kernel through `cluster_points`
patch the crossover to 0.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waypoints
from turnplan import clustering
from turnplan.clustering import (ClusterParams, _fix_empty_clusters, _NearestCentroid,
                                 _squared_distances, cluster_points)
from turnplan.geometry import generate_waypoints, hemisphere_layout

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

LAYOUTS = ("normal", "duplicates", "lattice", "far", "tiny")


def _points(layout: str, n: int, rng) -> np.ndarray:
    if layout == "normal":
        return rng.normal(size=(n, 3))
    if layout == "duplicates":
        distinct = rng.normal(size=(max(1, n // 4), 3))
        return distinct[rng.integers(0, len(distinct), n)]
    if layout == "lattice":  # integer coordinates: many exactly equidistant pairs
        return rng.integers(0, 4, (n, 3)).astype(float)
    if layout == "far":  # a 0.4 m cloud 1.1 km out: |p|^2 cancels to a few digits
        return rng.uniform(-0.2, 0.2, (n, 3)) + np.array([1e3, -5e2, 2e2])
    return 0.5 + rng.uniform(-1e-6, 1e-6, (n, 3))  # tiny spread


def _centroids(points: np.ndarray, k: int, rng) -> np.ndarray:
    # as in k-means: each centroid is a point or the mean of a set of points
    sizes = rng.choice([1, 2, len(points)], size=k)
    return np.array([points[rng.choice(len(points), size=min(s, len(points)), replace=False)]
                     .mean(axis=0) for s in sizes])


def _counting_squared_distances(monkeypatch) -> list[int]:
    rows = []

    def counted(points, centroids):
        rows.append(len(points))
        return _squared_distances(points, centroids)

    monkeypatch.setattr(clustering, "_squared_distances", counted)
    return rows


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 300), k=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), transposed=st.booleans())
def test_assignment_equals_exact_argmin(layout, n, k, seed, transposed):
    rng = np.random.default_rng(seed)
    points = _points(layout, n, rng)
    assign = _NearestCentroid(points, k)
    for _ in range(2):  # the step reuses its buffers from call to call
        centroids = _centroids(points, k, rng)
        if transposed:  # centroids as a column-major view, as the k-means loop passes them
            centroids = np.ascontiguousarray(centroids.T).T
        expected = _squared_distances(points, centroids).argmin(axis=1)
        assert np.array_equal(assign(centroids), expected)


def test_squared_distances_round_as_the_written_out_sum():
    # (dx*dx + dy*dy) + dz*dz in that order on every host, whatever the inputs' layout
    rng = np.random.default_rng(11)
    points, centroids = rng.normal(size=(300, 3)), rng.normal(size=(7, 3))
    dx, dy, dz = np.moveaxis(points[:, None, :] - centroids, 2, 0)
    expected = ((dx * dx + dy * dy) + dz * dz).tobytes()
    assert _squared_distances(points, centroids).tobytes() == expected
    assert _squared_distances(np.asfortranarray(points), centroids.T.copy().T).tobytes() == expected


def test_a_tie_that_the_sum_order_decides_goes_to_the_reference_s_nearer_centroid():
    # centroids at offsets (x, y, z) and (x, z, y) from the origin: exactly as far, but
    # (x*x + y*y) + z*z and (x*x + z*z) + y*y round apart, so each sum order of the
    # squares puts another centroid nearer; the reference is the first order
    rng = np.random.default_rng(3)
    while True:
        x, y, z = rng.uniform(0.5, 1.0, 3).tolist()
        if (x * x + y * y) + z * z != (x * x + z * z) + y * y:
            break
    centroids = np.array([(x, y, z), (x, z, y)])
    nearer = int((x * x + z * z) + y * y < (x * x + y * y) + z * z)
    points = np.vstack([np.zeros(3), centroids])  # each centroid a mean of the points
    assert _squared_distances(points, centroids).argmin(axis=1).tolist() == [nearer, 0, 1]
    assert _NearestCentroid(points, 2)(centroids).tolist() == [nearer, 0, 1]


def test_lattice_ties_take_the_exact_fallback(monkeypatch):
    axis = np.arange(5.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    centroids = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    rows = _counting_squared_distances(monkeypatch)
    labels = _NearestCentroid(points, 2)(centroids)
    assert rows == [25]  # the 5 x 5 plane x = 1, equidistant from both centroids
    assert np.array_equal(labels, (points[:, 0] >= 2.0).astype(int))  # the tie goes to 0


def test_lattice_k_means_takes_the_exact_fallback(monkeypatch):
    axis = np.arange(5.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    points = np.vstack([points, points[::7]])  # and some duplicates
    monkeypatch.setattr(clustering, "_KERNEL_PAIRS", 0)
    rows = _counting_squared_distances(monkeypatch)
    cluster_points(make_waypoints(points), ClusterParams(k=8, seed=0))
    assert rows and max(rows) < len(points)  # tied rows only, not an empty-cluster repair


def test_hemisphere_k_means_needs_no_exact_fallback(monkeypatch):
    bundle = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
    rows = _counting_squared_distances(monkeypatch)
    for k in (5, 60):
        cluster_points(bundle, ClusterParams(k=k, seed=3))
    assert rows == []


def _lloyd(points: np.ndarray, k: int, max_iterations: int, seed: int):
    """Plain Lloyd's k-means, the exact reference argmin on every iteration."""
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(len(points), size=k, replace=False)]
    previous = None
    for _ in range(max_iterations):
        dist2 = _squared_distances(points, centroids)
        assign = dist2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        if np.count_nonzero(counts) < k:
            assign = _fix_empty_clusters(assign, dist2, counts)
        if previous is not None and np.array_equal(assign, previous):
            break
        previous = assign
        centroids = np.array([points[assign == j].mean(axis=0) for j in range(k)])
    return [tuple(np.flatnonzero(assign == j).tolist()) for j in range(k)]


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 300), k=st.integers(1, 40),
       max_iterations=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
def test_k_means_equals_plain_lloyd(layout, n, k, max_iterations, seed):
    points = _points(layout, n, np.random.default_rng(seed))
    params = ClusterParams(k=k, seed=seed)
    with mock.patch.object(clustering, "_KERNEL_PAIRS", 0), \
            mock.patch.object(clustering, "_MAX_ITERATIONS", max_iterations):
        clusters = cluster_points(make_waypoints(points), params)
    members = [(i,) for i in range(n)] if n <= k else _lloyd(points, k, max_iterations, seed)
    assert [tuple(c.members.tolist()) for c in clusters] == members


def _clusters_with_and_without_the_kernel(points: np.ndarray, k: int, seed: int) -> list:
    """cluster_points' members and angles (by float.hex), the kernel forced on, then off."""
    bundle, params = make_waypoints(points), ClusterParams(k=k, seed=seed)
    runs = []
    for pairs in (0, math.inf):
        with mock.patch.object(clustering, "_KERNEL_PAIRS", pairs):
            runs.append([(c.members.tolist(), c.mean_angle.hex())
                         for c in cluster_points(bundle, params)])
    return runs


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 300), k=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_the_small_input_assignment_cannot_change_a_plan(layout, n, k, seed):
    # duplicates and lattices give exact ties and, with k above the distinct
    # points, empty clusters to repair; n <= k gives singletons
    with_kernel, without = _clusters_with_and_without_the_kernel(
        _points(layout, n, np.random.default_rng(seed)), k, seed)
    assert with_kernel == without


def test_the_small_input_assignment_repairs_empty_clusters_as_the_kernel_does(monkeypatch):
    # three distinct points, each repeated, and six clusters: the first
    # assignment leaves clusters empty whichever assignment runs
    repairs = []

    def counted(assign, dist2, counts):
        repairs.append(clustering._KERNEL_PAIRS)
        return _fix_empty_clusters(assign, dist2, counts)

    monkeypatch.setattr(clustering, "_fix_empty_clusters", counted)
    points = np.random.default_rng(4).normal(size=(3, 3)).repeat(7, axis=0)
    with_kernel, without = _clusters_with_and_without_the_kernel(points, 6, 1)
    assert with_kernel == without and len(with_kernel) == 6
    assert set(repairs) == {0, math.inf}  # a repair on each path


# Inputs with more clusters than distinct points, where Lloyd's loop alternates
# between two assignments: 12 copies of one point at k=5 (their mean is not the
# point, so every copy ties to a one-member centroid) and 3 points 7 times each
# at k=6. Each seed's clusters, as the loop returned them when it ran all
# _MAX_ITERATIONS iterations.
SEVEN, FOUR, LAST = [0, 1, 2, 3, 4, 5, 6], [10, 11, 12, 13], [14, 15, 16, 17, 18, 19, 20]
CYCLING = {
    ("coincident", 0): [[0], [4, 5, 6, 7, 8, 9, 10, 11], [1], [2], [3]],
    ("coincident", 1): [[0], [4, 5, 6, 7, 8, 9, 10, 11], [1], [2], [3]],
    ("coincident", 2): [[0], [4, 5, 6, 7, 8, 9, 10, 11], [1], [2], [3]],
    ("three", 0): [SEVEN, FOUR, LAST, [7], [8], [9]],
    ("three", 1): [FOUR, SEVEN, LAST, [7], [8], [9]],
    ("three", 2): [FOUR, LAST, SEVEN, [7], [8], [9]],
}


@pytest.mark.parametrize("pairs", [0, math.inf], ids=["kernel", "exact"])
@pytest.mark.parametrize("case, seed", list(CYCLING))
def test_k_means_stops_at_a_period_2_cycle_giving_the_capped_loop_s_clusters(monkeypatch, case,
                                                                            seed, pairs):
    points, k = ((np.tile([0.1, 0.2, 0.3], (12, 1)), 5) if case == "coincident" else
                 (np.random.default_rng(4).normal(size=(3, 3)).repeat(7, axis=0), 6))
    repairs = []

    def counted(assign, dist2, counts):
        repairs.append(len(assign))
        return _fix_empty_clusters(assign, dist2, counts)

    monkeypatch.setattr(clustering, "_fix_empty_clusters", counted)
    monkeypatch.setattr(clustering, "_KERNEL_PAIRS", pairs)
    clusters = cluster_points(make_waypoints(points), ClusterParams(k=k, seed=seed))
    assert [c.members.tolist() for c in clusters] == CYCLING[case, seed]
    # the cycle is seen when an assignment recurs: the third or fourth repair,
    # where the loop that ran to its cap made one repair per iteration
    assert len(repairs) <= 4


def _exact_gaps(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each point's reference distance to its second-nearest centroid less that to its own."""
    dist = np.sqrt(_squared_distances(points, centroids))
    rows = np.arange(len(points))
    own = dist[rows, labels]
    dist[rows, labels] = np.inf
    return dist.min(axis=1) - own


def _squeeze(points: np.ndarray, centroids: np.ndarray, rng) -> np.ndarray:
    """Move a point's nearest centroid straight away from it and its second-nearest
    straight toward it, each by a quarter of its gap: the gap falls by the sum of
    both moves, the most the two drifts allow."""
    point = points[rng.integers(len(points))]
    dist = np.sqrt(_squared_distances(point[None, :], centroids))[0]
    own, second = np.argsort(dist, kind="stable")[:2]
    step = (dist[second] - dist[own]) / 4.0
    moved = centroids.copy()
    if step > 0.0 and dist[own] > 0.0:
        moved[own] += step * (centroids[own] - point) / dist[own]
        moved[second] += step * (point - centroids[second]) / dist[second]
    return moved


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(2, 300), k=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), moves=st.lists(st.booleans(), min_size=1, max_size=4))
def test_gap_bounds_stay_below_the_exact_gaps(layout, n, k, seed, moves):
    rng = np.random.default_rng(seed)
    points = _points(layout, n, rng)
    centroids = _centroids(points, k, rng)
    step = _NearestCentroid(points, k)
    step(centroids)
    for squeeze in moves:  # the adversarial move, or a jump to fresh centroids
        centroids = _squeeze(points, centroids, rng) if squeeze else _centroids(points, k, rng)
        labels = step(centroids)
        assert np.array_equal(labels, _squared_distances(points, centroids).argmin(axis=1))
        assert np.all(step.bounds <= _exact_gaps(points, centroids, labels))


def test_near_ties_far_from_origin_take_the_exact_path():
    # points within 1e-12..1e-4 m of the bisector of two centroids 1.1 km out,
    # where the matmul's rounding (|p|^2 ~ 1e6) decides nothing
    rng = np.random.default_rng(5)
    offsets = np.geomspace(1e-12, 1e-4, 200) * rng.choice([-1.0, 1.0], 200)
    points = np.column_stack([offsets, rng.uniform(-0.2, 0.2, (200, 2))]) + (1e3, -5e2, 2e2)
    centroids = np.array([(-0.1, 0.0, 0.0), (0.1, 0.0, 0.0)]) + (1e3, -5e2, 2e2)
    expected = _squared_distances(points, centroids).argmin(axis=1)
    step = _NearestCentroid(points, 2)
    assert np.array_equal(step(centroids), expected)
    assert np.array_equal(step(centroids), expected)  # the second call lowers the bounds


def test_hemisphere_k_means_recomputes_few_rows(monkeypatch):
    rows = []
    recompute = _NearestCentroid._recompute

    def counted(self, stale, *args):
        rows.append(len(self.points) if stale is None else len(stale))
        return recompute(self, stale, *args)

    monkeypatch.setattr(_NearestCentroid, "_recompute", counted)
    # a large k, and a small input that still runs the kernel (300 x 5 >= _KERNEL_PAIRS)
    for n, k in ((4000, 60), (300, 5)):
        bundle = generate_waypoints(hemisphere_layout(n, 0.15, seed=7), 0.05, 0.0)
        rows.clear()
        cluster_points(bundle, ClusterParams(k=k, seed=3))
        assert rows[0] == n and len(rows) > 10
        assert sum(rows[1:]) < 0.5 * n * len(rows[1:])
