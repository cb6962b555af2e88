"""The k-means assignment step: one matmul plus an exact tie check.

`_nearest_centroid` must pick, for every point, the same centroid as the
argmin over the exact einsum distances (`_squared_distances`), bit for bit,
including exact ties, which go to the lowest index.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from turnplan import clustering
from turnplan.clustering import ClusterParams, _nearest_centroid, _squared_distances, cluster_points
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
    assign = _nearest_centroid(points, k)
    for _ in range(2):  # the step reuses its buffers from call to call
        centroids = _centroids(points, k, rng)
        if transposed:  # centroids as a column-major view, as the k-means loop passes them
            centroids = np.ascontiguousarray(centroids.T).T
        expected = _squared_distances(points, centroids).argmin(axis=1)
        assert np.array_equal(assign(centroids), expected)


def test_lattice_ties_take_the_exact_fallback(monkeypatch):
    axis = np.arange(5.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    centroids = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    rows = _counting_squared_distances(monkeypatch)
    labels = _nearest_centroid(points, 2)(centroids)
    assert rows == [25]  # the 5 x 5 plane x = 1, equidistant from both centroids
    assert np.array_equal(labels, (points[:, 0] >= 2.0).astype(int))  # the tie goes to 0


def test_lattice_k_means_takes_the_exact_fallback(monkeypatch):
    axis = np.arange(5.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    points = np.vstack([points, points[::7]])  # and some duplicates
    rows = _counting_squared_distances(monkeypatch)
    cluster_points(points, ClusterParams(k=8, seed=0))
    assert rows and max(rows) < len(points)  # tied rows only, not an empty-cluster repair


def test_hemisphere_k_means_needs_no_exact_fallback(monkeypatch):
    bundle = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
    rows = _counting_squared_distances(monkeypatch)
    for k in (5, 60):
        cluster_points(bundle.positions, ClusterParams(k=k, seed=3), angles=bundle.table_angles)
    assert rows == []
