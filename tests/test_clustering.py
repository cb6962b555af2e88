import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waypoints
from turnplan.angles import TWO_PI, circular_separation, forward_delta, wrap_angle
from turnplan.clustering import (Cluster, ClusterParams, ClusterPlan, DegenerateMeanError,
                                 circular_mean, cluster_points, order_clusters, sector_clusters)
from turnplan.geometry import Waypoints, generate_waypoints, hemisphere_layout

DEG = math.pi / 180.0


def _singleton(index: int, angle: float) -> Cluster:
    return Cluster(members=(index,), mean_angle=angle)


# --- circular mean ---------------------------------------------------------

def test_circular_mean_single_angle_is_identity():
    for theta in (0.0, 1.0, 3.0, 6.0):
        assert abs(circular_mean([theta]) - theta) < 1e-12


def test_circular_mean_wraps_across_zero():
    # the arithmetic mean would wrongly give 180 degrees here
    assert circular_separation(circular_mean([350.0 * DEG, 10.0 * DEG]), 0.0) < 1e-12


def test_circular_mean_repeated_value():
    assert abs(circular_mean([90.0 * DEG] * 3) - 90.0 * DEG) < 1e-12


def test_circular_mean_rejects_empty_input():
    with pytest.raises(ValueError):
        circular_mean([])


def test_circular_mean_rejects_opposed_angles():
    with pytest.raises(DegenerateMeanError):
        circular_mean([0.0, math.pi])


def test_circular_mean_rotation_equivariant():
    rng = np.random.default_rng(1)
    for _ in range(200):
        angles = rng.uniform(0.0, TWO_PI, int(rng.integers(1, 12)))
        try:
            base = circular_mean(angles)
        except DegenerateMeanError:
            continue
        delta = float(rng.uniform(-10.0, 10.0))
        shifted = circular_mean(np.mod(angles + delta, TWO_PI))
        assert circular_separation(shifted, wrap_angle(base + delta)) < 1e-9


def test_circular_mean_matches_grid_search_argmin():
    grid = np.arange(0.0, TWO_PI, 1e-4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        angles = rng.uniform(0.0, TWO_PI, int(rng.integers(1, 10)))
        try:
            mean = circular_mean(angles)
        except DegenerateMeanError:
            continue
        cost = (1.0 - np.cos(angles[:, None] - grid[None, :])).sum(axis=0)
        best = grid[int(cost.argmin())]
        assert circular_separation(mean, best) < 2e-4


# --- k-means clustering ----------------------------------------------------

def test_cluster_points_singleton():
    wps = make_waypoints([(0.2, 0.1, 0.0)])
    clusters = cluster_points(wps, ClusterParams(k=1, seed=0))
    assert len(clusters) == 1
    assert clusters[0].members.tolist() == [0]
    assert clusters[0].mean_angle == wps.table_angles[0]


def test_cluster_points_separates_well_separated_groups():
    rng = np.random.default_rng(3)
    left = rng.normal((1.0, 0.0, 0.0), 0.02, (8, 3))
    right = rng.normal((-1.0, 0.0, 0.0), 0.02, (8, 3))
    clusters = cluster_points(make_waypoints(np.vstack([left, right])), ClusterParams(k=2, seed=5))
    groups = sorted(tuple(sorted(c.members)) for c in clusters)
    assert groups == [tuple(range(8)), tuple(range(8, 16))]


def test_cluster_points_deterministic_for_fixed_seed():
    wps = make_waypoints(hemisphere_layout(40, 0.15, seed=7).origins)
    a = cluster_points(wps, ClusterParams(k=5, seed=9))
    b = cluster_points(wps, ClusterParams(k=5, seed=9))
    assert [c.members.tolist() for c in a] == [c.members.tolist() for c in b]
    assert [c.mean_angle for c in a] == [c.mean_angle for c in b]


def test_cluster_points_rejects_empty_input():
    # an empty bundle cannot be built, so clustering never sees one
    with pytest.raises(ValueError, match=r"need \(N, 3\) positions"):
        cluster_points(make_waypoints([]), ClusterParams())


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nextafter(TWO_PI, math.inf)])
def test_cluster_params_reject_an_angular_bound_outside_one_turn(bad):
    with pytest.raises(ValueError, match=r"^angular_bound must lie in \(0, 2\*pi\], got "):
        ClusterParams(angular_bound=bad)
    assert ClusterParams(angular_bound=TWO_PI).angular_bound == TWO_PI


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("n", [3, 12])  # singletons, and k-means proper
def test_cluster_points_rejects_non_finite_positions(bad, n):
    # the bundle refuses them, so neither clustering path ever sees one
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (n, 3))
    pts[1, 2] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        cluster_points(make_waypoints(pts), ClusterParams(k=3, seed=0))


@pytest.mark.parametrize("n", [3, 50])  # singletons, and k-means proper
def test_cluster_points_rejects_coordinates_whose_squares_overflow(n):
    # the bundle refuses them, as it does non-finite ones
    unit = np.random.default_rng(6).normal(size=(n, 3))
    unit /= np.abs(unit).max()
    params = ClusterParams(k=5, seed=0)
    assert len(cluster_points(make_waypoints(2.0**499 * unit), params)) == min(n, 5)
    for scale in (2.0**500, 1e200):
        with pytest.raises(ValueError, match=r"positions must be finite and below 2\*\*500"):
            cluster_points(make_waypoints(scale * unit), params)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cluster_points_rejects_non_finite_angles(bad):
    # as for positions, the bundle refuses them first
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 3))
    angles = np.full(12, 0.5)
    angles[7] = bad
    with pytest.raises(ValueError, match=r"table angles must lie in \[0, 2\*pi\)"):
        cluster_points(Waypoints(positions=pts, table_angles=angles), ClusterParams(k=3, seed=0))


def test_cluster_points_fewer_points_than_k_gives_singletons():
    wps = make_waypoints([(0.1, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.3)])
    clusters = cluster_points(wps, ClusterParams(k=5, seed=1))
    assert [c.members.tolist() for c in clusters] == [[0], [1], [2]]
    assert [c.mean_angle for c in clusters] == wps.table_angles.tolist()


def test_cluster_points_partition_and_nearest_centroid():
    rng = np.random.default_rng(6)
    for seed in range(10):
        n = int(rng.integers(6, 50))
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        clusters = cluster_points(make_waypoints(pts), ClusterParams(k=5, seed=seed))
        members = sorted(i for c in clusters for i in c.members)
        assert members == list(range(n))
        assert all(len(c.members) >= 1 for c in clusters)
        # the centroids are the member means
        centroids = np.array([pts[list(c.members)].mean(axis=0) for c in clusters])
        for ci, cluster in enumerate(clusters):
            for i in cluster.members:
                dists = np.linalg.norm(centroids - pts[i], axis=1)
                assert dists[ci] <= dists.min() + 1e-9


def test_cluster_points_survives_coincident_points():
    wps = make_waypoints(np.tile([(0.3, 0.2, 0.1)], (12, 1)))
    clusters = cluster_points(wps, ClusterParams(k=4, seed=0))
    assert len(clusters) == 4
    assert sorted(i for c in clusters for i in c.members) == list(range(12))


def test_cluster_mean_angle_uses_member_table_angles():
    # two tight groups at angles ~0 and ~pi/2
    pts = np.array([(1.0, 0.01, 0.0), (1.0, -0.01, 0.0), (0.01, 1.0, 0.5), (-0.01, 1.0, 0.5)])
    clusters = cluster_points(make_waypoints(pts), ClusterParams(k=2, seed=2))
    angles = sorted(c.mean_angle for c in clusters)
    assert circular_separation(angles[0], 0.0) < 0.05
    assert circular_separation(angles[1], math.pi / 2.0) < 0.05


def test_cluster_mean_angle_is_about_a_tilted_off_centre_axis():
    # the bundle's angles, not the xy plane's, set each cluster's mean angle
    axis = np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)
    part = replace(hemisphere_layout(60, 0.15, seed=3), turntable_axis=axis,
                   turntable_center=(0.04, -0.03, 0.02))
    wps = generate_waypoints(part, 0.05, 0.2)
    params = ClusterParams(k=6, seed=4)
    clusters = cluster_points(wps, params)
    assert sorted(i for c in clusters for i in c.members) == list(range(60))
    for cluster in clusters:
        assert cluster.mean_angle == circular_mean(wps.table_angles[list(cluster.members)])
    # the same positions with angles in the xy plane: same members, other angles
    in_xy_plane = cluster_points(make_waypoints(wps.positions), params)
    assert [c.members.tolist() for c in in_xy_plane] == [c.members.tolist() for c in clusters]
    assert all(a.mean_angle != b.mean_angle for a, b in zip(in_xy_plane, clusters))


def test_cluster_points_opposed_angles_fall_back_instead_of_raising():
    # both points in one cluster with table angles 0 and pi
    wps = make_waypoints([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
    clusters = cluster_points(wps, ClusterParams(k=1, seed=0))
    assert clusters[0].mean_angle == 0.0  # lowest-index member's angle


# --- cluster ordering ------------------------------------------------------

def test_order_clusters_single_cluster():
    plan = order_clusters([_singleton(0, math.pi)], start_angle=0.0)
    assert plan.rotation_deltas == (math.pi,)
    assert abs(plan.total_rotation - math.pi) < 1e-12


def test_order_clusters_ascending_with_hand_deltas():
    clusters = [_singleton(0, 10 * DEG), _singleton(1, 200 * DEG), _singleton(2, 100 * DEG)]
    plan = order_clusters(clusters, start_angle=0.0)
    assert [c.mean_angle for c in plan.clusters] == [10 * DEG, 100 * DEG, 200 * DEG]
    np.testing.assert_allclose(plan.rotation_deltas, [10 * DEG, 90 * DEG, 100 * DEG])
    assert abs(plan.total_rotation - 200 * DEG) < 1e-9


def test_order_clusters_never_rotates_backwards():
    clusters = [_singleton(0, 350 * DEG), _singleton(1, 5 * DEG)]
    plan = order_clusters(clusters, start_angle=0.0)
    assert [c.mean_angle for c in plan.clusters] == [5 * DEG, 350 * DEG]
    assert abs(plan.total_rotation - 350 * DEG) < 1e-9


def test_order_clusters_permutation_and_single_revolution():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        clusters = [_singleton(i, float(rng.uniform(0.0, TWO_PI))) for i in range(n)]
        start = float(rng.uniform(0.0, TWO_PI))
        plan = order_clusters(clusters, start_angle=start)
        assert sorted(c.members[0] for c in plan.clusters) == list(range(n))
        assert plan.total_rotation <= TWO_PI + 1e-9
        assert all(0.0 <= d < TWO_PI for d in plan.rotation_deltas)


TOP = math.nextafter(TWO_PI, 0.0)


@pytest.mark.parametrize("angles,start,served", [
    ((1e-16, TOP), 1.246718848891573, (TOP, 1e-16)),  # a revolution apart
    ((TOP, math.nextafter(TOP, 0.0)), 2.170206937812662, (math.nextafter(TOP, 0.0), TOP)),
    ((0.0, TOP), -4.0, (TOP, 0.0)),  # the arcs from the raw start round to one value
])
def test_order_clusters_serves_angles_of_one_rounded_arc_in_table_order(angles, start, served):
    # each pair's forward arcs from the start round to one value; served in
    # input order, the second cluster would be almost a revolution on
    assert len({forward_delta(start, a) for a in angles}) == 1
    plan = order_clusters([_singleton(i, a) for i, a in enumerate(angles)], start_angle=start)
    assert tuple(c.mean_angle for c in plan.clusters) == served
    assert plan.total_rotation < TWO_PI


def test_order_clusters_rejects_empty_list():
    with pytest.raises(ValueError):
        order_clusters([], start_angle=0.0)


# --- angle sectors ---------------------------------------------------------

def _reference_sectors(angles: list, groups: int) -> list:
    """The per-hole binning: Python-int sector keys, a list of members per key."""
    width = TWO_PI / groups
    bins = {}
    for index, angle in enumerate(angles):
        bins.setdefault(min(int(angle // width), groups - 1), []).append(index)
    return [(members, wrap_angle(sector * width + width / 2.0).hex())
            for sector, members in sorted(bins.items())]


LARGEST_FLOAT_INT = 2**1024 - 2**970 - 1  # the largest integer that converts to a float
JUST_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)


@settings(max_examples=300, deadline=None)
@given(groups=st.one_of(st.integers(1, 64), st.integers(2**53, LARGEST_FLOAT_INT),
                        # 12326027575737698 - 1 rounds down to a float that the
                        # sector index of the angles just below 2*pi reaches
                        st.sampled_from([2**53 - 1, 2**53 + 1, 2**70, LARGEST_FLOAT_INT,
                                         12326027575737698])),
       pool=st.lists(st.one_of(st.sampled_from([0.0, JUST_BELOW_TWO_PI,
                                                math.nextafter(JUST_BELOW_TWO_PI, 0.0)]),
                               st.floats(0.0, TWO_PI, exclude_max=True)), min_size=1, max_size=12),
       data=st.data(), start=st.floats(-10.0, 10.0))
def test_sector_clusters_match_the_per_hole_binning(groups, pool, data, start):
    # drawn from a small pool, so that angles repeat
    angles = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    wps = Waypoints(positions=np.zeros((len(angles), 3)), table_angles=angles)
    clusters = sector_clusters(wps, groups)
    assert [(c.members.tolist(), c.mean_angle.hex()) for c in clusters] == \
        _reference_sectors(angles, groups)
    # the derived rotations: the forward arcs along the served order, from the start
    plan = order_clusters(clusters, start)
    targets = [c.mean_angle for c in plan.clusters]
    assert plan.start_angle == wrap_angle(start)
    deltas = [forward_delta(a, b) for a, b in zip([plan.start_angle] + targets, targets)]
    assert [d.hex() for d in plan.rotation_deltas] == [d.hex() for d in deltas]
    assert all(type(d) is float for d in plan.rotation_deltas)
    assert type(plan.total_rotation) is float and plan.total_rotation == sum(deltas)


def test_sector_clusters_reject_a_groups_count_beyond_the_largest_float():
    wps = make_waypoints([(0.1, 0.0, 0.0)])
    assert len(sector_clusters(wps, LARGEST_FLOAT_INT)) == 1
    with pytest.raises(ValueError, match="^groups must convert to a float$"):
        sector_clusters(wps, LARGEST_FLOAT_INT + 1)


# --- plan invariants -------------------------------------------------------

def test_cluster_plan_rejects_duplicated_members():
    clusters = (_singleton(0, 0.1), _singleton(0, 0.2))
    with pytest.raises(ValueError):
        ClusterPlan(clusters=clusters, start_angle=0.0)


def test_cluster_plan_rejects_excess_rotation():
    # a hand-built order whose angles do not ascend from the start turns past one revolution
    clusters = (_singleton(0, 0.2), _singleton(1, 0.1))
    assert ClusterPlan(clusters=clusters, start_angle=0.15).total_rotation < TWO_PI
    with pytest.raises(ValueError, match="^plan exceeds one turntable revolution$"):
        ClusterPlan(clusters=clusters, start_angle=0.0)


@pytest.mark.parametrize("members", [(0.9,), (1.7, True, np.True_), (True,), (np.True_,),
                                     (0, 1.0), (np.float64(2.0),), ("1",),
                                     np.array([0.0, 1.0]), np.array([True, False])])
def test_cluster_rejects_non_integer_members(members):
    with pytest.raises(ValueError, match="^members must be integers, got"):
        Cluster(members=members, mean_angle=0.5)


@pytest.mark.parametrize("members", [(), [], np.empty(0, dtype=np.intp)])
def test_cluster_rejects_empty_members(members):
    with pytest.raises(ValueError, match="^cluster must have at least one member$"):
        Cluster(members=members, mean_angle=0.5)


@pytest.mark.parametrize("value", ["0.5", "0", True, False, pytest.param(np.True_, id="numpy_bool"),
                                   math.nan, math.inf, None])
def test_cluster_records_reject_angles_that_are_not_real_numbers(value):
    with pytest.raises(ValueError, match="^mean_angle must be finite and real, got"):
        Cluster(members=(0,), mean_angle=value)
    with pytest.raises(ValueError, match="^start_angle must be finite and real, got"):
        ClusterPlan(clusters=(_singleton(0, 0.5),), start_angle=value)


def test_cluster_records_store_numpy_reals_as_floats_and_keep_their_range_messages():
    cluster = Cluster(members=(0,), mean_angle=np.float32(0.5))
    plan = ClusterPlan(clusters=(cluster,), start_angle=np.int64(6))
    assert type(cluster.mean_angle) is float and cluster.mean_angle == 0.5
    assert type(plan.start_angle) is float and plan.start_angle == 6.0
    assert type(plan.rotation_deltas[0]) is float and type(plan.total_rotation) is float
    assert plan.rotation_deltas == (forward_delta(6.0, 0.5),) == (plan.total_rotation,)
    with pytest.raises(ValueError, match=r"^mean_angle must lie in \[0, 2\*pi\), got 7.0$"):
        Cluster(members=(0,), mean_angle=np.float64(7.0))


@pytest.mark.parametrize("members", [(-1, 0), (0, 2), (0, 0), (0, 2**70), (0, 2**63)])
def test_cluster_plan_rejects_indices_outside_a_partition(members):
    # an index beyond np.intp cannot be held, and gets the partition's message too
    with pytest.raises(ValueError, match="^clusters must partition waypoint indices 0..N-1"):
        ClusterPlan(clusters=(Cluster(members=members, mean_angle=0.5),), start_angle=0.0)


def test_cluster_members_are_read_only_index_arrays():
    wps = make_waypoints(hemisphere_layout(40, 0.15, seed=7).origins)
    clusters = cluster_points(wps, ClusterParams(k=5, seed=9)) + cluster_points(
        make_waypoints([(0.1, 0.0, 0.0), (0.0, 0.2, 0.0)]), ClusterParams(k=5, seed=1))
    clusters.append(Cluster(members=[3, np.int32(1), np.uint64(2)], mean_angle=0.5))
    for cluster in clusters:
        assert cluster.members.dtype == np.intp and cluster.members.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            cluster.members[0] = 0
    assert clusters[-1].members.tolist() == [3, 1, 2]
    # a writable array is copied, so the caller's later writes do not reach the cluster
    source = np.array([4, 5])
    cluster = Cluster(members=source, mean_angle=0.5)
    source[0] = 0
    assert cluster.members.tolist() == [4, 5] and source.flags.writeable
