"""Property tests: the invariants of every plan, stated once, for every planner.

`ClusterPlan` checks that its clusters partition 0..N-1 and that its
rotations stay within one revolution; `Plan` checks that each sequence
reorders its cluster's members and that `flattened_order` concatenates the
sequences. Nothing downstream re-checks them, so this file states what the
two checks together promise, over generated layouts, cluster counts, seeds
and robot center angles, for every planner in `ALGORITHMS`; that each greedy
chain starts at the member nearest where the robot's last move ended; and
that a plan that keeps every point in reach rotates no less than the floor
its report gives.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waypoints
from turnplan.angles import TWO_PI, forward_delta, wrap_angle
from turnplan.bench import Scenario, timed_plan
from turnplan.clustering import ClusterParams
from turnplan.geometry import AXIS_RADIUS_TOL, PartModel
from turnplan.metrics import ssp_distance
from turnplan.sequencing import ALGORITHMS, plan_waypoints

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)
LAYOUTS = ("normal", "ring", "duplicates", "on_axis", "lattice", "far")


def _points(layout: str, n: int, rng) -> np.ndarray:
    if layout == "normal":
        return rng.normal(size=(n, 3))
    if layout == "ring":  # every angle in use, clusters wrap through 0
        angles = rng.uniform(0.0, TWO_PI, n)
        return np.column_stack([np.cos(angles), np.sin(angles), rng.uniform(0.0, 0.1, n)])
    if layout == "duplicates":
        distinct = rng.normal(size=(max(1, n // 4), 3))
        return distinct[rng.integers(0, len(distinct), n)]
    if layout == "on_axis":  # about half the points on the table axis, at angle 0
        points = rng.normal(size=(n, 3))
        points[rng.random(n) < 0.5, :2] = 0.0
        return points
    if layout == "lattice":
        return rng.integers(0, 4, (n, 3)).astype(float)
    return rng.uniform(-0.2, 0.2, (n, 3)) + np.array([1e3, -5e2, 2e2])  # far


def _path_length(points: np.ndarray, order: np.ndarray) -> float:
    steps = points[order[1:]] - points[order[:-1]]
    return float(np.sqrt((steps * steps).sum(axis=1)).sum())


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 200), k=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), center=st.floats(0.0, TWO_PI, exclude_max=True),
       name=st.sampled_from(sorted(ALGORITHMS)))
def test_every_planner_keeps_the_plan_invariants(layout, n, k, seed, center, name):
    points = _points(layout, n, np.random.default_rng(seed))
    scenario = Scenario(part=PartModel(), cluster_params=ClusterParams(k=k, seed=seed),
                        robot_center_angle=center)
    plan = timed_plan(name, make_waypoints(points), scenario)[0]
    cluster_plan = plan.cluster_plan

    assert sorted(plan.flattened_order) == list(range(n))
    assert len(plan.sequences) == len(cluster_plan.clusters)
    for sequence, cluster in zip(plan.sequences, cluster_plan.clusters):
        assert sorted(sequence) == sorted(cluster.members)
    assert cluster_plan.total_rotation == sum(cluster_plan.rotation_deltas) <= TWO_PI + 1e-9
    expected = _path_length(points, np.array(plan.flattened_order))
    assert math.isclose(ssp_distance(plan, points), expected, rel_tol=1e-12, abs_tol=1e-12)


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 200), k=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_each_greedy_chain_starts_nearest_the_previous_chain_s_end(layout, n, k, seed):
    # the first chain starts nearest the table-frame origin; ties go to the first member
    points = _points(layout, n, np.random.default_rng(seed))
    plan = plan_waypoints(make_waypoints(points), ClusterParams(k=k, seed=seed))
    previous = np.zeros(3)
    for sequence, cluster in zip(plan.sequences, plan.cluster_plan.clusters):
        members = cluster.members
        nearest = members[np.linalg.norm(points[members] - previous, axis=1).argmin()]
        assert sequence[0] == nearest
        previous = points[sequence[-1]]


@PROPERTY_SETTINGS
@given(layout=st.sampled_from(LAYOUTS), n=st.integers(1, 200), k=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), center=st.floats(0.0, TWO_PI, exclude_max=True),
       bound=st.floats(0.05, TWO_PI), name=st.sampled_from(sorted(ALGORITHMS)))
def test_a_plan_that_keeps_every_point_in_reach_rotates_at_least_the_floor(
        layout, n, k, seed, center, bound, name):
    points = _points(layout, n, np.random.default_rng(seed))
    waypoints = make_waypoints(points)
    scenario = Scenario(part=PartModel(), robot_center_angle=center,
                        cluster_params=ClusterParams(k=k, angular_bound=bound, seed=seed))
    plan, report = timed_plan(name, waypoints, scenario)
    # the report's two reach figures, point by point with the scalar angle helpers
    on_axis = np.hypot(points[:, 0], points[:, 1]) <= AXIS_RADIUS_TOL  # the axis is +z
    angles, half, start = waypoints.table_angles.tolist(), bound / 2.0, center
    far, floor = 0, 0.0
    for cluster in plan.cluster_plan.clusters:
        for i in cluster.members.tolist():
            if not on_axis[i]:
                delta = wrap_angle(angles[i] - cluster.mean_angle)
                far += min(delta, TWO_PI - delta) > half
                if half <= (phi := forward_delta(start, angles[i])) <= TWO_PI - half:
                    floor = max(floor, phi - half)
    assert (report.out_of_reach, report.rotation_floor) == (far, floor)
    # R* is a floor. total_rotation adds up to k rounded forward arcs and R* subtracts b/2
    # from one; each rounding is below 1e-15 rad, so the two sides may differ by a few ulps
    if not far:
        assert report.total_rotation >= report.rotation_floor - 1e-12
