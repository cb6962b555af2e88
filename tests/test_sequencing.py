import json
import math

import numpy as np
import pytest

from conftest import brute_force_open_path, make_waypoints
from turnplan.angles import TWO_PI
from turnplan.clustering import ClusterParams
from turnplan.geometry import generate_waypoints, hemisphere_layout
from turnplan.sequencing import (DistanceMatrix, InstanceTooLargeError, Plan, Sequence,
                                 baseline_angle_sequence, distance_matrix, greedy_chain,
                                 greedy_sequence, optimal_sequence, plan_records,
                                 plan_waypoints, save_plan)

DEG = math.pi / 180.0


# --- distance matrix -------------------------------------------------------

def test_distance_matrix_unit_pair():
    m = distance_matrix([(0, 0, 0), (1, 0, 0)])
    assert m.d[0][1] == 1.0
    assert m.d[1][0] == 1.0


def test_distance_matrix_single_point():
    m = distance_matrix([(0.3, 0.1, -0.2)])
    assert m.n == 1
    assert m.d[0][0] == 0.0


def test_distance_matrix_3_4_5_triangle():
    m = distance_matrix([(0, 0, 0), (3, 4, 0)])
    assert abs(m.d[0][1] - 5.0) < 1e-12


def test_distance_matrix_rejects_empty_input():
    with pytest.raises(ValueError):
        distance_matrix([])


def test_distance_matrix_type_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(n=2, d=[[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix(n=2, d=[[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(ValueError):
        DistanceMatrix(n=2, d=[[0.5, 1.0], [1.0, 0.0]])  # nonzero diagonal


# --- greedy ----------------------------------------------------------------

def test_greedy_single_point():
    assert greedy_sequence(distance_matrix([(0, 0, 0)])).order == (0,)


def test_greedy_collinear_chain():
    m = distance_matrix([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    seq = greedy_sequence(m, start=0)
    assert seq.order == (0, 1, 2)
    assert abs(seq.length(m) - 2.0) < 1e-12


def test_greedy_can_be_beaten_by_optimal():
    # a line with a trap: greedy runs right and pays a long hop back left
    pts = [(0.0, 0, 0), (1.0, 0, 0), (2.0, 0, 0), (-1.2, 0, 0), (-2.2, 0, 0), (3.1, 0, 0)]
    m = distance_matrix(pts)
    greedy_len = greedy_sequence(m, start=0).length(m)
    best_len, _ = brute_force_open_path(m, start=0)
    assert greedy_len > best_len + 1e-9
    assert abs(optimal_sequence(m, start=0).length(m) - best_len) < 1e-12


def test_greedy_steps_are_locally_optimal():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        order = greedy_sequence(m, start=0).order
        visited = {0}
        for a, b in zip(order, order[1:]):
            candidates = [m.d[a][j] for j in range(n) if j not in visited]
            assert m.d[a][b] == min(candidates)
            visited.add(b)


def test_greedy_chain_matches_matrix_greedy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-1, 1, (n, 3))
        start = int(rng.integers(0, n))
        assert greedy_chain(pts, start).order == greedy_sequence(distance_matrix(pts), start).order
    # lattice points: many exactly equal distances, so every step is a tie-break
    lattice = np.array([(x, y, z) for x in range(4) for y in range(3) for z in range(2)], float)
    for scale in (1.0, 0.1, 0.05):
        pts = scale * lattice
        for start in range(len(pts)):
            expected = greedy_sequence(distance_matrix(pts), start).order
            assert greedy_chain(pts, start).order == expected


def test_greedy_deterministic_and_scale_invariant():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, (15, 3))
    m = distance_matrix(pts)
    order = greedy_sequence(m, start=3).order
    assert greedy_sequence(m, start=3).order == order
    scaled = distance_matrix(2.5 * pts)
    assert greedy_sequence(scaled, start=3).order == order
    assert abs(greedy_sequence(scaled, 3).length(scaled) - 2.5 * Sequence(order).length(m)) < 1e-9


def test_greedy_rejects_bad_start():
    m = distance_matrix([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        greedy_sequence(m, start=2)


# --- exact search ----------------------------------------------------------

def test_optimal_single_point_and_chain():
    assert optimal_sequence(distance_matrix([(0, 0, 0)])).order == (0,)
    m = distance_matrix([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    seq = optimal_sequence(m, start=0)
    assert seq.order == (0, 1, 2)
    assert abs(seq.length(m) - 2.0) < 1e-12


def test_optimal_matches_exhaustive_search():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        start = int(rng.integers(0, n))
        seq = optimal_sequence(m, start)
        best_len, best_order = brute_force_open_path(m, start)
        assert abs(seq.length(m) - best_len) < 1e-9
        assert seq.order == best_order  # lexicographic tie-break agreement


def test_optimal_dominates_greedy():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        assert optimal_sequence(m, 0).length(m) <= greedy_sequence(m, 0).length(m) + 1e-12


def test_optimal_rejects_large_instances():
    rng = np.random.default_rng(15)
    m = distance_matrix(rng.uniform(-1, 1, (13, 3)))
    with pytest.raises(InstanceTooLargeError):
        optimal_sequence(m, 0)


# --- baseline angle grouping ------------------------------------------------

def _ring_waypoints(angles_deg):
    return make_waypoints([(math.cos(a * DEG), math.sin(a * DEG), 0.0) for a in angles_deg])


def test_baseline_single_occupied_sector():
    wps = _ring_waypoints([10.0, 10.0, 10.0])
    plan = baseline_angle_sequence(wps, groups=5)
    assert len(plan.cluster_plan.clusters) == 1
    assert plan.flattened_order == (0, 1, 2)  # input order kept


def test_baseline_hand_binning():
    wps = _ring_waypoints([10.0, 80.0, 100.0])
    plan = baseline_angle_sequence(wps, groups=5)
    assert plan.sequences == ((0,), (1, 2))


def test_baseline_deterministic():
    rng = np.random.default_rng(16)
    wps = make_waypoints(rng.uniform(-1, 1, (25, 3)))
    a = baseline_angle_sequence(wps)
    b = baseline_angle_sequence(wps)
    assert a.flattened_order == b.flattened_order
    assert a.cluster_plan.rotation_deltas == b.cluster_plan.rotation_deltas


def test_baseline_respects_one_revolution_for_any_start():
    rng = np.random.default_rng(17)
    wps = make_waypoints(rng.uniform(-1, 1, (30, 3)))
    for start in np.linspace(0.0, TWO_PI, 17):
        plan = baseline_angle_sequence(wps, groups=5, start_angle=float(start))
        assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9


def test_baseline_rejects_empty_input():
    with pytest.raises(ValueError):
        baseline_angle_sequence([])


# --- pipeline --------------------------------------------------------------

def test_pipeline_single_hole():
    part = hemisphere_layout(1, 0.1, seed=0)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=0))
    assert plan.flattened_order == (0,)
    assert plan.sequences == ((0,),)


def test_pipeline_covers_all_waypoints_within_one_revolution():
    part = hemisphere_layout(40, 0.15, seed=7)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=5, seed=3))
    assert sorted(plan.flattened_order) == list(range(40))
    assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9


def test_pipeline_deterministic_for_fixed_seed():
    part = hemisphere_layout(40, 0.15, seed=7)
    a = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=21))
    b = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=21))
    assert a.flattened_order == b.flattened_order


def test_pipeline_greedy_never_beats_exact_oracle():
    part = hemisphere_layout(10, 0.15, seed=5)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=1, seed=0))
    positions = np.array([w.pose.position for w in generate_waypoints(part, 0.05, 0.0)])
    m = distance_matrix(positions)
    start = plan.flattened_order[0]
    greedy_len = Sequence(plan.flattened_order).length(m)
    optimal_len = optimal_sequence(m, start=start).length(m)
    assert greedy_len >= optimal_len - 1e-12


def test_plan_waypoints_builds_no_distance_matrix(monkeypatch):
    import turnplan.sequencing as sequencing

    def refuse(*args, **kwargs):
        raise AssertionError("plan_waypoints must not build a distance matrix")

    monkeypatch.setattr(sequencing, "distance_matrix", refuse)
    monkeypatch.setattr(sequencing, "DistanceMatrix", refuse)
    rng = np.random.default_rng(19)
    wps = make_waypoints(rng.uniform(-1, 1, (60, 3)))
    plan = plan_waypoints(wps, ClusterParams(k=3, seed=0))
    assert sorted(plan.flattened_order) == list(range(60))


def test_plan_waypoints_input_mode_keeps_member_order():
    rng = np.random.default_rng(18)
    wps = make_waypoints(rng.uniform(-1, 1, (20, 3)))
    plan = plan_waypoints(wps, ClusterParams(k=4, seed=2), within_cluster="input")
    for seq, cluster in zip(plan.sequences, plan.cluster_plan.clusters):
        assert seq == cluster.members


def test_plan_waypoints_rejects_unknown_modes():
    wps = make_waypoints([(1, 0, 0)])
    with pytest.raises(ValueError):
        plan_waypoints(wps, ClusterParams(), within_cluster="magic")


def test_plan_validation_rejects_foreign_sequence():
    wps = make_waypoints([(1, 0, 0), (0, 1, 0)])
    plan = plan_waypoints(wps, ClusterParams(k=1, seed=0))
    with pytest.raises(ValueError):
        Plan(cluster_plan=plan.cluster_plan, sequences=((0, 0),), flattened_order=(0, 0))


def test_plan_records_and_serialization(tmp_path):
    part = hemisphere_layout(12, 0.15, seed=4)
    wps = generate_waypoints(part, 0.05, 0.0)
    plan = plan_waypoints(wps, ClusterParams(k=3, seed=1))
    records = plan_records(plan, wps)
    assert [r["waypoint_index"] for r in records] == list(plan.flattened_order)
    # rotation happens before the first waypoint of each cluster only
    expected = []
    for delta, seq in zip(plan.cluster_plan.rotation_deltas, plan.sequences):
        expected.extend([delta] + [0.0] * (len(seq) - 1))
    assert [r["rotation_before"] for r in records] == expected
    path = tmp_path / "plan.json"
    save_plan(plan, wps, path)
    assert json.loads(path.read_text()) == records
