import ast
import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (InstanceTooLargeError, brute_force_open_path, chain_walk, make_waypoints,
                      optimal_sequence, path_length)
from turnplan import geometry
from turnplan.angles import TWO_PI
from turnplan.bench import Scenario, comparison_rows, run_comparison, timed_plan
from turnplan.clustering import Cluster, ClusterParams, cluster_points, order_clusters
from turnplan.geometry import generate_waypoints, hemisphere_layout, load_part_layout
from turnplan.metrics import CellModel
from turnplan.sequencing import (_CHAIN_INDEXES, ALGORITHMS, CHAIN_TABLE_MIN_POINTS, Plan,
                                 _ChainIndex, baseline_angle_sequence, distance_matrix,
                                 greedy_sequence, plan_waypoints, save_plan)

DEG = math.pi / 180.0


# --- distance matrix -------------------------------------------------------

def test_distance_matrix_unit_pair():
    m = distance_matrix([(0, 0, 0), (1, 0, 0)])
    assert m[0][1] == 1.0
    assert m[1][0] == 1.0
    assert not m.flags.writeable


def test_distance_matrix_single_point():
    m = distance_matrix([(0.3, 0.1, -0.2)])
    assert len(m) == 1
    assert m[0][0] == 0.0


def test_distance_matrix_3_4_5_triangle():
    m = distance_matrix([(0, 0, 0), (3, 4, 0)])
    assert abs(m[0][1] - 5.0) < 1e-12


def test_distance_matrix_rejects_empty_input():
    with pytest.raises(ValueError):
        distance_matrix([])


# --- greedy ----------------------------------------------------------------

def test_greedy_single_point():
    assert greedy_sequence(distance_matrix([(0, 0, 0)])) == (0,)


def test_greedy_collinear_chain():
    m = distance_matrix([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    seq = greedy_sequence(m, start=0)
    assert seq == (0, 1, 2)
    assert abs(path_length(m, seq) - 2.0) < 1e-12


def test_greedy_can_be_beaten_by_optimal():
    # a line with a trap: greedy runs right and pays a long hop back left
    pts = [(0.0, 0, 0), (1.0, 0, 0), (2.0, 0, 0), (-1.2, 0, 0), (-2.2, 0, 0), (3.1, 0, 0)]
    m = distance_matrix(pts)
    greedy_len = path_length(m, greedy_sequence(m, start=0))
    best_len, _ = brute_force_open_path(m, start=0)
    assert greedy_len > best_len + 1e-9
    assert abs(path_length(m, optimal_sequence(m, start=0)) - best_len) < 1e-12


def test_greedy_steps_are_locally_optimal():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        order = greedy_sequence(m, start=0)
        visited = {0}
        for a, b in zip(order, order[1:]):
            candidates = [m[a][j] for j in range(n) if j not in visited]
            assert m[a][b] == min(candidates)
            visited.add(b)


def test_greedy_chain_matches_matrix_greedy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-1, 1, (n, 3))
        start = int(rng.integers(0, n))
        assert chain_walk(pts, start) == greedy_sequence(distance_matrix(pts), start)
    # lattice points: many exactly equal distances, so every step is a tie-break
    lattice = np.array([(x, y, z) for x in range(4) for y in range(3) for z in range(2)], float)
    for scale in (1.0, 0.1, 0.05):
        pts = scale * lattice
        for start in range(len(pts)):
            expected = greedy_sequence(distance_matrix(pts), start)
            assert chain_walk(pts, start) == expected


def test_greedy_deterministic_and_scale_invariant():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, (15, 3))
    m = distance_matrix(pts)
    order = greedy_sequence(m, start=3)
    assert greedy_sequence(m, start=3) == order
    scaled = distance_matrix(2.5 * pts)
    assert greedy_sequence(scaled, start=3) == order
    assert abs(path_length(scaled, greedy_sequence(scaled, 3)) - 2.5 * path_length(m, order)) < 1e-9


def test_greedy_rejects_bad_start():
    m = distance_matrix([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        greedy_sequence(m, start=2)


# --- exact search ----------------------------------------------------------

def test_optimal_single_point_and_chain():
    assert optimal_sequence(distance_matrix([(0, 0, 0)])) == (0,)
    m = distance_matrix([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    seq = optimal_sequence(m, start=0)
    assert seq == (0, 1, 2)
    assert abs(path_length(m, seq) - 2.0) < 1e-12


def test_optimal_matches_exhaustive_search():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        start = int(rng.integers(0, n))
        seq = optimal_sequence(m, start)
        best_len, best_order = brute_force_open_path(m, start)
        assert abs(path_length(m, seq) - best_len) < 1e-9
        assert seq == best_order  # lexicographic tie-break agreement


def test_optimal_dominates_greedy():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = distance_matrix(rng.uniform(-1, 1, (n, 3)))
        optimal, greedy = optimal_sequence(m, 0), greedy_sequence(m, 0)
        assert path_length(m, optimal) <= path_length(m, greedy) + 1e-12


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
    assert plan.flattened_order.tolist() == [0, 1, 2]  # input order kept


def test_baseline_hand_binning():
    wps = _ring_waypoints([10.0, 80.0, 100.0])
    plan = baseline_angle_sequence(wps, groups=5)
    assert [s.tolist() for s in plan.sequences] == [[0], [1, 2]]


def test_baseline_deterministic():
    rng = np.random.default_rng(16)
    wps = make_waypoints(rng.uniform(-1, 1, (25, 3)))
    a = baseline_angle_sequence(wps)
    b = baseline_angle_sequence(wps)
    assert np.array_equal(a.flattened_order, b.flattened_order)
    assert a.cluster_plan.rotation_deltas == b.cluster_plan.rotation_deltas


def test_baseline_respects_one_revolution_for_any_start():
    rng = np.random.default_rng(17)
    wps = make_waypoints(rng.uniform(-1, 1, (30, 3)))
    for start in np.linspace(0.0, TWO_PI, 17):
        plan = baseline_angle_sequence(wps, groups=5, start_angle=float(start))
        assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9


def test_baseline_rejects_empty_input():
    with pytest.raises(ValueError, match=r"need \(N, 3\) positions"):
        baseline_angle_sequence(make_waypoints([]))


def _hemisphere40_waypoints(layout_path):
    return generate_waypoints(load_part_layout(layout_path), 0.05, 0.0)


def test_baseline_memory_does_not_grow_with_groups(bundled_layout_path):
    wps = _hemisphere40_waypoints(bundled_layout_path)
    tracemalloc.start()
    try:
        baseline_angle_sequence(wps, groups=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_baseline_huge_groups_give_one_cluster_per_occupied_sector(bundled_layout_path):
    wps = _hemisphere40_waypoints(bundled_layout_path)
    angles = wps.table_angles.tolist()
    assert len(set(angles)) == 40  # sectors of ~5e-21 rad split every distinct angle
    plan = baseline_angle_sequence(wps, groups=2**70)
    assert len(plan.cluster_plan.clusters) == 40
    assert sorted(plan.flattened_order) == list(range(40))
    assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9


# --- pipeline --------------------------------------------------------------

def test_pipeline_single_hole():
    part = hemisphere_layout(1, 0.1, seed=0)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=0))
    assert plan.flattened_order.tolist() == [0]
    assert [s.tolist() for s in plan.sequences] == [[0]]


def test_pipeline_covers_all_waypoints_within_one_revolution():
    part = hemisphere_layout(40, 0.15, seed=7)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=5, seed=3))
    assert sorted(plan.flattened_order) == list(range(40))
    assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9


def test_pipeline_deterministic_for_fixed_seed():
    part = hemisphere_layout(40, 0.15, seed=7)
    a = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=21))
    b = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(seed=21))
    assert np.array_equal(a.flattened_order, b.flattened_order)


def test_pipeline_greedy_never_beats_exact_oracle():
    part = hemisphere_layout(10, 0.15, seed=5)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=1, seed=0))
    positions = generate_waypoints(part, 0.05, 0.0).positions
    m = distance_matrix(positions)
    start = plan.flattened_order[0]
    greedy_len = path_length(m, plan.flattened_order)
    optimal_len = path_length(m, optimal_sequence(m, start=start))
    assert greedy_len >= optimal_len - 1e-12


def test_plan_waypoints_builds_no_distance_matrix(monkeypatch):
    import turnplan.sequencing as sequencing

    def refuse(*args, **kwargs):
        raise AssertionError("plan_waypoints must not build a distance matrix")

    monkeypatch.setattr(sequencing, "distance_matrix", refuse)
    rng = np.random.default_rng(19)
    wps = make_waypoints(rng.uniform(-1, 1, (60, 3)))
    plan = plan_waypoints(wps, ClusterParams(k=3, seed=0))
    assert sorted(plan.flattened_order) == list(range(60))


def test_plan_waypoints_input_mode_keeps_member_order():
    rng = np.random.default_rng(18)
    wps = make_waypoints(rng.uniform(-1, 1, (20, 3)))
    plan = plan_waypoints(wps, ClusterParams(k=4, seed=2), algorithm="cluster")
    for seq, cluster in zip(plan.sequences, plan.cluster_plan.clusters):
        assert np.array_equal(seq, cluster.members)


def test_plan_waypoints_rejects_coordinates_whose_squares_overflow():
    # the bundle refuses them, so no planner squares them, not even the "cluster"
    # planner, which runs no greedy chain
    with pytest.raises(ValueError, match=r"positions must be finite and below 2\*\*500"):
        wps = make_waypoints(1e200 * np.random.default_rng(20).normal(size=(50, 3)))
        plan_waypoints(wps, ClusterParams(k=5, seed=0), algorithm="cluster")


# --- where each greedy chain starts ----------------------------------------

GREEDY_ORDER = ALGORITHMS["greedy"][1]


def test_the_first_greedy_chain_starts_at_the_member_nearest_the_origin():
    wps = make_waypoints([(3, 0, 0), (-1, 0, 0), (2, 0, 0), (5, 0, 0)])
    (sequence,) = GREEDY_ORDER(wps, [Cluster(members=(0, 1, 2, 3), mean_angle=0.0)])
    assert sequence.tolist() == [1, 2, 0, 3]


def test_a_tie_for_the_greedy_start_goes_to_the_first_member():
    # members 1 and 2 both lie 1 from the origin; a start at 2 would visit [2, 1, 0]
    wps = make_waypoints([(3, 0, 0), (0, 1, 0), (1, 0, 0)])
    (sequence,) = GREEDY_ORDER(wps, [Cluster(members=(0, 1, 2), mean_angle=0.0)])
    assert sequence.tolist() == [1, 2, 0]


def test_each_later_greedy_chain_starts_nearest_the_previous_chain_s_last_visit():
    # the first chain ends at (4, 0, 0). Member 3 is nearest there; member 2 is nearest
    # both the origin and the first chain's first visit, (1, 0, 0)
    wps = make_waypoints([(1, 0, 0), (4, 0, 0), (0, 0, 1), (5, 0, 1), (0, 0, 1.5)])
    clusters = [Cluster(members=(0, 1), mean_angle=0.0),
                Cluster(members=(2, 3, 4), mean_angle=1.0)]
    assert [s.tolist() for s in GREEDY_ORDER(wps, clusters)] == [[0, 1], [3, 2, 4]]


def test_positions_just_below_the_bound_start_a_greedy_chain():
    # the start choice squares each position less the origin, and the walk squares the
    # steps between positions; below 2**500 every square stays finite
    below = math.nextafter(2.0**500, 0.0)
    wps = make_waypoints([(below, 0, 0), (-below, below, -below), (0, 0, below / 2)])
    plan = plan_waypoints(wps, ClusterParams(k=1, seed=0))
    assert plan.flattened_order.tolist() == [2, 0, 1]


def _plan_key(plan):
    """What a golden plan digest hashes: the visit order and the rotations."""
    return plan.flattened_order.tolist(), plan.cluster_plan.rotation_deltas


def _hemisphere_waypoints(n=12, layout_seed=0, radius=0.15, standoff=0.05, attack=0.0):
    return generate_waypoints(hemisphere_layout(n, radius, seed=layout_seed), standoff, attack)


def _hemisphere_plan(n=12, layout_seed=0, radius=0.15, standoff=0.05, attack=0.0, **params):
    waypoints = _hemisphere_waypoints(n, layout_seed, radius, standoff, attack)
    return _plan_key(plan_waypoints(waypoints, ClusterParams(**params)))


def _comparison_rows(trials=1, **settings):
    """The bench report rows of all three planners on a 12-hole scenario."""
    scenario = Scenario(part=hemisphere_layout(12, 0.15, seed=0), **settings)
    return comparison_rows(run_comparison(scenario, trials))


CELL_FIELDS = ("robot_linear_speed", "turntable_angular_speed", "dwell_per_point",
               "planner_overhead_per_point")
# test id: (the field an error must name, a call that plans or scores with the value)
REAL_SETTINGS = {
    "plan_waypoints": ("robot_center_angle", lambda wps, v: _plan_key(
        plan_waypoints(wps, ClusterParams(), robot_center_angle=v))),
    "baseline_angle_sequence": ("start_angle", lambda wps, v: _plan_key(
        baseline_angle_sequence(wps, start_angle=v))),
    "order_clusters": ("start_angle", lambda wps, v: order_clusters(
        cluster_points(wps, ClusterParams()), v).rotation_deltas),
    "generate_waypoints.standoff": ("standoff", lambda wps, v: _hemisphere_plan(standoff=v)),
    "generate_waypoints.attack": ("attack", lambda wps, v: _hemisphere_plan(attack=v)),
    "hemisphere_layout.radius": ("radius", lambda wps, v: _hemisphere_plan(radius=v)),
    "ClusterParams.angular_bound": ("angular_bound",
                                    lambda wps, v: ClusterParams(angular_bound=v)),
    **{f"Scenario.{field}": (field, lambda wps, v, field=field: _comparison_rows(**{field: v}))
       for field in ("standoff", "attack", "robot_center_angle")},
    **{f"CellModel.{field}": (field, lambda wps, v, field=field: _comparison_rows(
        cell=CellModel(**{field: v}))) for field in CELL_FIELDS},
}


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, "0", True,
                                   pytest.param(np.True_, id="numpy_bool")])
@pytest.mark.parametrize("name", REAL_SETTINGS)
def test_a_non_finite_start_angle_is_named(name, angle):
    field, call = REAL_SETTINGS[name]
    wps = _hemisphere_waypoints()
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        call(wps, angle)
    # numpy floats and integers are real numbers, planning and scoring the same
    assert call(wps, np.float64(0.5)) == call(wps, 0.5)
    assert call(wps, np.int64(1)) == call(wps, 1) == call(wps, 1.0)


CHAIN_POINTS = np.random.default_rng(13).uniform(-1, 1, (CHAIN_TABLE_MIN_POINTS + 8, 3))
# test id: (the field an error must name, a call that plans with the value)
INTEGER_SETTINGS = {
    "k": ("k", lambda v: _hemisphere_plan(k=v)),
    "seed": ("seed", lambda v: _hemisphere_plan(seed=v)),
    "groups": ("groups", lambda v: _plan_key(
        baseline_angle_sequence(_hemisphere_waypoints(), groups=v))),
    "hemisphere_layout.n": ("n", lambda v: _hemisphere_plan(n=v)),
    "hemisphere_layout.seed": ("seed", lambda v: _hemisphere_plan(layout_seed=v)),
    "run_comparison.trials": ("trials", lambda v: _comparison_rows(trials=v)),
    "greedy_sequence.start": ("start", lambda v: greedy_sequence(distance_matrix(CHAIN_POINTS),
                                                                 start=v)),
}


@pytest.mark.parametrize("value", [5.0, 2.5, True, np.float64(3.0), "3",
                                   pytest.param(np.True_, id="numpy_bool")])
@pytest.mark.parametrize("name", INTEGER_SETTINGS)
def test_integer_settings_reject_non_integers(name, value):
    field, call = INTEGER_SETTINGS[name]
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        call(value)
    assert call(np.int64(3)) == call(3)  # numpy integers are integers, planning the same


def test_plan_waypoints_rejects_unknown_modes():
    wps = make_waypoints([(1, 0, 0)])
    with pytest.raises(ValueError):
        plan_waypoints(wps, ClusterParams(), algorithm="magic")


def test_plan_validation_rejects_foreign_sequence():
    wps = make_waypoints([(1, 0, 0), (0, 1, 0)])
    plan = plan_waypoints(wps, ClusterParams(k=1, seed=0))
    with pytest.raises(ValueError):
        Plan(cluster_plan=plan.cluster_plan, sequences=((0, 0),), flattened_order=(0, 0))


def _two_cluster_plan():
    wps = make_waypoints([(1, 0, 0), (1.1, 0, 0), (-1, 0, 0), (-1.1, 0, 0)])
    return plan_waypoints(wps, ClusterParams(k=2, seed=0), algorithm="cluster")


@pytest.mark.parametrize("fault,message", [
    ("missing sequence", "one sequence per cluster"),
    ("repeated member", "reorder exactly its cluster's members"),
    ("members swapped between clusters", "reorder exactly its cluster's members"),
    ("unknown member", "reorder exactly its cluster's members"),
    ("reordered concatenation", "concatenate the per-cluster sequences"),
    ("sequence of the wrong length", "reorder exactly its cluster's members"),
    ("index equal to N", "reorder exactly its cluster's members"),
    ("negative index", "reorder exactly its cluster's members"),
])
def test_plan_validation_names_each_fault(fault, message):
    plan = _two_cluster_plan()
    (a, b), (c, d) = plan.sequences
    sequences, flattened = {
        "missing sequence": (((a, b),), (a, b)),
        "repeated member": (((a, a), (c, d)), (a, a, c, d)),
        "members swapped between clusters": (((c, b), (a, d)), (c, b, a, d)),
        "unknown member": (((a, 2**70), (c, d)), (a, 2**70, c, d)),
        "reordered concatenation": (((a, b), (c, d)), (c, d, a, b)),
        "sequence of the wrong length": (((a,), (c, d)), (a, c, d)),
        "index equal to N": (((a, 4), (c, d)), (a, 4, c, d)),
        "negative index": (((a, -1), (c, d)), (a, -1, c, d)),
    }[fault]
    with pytest.raises(ValueError, match=message):
        Plan(cluster_plan=plan.cluster_plan, sequences=sequences, flattened_order=flattened)


@pytest.mark.parametrize("sequences,flattened,message", [
    (((1.2, 0.0),), (1, 0), "^sequences must be integers, got 1.2"),
    (((1, True),), (1, 0), "^sequences must be integers, got True"),
    (((np.True_, 0),), (1, 0), "^sequences must be integers, got np.True_"),
    ((np.array([1.0, 0.0]),), (1, 0), "^sequences must be integers, got 1.0"),
    (((1, 0),), (1.0, 0.0), "^flattened_order must be integers, got 1.0"),
    (((1, 0),), (True, 0), "^flattened_order must be integers, got True"),
], ids=["float", "bool", "numpy_bool", "float_array", "float_order", "bool_order"])
def test_plan_rejects_non_integer_indices(sequences, flattened, message):
    plan = plan_waypoints(make_waypoints([(1, 0, 0), (0, 1, 0)]), ClusterParams(k=1, seed=0))
    with pytest.raises(ValueError, match=message):
        Plan(cluster_plan=plan.cluster_plan, sequences=sequences, flattened_order=flattened)


@pytest.mark.parametrize("algorithm", ["greedy", "cluster"])
def test_plan_records_are_read_only_index_arrays(algorithm):
    part = hemisphere_layout(400, 0.15, seed=4)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=3, seed=1),
                          algorithm=algorithm)
    assert any(len(seq) > CHAIN_TABLE_MIN_POINTS for seq in plan.sequences)
    for record in (*plan.sequences, plan.flattened_order):
        assert record.dtype == np.intp and record.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            record[0] = 0


def test_a_plan_rebuilt_from_numpy_integer_tuples_equals_the_planner_s():
    # how a caller holding plain tuples rebuilds a plan: they must give the same record
    part = hemisphere_layout(400, 0.15, seed=4)
    plan = plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=3, seed=1))
    sequences = [list(s) for s in plan.sequences]
    rebuilt = replace(plan, sequences=tuple(map(tuple, sequences)),
                      flattened_order=tuple(i for s in sequences for i in s))
    assert isinstance(sequences[0][0], np.int64)
    assert [s.tolist() for s in rebuilt.sequences] == [s.tolist() for s in plan.sequences]
    assert np.array_equal(rebuilt.flattened_order, plan.flattened_order)
    assert rebuilt.flattened_order.dtype == np.intp and not rebuilt.flattened_order.flags.writeable


def test_a_plan_derives_its_visit_order_and_checks_a_given_one():
    plan = _two_cluster_plan()
    derived = Plan(plan.cluster_plan, plan.sequences)
    order = derived.flattened_order
    assert np.array_equal(order, np.concatenate(plan.sequences))
    assert order.dtype == np.intp and not order.flags.writeable
    given = Plan(plan.cluster_plan, plan.sequences, np.concatenate(plan.sequences))
    assert np.array_equal(given.flattened_order, order)
    assert [s.tolist() for s in given.sequences] == [s.tolist() for s in derived.sequences]


@pytest.mark.parametrize("planner", ["cluster", "baseline"])
def test_planners_that_walk_no_chain_build_no_chain_index(planner):
    # their clusters are far above CHAIN_TABLE_MIN_POINTS, but only a greedy
    # walk reads the bundle's chain index
    wps = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
    if planner == "cluster":
        plan = plan_waypoints(wps, ClusterParams(k=5, seed=1), algorithm="cluster")
    else:
        plan = baseline_angle_sequence(wps, groups=5)
    assert max(map(len, plan.sequences)) > CHAIN_TABLE_MIN_POINTS
    assert wps not in _CHAIN_INDEXES


def test_a_bundles_chain_index_lives_exactly_as_long_as_the_bundle():
    # sequencing keeps the index, keyed by the bundle, and the index holds no reference to it
    wps = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
    plan_waypoints(wps, ClusterParams(k=5, seed=1))
    index = weakref.ref(_CHAIN_INDEXES[wps])
    del wps
    gc.collect()
    assert index() is None and len(_CHAIN_INDEXES) == 0


def test_a_chain_index_over_coincident_points_is_built_in_a_few_megabytes():
    # 1500 coincident copies share one cell, so each lists all 1500 as candidates: built
    # in one piece, their table's (query, candidate) pairs take about 120 MB; in chunks of
    # about 2**16 pairs the table and every point's deep row stay below 8 MB
    rng = np.random.default_rng(0)
    copies = np.repeat(rng.normal(size=(1, 3)), 1500, axis=0)
    pts = rng.permutation(np.vstack([copies, rng.normal(size=(500, 3))]))
    tracemalloc.start()
    try:
        index = _ChainIndex(pts)
        index.fallen.extend(range(len(pts)))
        index.deepen()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_geometry_imports_nothing_from_sequencing():
    # sequencing owns the chain index; the module below it names nothing of it
    tree = ast.parse(Path(geometry.__file__).read_text(encoding="utf-8"))
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]]
    assert not any("sequencing" in name.split(".") for name in names)


STAGES = ("cluster_points", "sector_clusters", "order_clusters")
# per planner, how often one plan calls each of STAGES
STAGE_CALLS = {"baseline": (0, 1, 1), "cluster": (1, 0, 1), "greedy": (1, 0, 1)}


@pytest.mark.parametrize("name", STAGE_CALLS)
def test_every_planner_looks_its_stages_up_when_it_runs(monkeypatch, bundled_layout_path, name):
    # perfbench's tracer rebinds the stages in sequencing's namespace, as this
    # test does: a registry that held a stage from import time would miss it
    import turnplan.sequencing as sequencing
    counts = dict.fromkeys(STAGES, 0)

    def counting(stage, original):
        def counted(*args, **kwargs):
            counts[stage] += 1
            return original(*args, **kwargs)
        return counted

    for stage in STAGES:
        monkeypatch.setattr(sequencing, stage, counting(stage, getattr(sequencing, stage)))
    wps = _hemisphere40_waypoints(bundled_layout_path)
    scenario = Scenario(part=load_part_layout(bundled_layout_path))
    plan = timed_plan(name, wps, scenario)[0]
    assert sorted(plan.flattened_order.tolist()) == list(range(40))
    assert tuple(counts[stage] for stage in STAGES) == STAGE_CALLS[name]


def test_plan_rejects_a_stand_in_cluster_plan():
    # only a ClusterPlan is known to partition 0..N-1, which makes every Plan
    # a permutation; a stand-in whose cluster skips index 0 is turned away
    plan = _two_cluster_plan()
    cluster = plan.cluster_plan.clusters[0]
    stand_in = SimpleNamespace(clusters=(Cluster(members=(1, 2), mean_angle=cluster.mean_angle),))
    with pytest.raises(TypeError, match="cluster_plan must be a ClusterPlan"):
        Plan(cluster_plan=stand_in, sequences=((2, 1),), flattened_order=(2, 1))


def test_plan_records_and_serialization(tmp_path):
    part = hemisphere_layout(12, 0.15, seed=4)
    wps = generate_waypoints(part, 0.05, 0.0)
    plan = plan_waypoints(wps, ClusterParams(k=3, seed=1))
    path = tmp_path / "plan.json"
    save_plan(plan, wps, path)
    records = json.loads(path.read_text())
    assert [r["waypoint_index"] for r in records] == list(plan.flattened_order)
    # rotation happens before the first waypoint of each cluster only
    expected = []
    for delta, seq in zip(plan.cluster_plan.rotation_deltas, plan.sequences):
        expected.extend([delta] + [0.0] * (len(seq) - 1))
    assert [r["rotation_before"] for r in records] == expected


@pytest.mark.parametrize("n_bundle", [11, 13])
def test_save_plan_rejects_a_bundle_the_plan_does_not_cover(tmp_path, n_bundle):
    plan = plan_waypoints(generate_waypoints(hemisphere_layout(12, 0.15, seed=4), 0.05, 0.0),
                          ClusterParams(k=3, seed=1))
    other = generate_waypoints(hemisphere_layout(n_bundle, 0.15, seed=4), 0.05, 0.0)
    path = tmp_path / "plan.json"
    with pytest.raises(ValueError, match="^plan does not cover exactly the supplied waypoints$"):
        save_plan(plan, other, path)
    assert not path.exists()
