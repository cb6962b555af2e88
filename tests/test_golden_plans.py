"""Golden plans: sha256 digests of visit orders and rotation schedules.

The digests were recorded from the per-hole reference implementation
(one `Rotation.from_matrix` and one `turntable_angle` per hole, k-means with
per-cluster boolean masks, and a greedy chain over a dense distance matrix).
The array-first core must reproduce those plans bit for bit. The plan far
from the origin was recorded from k-means with an einsum distance per
iteration; the matmul assignment must reproduce it despite the cancellation
in the expanded distance |p|^2 - 2 p.c + |c|^2 a kilometre out.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_waypoints
from turnplan.bench import Scenario
from turnplan.cli import main
from turnplan.clustering import ClusterParams
from turnplan.geometry import generate_waypoints, hemisphere_layout, load_part_layout
from turnplan.metrics import PLANNERS
from turnplan.sequencing import plan_waypoints


def plan_digest(plan) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(plan.flattened_order, dtype=np.int64).tobytes())
    h.update(np.asarray(plan.cluster_plan.rotation_deltas, dtype=np.float64).tobytes())
    return h.hexdigest()


def waypoints_digest(waypoints) -> str:
    h = hashlib.sha256()
    for w in waypoints:
        h.update(np.asarray(w.pose.position, dtype=np.float64).tobytes())
        h.update(np.asarray(w.pose.orientation, dtype=np.float64).tobytes())
        h.update(np.float64(w.table_angle).tobytes())
    return h.hexdigest()


def _hemisphere40_plan(layout_path, algorithm, seed):
    part = load_part_layout(layout_path)
    scenario = Scenario(part=part)
    return PLANNERS[algorithm](generate_waypoints(part, scenario.standoff, scenario.attack),
                               scenario, replace(scenario.cluster_params, seed=seed))


def _large_plan(k, seed):
    part = hemisphere_layout(4000, 0.15, seed=7)
    return plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=k, seed=seed))


def _k_above_n_plan():
    part = hemisphere_layout(4, 0.15, seed=1)
    return plan_waypoints(generate_waypoints(part, 0.05, 0.0), ClusterParams(k=5, seed=0))


def _empty_cluster_repair_plan():
    # twelve coincident points plus a spread: coincident initial centroids tie,
    # the higher-index one ends up empty and is repaired
    rng = np.random.default_rng(3)
    pts = np.vstack([np.tile([(0.3, 0.2, 0.1)], (12, 1)), rng.uniform(-1.0, 1.0, (8, 3))])
    return plan_waypoints(make_waypoints(pts), ClusterParams(k=6, seed=1))


def _far_from_origin_plan():
    part = hemisphere_layout(2000, 0.15, seed=5)
    positions = generate_waypoints(part, 0.05, 0.0).positions + np.array([1e3, -5e2, 2e2])
    return plan_waypoints(make_waypoints(positions), ClusterParams(k=17, seed=0))


HEMISPHERE40 = {
    ("baseline", 0):
        "0699f66e1e581cddb69a80c835bbbe2673782fadb59dc2a8c083f8734e62b690",
    ("baseline", 1):
        "0699f66e1e581cddb69a80c835bbbe2673782fadb59dc2a8c083f8734e62b690",
    ("baseline", 2):
        "0699f66e1e581cddb69a80c835bbbe2673782fadb59dc2a8c083f8734e62b690",
    ("cluster", 0):
        "ed95a1b04462e8802f67a287a3522994817fc558f1d9474a38af891fb2cb0b13",
    ("cluster", 1):
        "6f5c1699d58243271ffc7f21ed2ceac65279a13db2ac7f83bcaa5c339d8008d9",
    ("cluster", 2):
        "db64aa3a9d9b339560affbff72c2c37e7e3954fa1a8d2e12f7b2f5944821daf2",
    ("greedy", 0):
        "8e7969b9551d6b191368720a4c3c17e3b0169f74d247ecdee005c1ee68f38b0a",
    ("greedy", 1):
        "f4369ed400426b2a44384cdd422d0239e36c97cc66b9315eaba0eb1ec8775d05",
    ("greedy", 2):
        "7c34bb96e34c29daa92f4325873e22537b8b6811940795070d45b70a5aa2b4a4",
}

LARGE = {
    (60, 0): "82bf91d3d006fc63cc47d7b83ac59b1cd8e618b1f66ec4bbb8be8543f2b47290",
    (5, 0): "865f45d3a298d96c4bfdc5191fce4de61a6e6abf3aa0899f2cecf9003d5f1996",
}

K_ABOVE_N = "f5599e5b7afef9a186fcc5dda5ad1c8ad0a60d16866265bf4a6ac392854b3f7c"
EMPTY_CLUSTER_REPAIR = "9084afd3b204b5ec70886cdd084e29e4d65e63739d0b51969d1601bd3308bd7c"
FAR_FROM_ORIGIN = "83b9631867621ec5fe5179539945bcdb25554e6d024eaa1c1fccdbd5e33a461c"
WAYPOINTS_4000_ATTACK = "a930ec5b4459e1598f59f83331ba0dfb6d0927ca9ce5d018ebfb8243292cdcb0"

# `turnplan bench hemisphere40.json --trials 3` with default flags
BENCH_REPORT_CSV = "7f198f7b4be79fe750d9bf649f907bbccc33f848fb5fb81d9e598bc04dd3307c"
BENCH_PLOT_DATA_CSV = "38592e8206ae9b9b91998dbaa32aee6729946796759667459e5f8fb20d45852c"


@pytest.mark.parametrize("algorithm,seed", sorted(HEMISPHERE40))
def test_hemisphere40_plans_match_golden(bundled_layout_path, algorithm, seed):
    plan = _hemisphere40_plan(bundled_layout_path, algorithm, seed)
    assert plan_digest(plan) == HEMISPHERE40[algorithm, seed]


@pytest.mark.parametrize("k,seed", sorted(LARGE))
def test_4000_hole_plans_match_golden(k, seed):
    assert plan_digest(_large_plan(k, seed)) == LARGE[k, seed]


def test_k_above_n_plan_matches_golden():
    assert plan_digest(_k_above_n_plan()) == K_ABOVE_N


def test_empty_cluster_repair_plan_matches_golden():
    assert plan_digest(_empty_cluster_repair_plan()) == EMPTY_CLUSTER_REPAIR


def test_far_from_origin_plan_matches_golden():
    assert plan_digest(_far_from_origin_plan()) == FAR_FROM_ORIGIN


def test_4000_hole_waypoints_match_golden():
    part = hemisphere_layout(4000, 0.15, seed=7)
    assert waypoints_digest(generate_waypoints(part, 0.05, 0.3)) == WAYPOINTS_4000_ATTACK


def test_bench_csvs_match_golden(bundled_layout_path, tmp_path):
    report, plot_data = tmp_path / "report.csv", tmp_path / "plot.csv"
    assert main(["bench", bundled_layout_path, "--trials", "3", "--report", str(report),
                 "--plot-data", str(plot_data)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == BENCH_REPORT_CSV
    assert hashlib.sha256(plot_data.read_bytes()).hexdigest() == BENCH_PLOT_DATA_CSV
