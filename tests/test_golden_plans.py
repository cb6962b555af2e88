"""Golden plans: sha256 digests of visit orders and rotation schedules.

The digests were recorded from the per-hole reference implementation
(one frame rotation and one table-angle call per hole, k-means with
per-cluster boolean masks, and a greedy chain over a dense distance matrix).
The array-first core must reproduce those plans bit for bit. The plan far
from the origin was recorded from k-means with an einsum distance per
iteration; the matmul assignment must reproduce it despite the cancellation
in the expanded distance |p|^2 - 2 p.c + |c|^2 a kilometre out.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnplan
from conftest import make_waypoints
from turnplan.bench import Scenario, timed_plan
from turnplan.cli import main
from turnplan.clustering import ClusterParams
from turnplan import sequencing
from turnplan.geometry import Waypoints, generate_waypoints, hemisphere_layout, load_part_layout
from turnplan.sequencing import baseline_angle_sequence, plan_waypoints, save_plan


def plan_digest(plan) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(plan.flattened_order, dtype=np.int64).tobytes())
    h.update(np.asarray(plan.cluster_plan.rotation_deltas, dtype=np.float64).tobytes())
    return h.hexdigest()


def waypoints_digest(waypoints) -> str:
    # row i is waypoint i's position and angle, as float64 bytes
    rows = np.column_stack([waypoints.positions, waypoints.table_angles])
    return hashlib.sha256(rows.tobytes()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hemisphere40_plan(layout_path, algorithm, seed):
    part = load_part_layout(layout_path)
    scenario = Scenario(part=part, cluster_params=ClusterParams(seed=seed))
    return timed_plan(algorithm, generate_waypoints(part, scenario.standoff, scenario.attack),
                      scenario)[0]


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
WAYPOINTS_4000_ATTACK = "ad908786cd0afae53f7474d409ffe4792b064b74945b7322a694fa7dcc63f92c"

# sha256 of the plan file `turnplan plan hemisphere40.json --algorithm A` writes,
# recorded from `json.dump(records, indent=2)`; False: default flags, True: NON_DEFAULT
NON_DEFAULT = ["--k", "3", "--seed", "9", "--attack-deg", "10", "--robot-center-deg", "30"]
PLAN_FILE = {
    ("baseline", False): "cf937394e804ef532cffafb33a34e37ebea9f25500a59d103db7574e824f9567",
    ("baseline", True): "4864db27fe7b8a48ba66af6fb5c9333588b78a42f7d75ad201fb3f2bd631550d",
    ("cluster", False): "74962dde98e2f4ccb7e6d3c1f1ba60599ff19f56f4dfe98f4ed2e04cbf908955",
    ("cluster", True): "4ecefd9e8ec74b6ffa8685dec248e3d7f510fbe61b4fd631e373136bb542f01f",
    ("greedy", False): "744de57994ef083b4d32672b969569cb776909efb1b9250aa0a2c4b6dfcb06ec",
    ("greedy", True): "8c7add331290eeb0e1befc60e8001a37e510f7efa3cc1720ebcb2e86463babf0",
}
# save_plan of the 4000-hole layout (seed 7) at attack 0.3 rad, k=5, seed 0
PLAN_FILE_4000_ATTACK = "0195b2aaafffe73c737a03632630fb5f705210137bb0046a2adec04d2dd6865a"

# `turnplan bench hemisphere40.json --trials 3` with default flags
BENCH_REPORT_CSV = "7f198f7b4be79fe750d9bf649f907bbccc33f848fb5fb81d9e598bc04dd3307c"
BENCH_PLOT_DATA_CSV = "38592e8206ae9b9b91998dbaa32aee6729946796759667459e5f8fb20d45852c"
# `turnplan bench` on `turnplan generate --n 4000` with --k 60 --trials 3, recorded
# from the per-cluster candidate tables; greedy's trials 2 and 3 replan the bundle
# trial 1 planned, so they walk its cached table
BENCH_4000_REPORT_CSV = "b435da7b97fdd6bb7184162ca920bea11cbf68724063ab77c84cda15355689cc"
BENCH_4000_PLOT_DATA_CSV = "72adacf895a6f8032ce9c07a98cc526fce50be4826d53862d617239b2b1663b2"
# the same layout with --k 5 --trials 4, recorded before deep rows existed: greedy's
# trials 2 to 4 walk deep rows, for the points where the trials before fell back,
# on clusters of about 800 points
BENCH_4000_K5_REPORT_CSV = "f49df7b6d25ba3a3de5111d4d8027943beb18f3bec0364e761f22083d2c0926e"
BENCH_4000_K5_PLOT_DATA_CSV = "27b9f643d365eaf9352d94a869a70dc920549aa5bb90082fd6e805f6a01c6727"


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


def _bench_4000_digests(tmp_path, k, trials):
    layout, report, plot_data = tmp_path / "l.json", tmp_path / "r.csv", tmp_path / "p.csv"
    assert main(["generate", "--n", "4000", "--out", str(layout)]) == 0
    assert main(["bench", str(layout), "--k", str(k), "--trials", str(trials),
                 "--report", str(report), "--plot-data", str(plot_data)]) == 0
    return file_digest(report), file_digest(plot_data)


def test_4000_hole_bench_csvs_match_golden(tmp_path):
    assert _bench_4000_digests(tmp_path, 60, 3) == (BENCH_4000_REPORT_CSV,
                                                    BENCH_4000_PLOT_DATA_CSV)


def test_4000_hole_k5_bench_csvs_match_golden(tmp_path):
    assert _bench_4000_digests(tmp_path, 5, 4) == (BENCH_4000_K5_REPORT_CSV,
                                                   BENCH_4000_K5_PLOT_DATA_CSV)


def test_a_bundle_builds_its_chain_table_once(monkeypatch, bundled_layout_path):
    original, built = sequencing._ChainIndex.candidates, []

    def counted(index, query, width):
        if width == sequencing.CHAIN_CANDIDATES + 1:  # the table, not a deep row
            built.append(len(query))
        return original(index, query, width)

    monkeypatch.setattr(sequencing._ChainIndex, "candidates", counted)
    part = hemisphere_layout(4000, 0.15, seed=7)
    waypoints = generate_waypoints(part, 0.05, 0.0)
    plan_waypoints(waypoints, ClusterParams(k=5, seed=1))
    warm = plan_waypoints(waypoints, ClusterParams(k=5, seed=0))
    assert built == [4000]
    assert plan_digest(warm) == LARGE[5, 0]  # a replan on the cached table equals a cold plan
    # the table belongs to the bundle, not to its positions
    plan_waypoints(Waypoints(waypoints.positions, waypoints.table_angles), ClusterParams(k=5))
    assert built == [4000, 4000]
    _hemisphere40_plan(bundled_layout_path, "greedy", 0)  # no cluster above the threshold
    assert built == [4000, 4000]


def test_deep_rows_are_built_once_for_the_points_where_earlier_plans_fell_back(
        monkeypatch, bundled_layout_path):
    original, batches, builds = sequencing._ChainIndex.candidates, [], []
    build = sequencing._ChainIndex.__init__

    def counted(index, query, width):
        if width == sequencing.CHAIN_DEEP_CANDIDATES + 1:
            batches.append(query.tolist())
        return original(index, query, width)

    def counted_build(index, pts):
        builds.append(len(pts))
        build(index, pts)

    monkeypatch.setattr(sequencing._ChainIndex, "candidates", counted)
    monkeypatch.setattr(sequencing._ChainIndex, "__init__", counted_build)
    waypoints = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.0)
    plan_waypoints(waypoints, ClusterParams(k=5, seed=1))
    index = sequencing._CHAIN_INDEXES[waypoints]
    store, fallen = index.rows, list(index.fallen)
    table = len(waypoints) * (sequencing.CHAIN_CANDIDATES + 1)
    assert fallen and batches == [] and index.filled == table  # planned once: no row
    plan_waypoints(waypoints, ClusterParams(k=60, seed=2))
    assert batches == [fallen]  # one batch, of exactly the first plan's fallback points
    for k, seed in ((5, 3), (60, 4), (5, 5)):
        plan_waypoints(waypoints, ClusterParams(k=k, seed=seed))
    assert len(batches) > 1 and index.rows is store  # every batch fills the index's own store
    deep = [point for batch in batches for point in batch]
    assert len(deep) == len(set(deep))  # no point's deep row is built twice
    deep_width = sequencing.CHAIN_DEEP_CANDIDATES + 1
    assert sorted(deep) == np.flatnonzero(index.end - index.at == deep_width).tolist()
    assert index.filled == table + len(deep) * deep_width
    assert builds == [4000]  # one index per bundle, for the table and every deep row
    assert plan_digest(plan_waypoints(waypoints, ClusterParams(k=5, seed=0))) == LARGE[5, 0]
    batches.clear()
    builds.clear()
    _hemisphere40_plan(bundled_layout_path, "greedy", 0)  # no cluster above the threshold
    assert batches == [] and builds == []


def test_a_bundle_that_holds_its_chain_index_walks_it_for_small_clusters_too(monkeypatch):
    # the walk is chosen per plan: once a bundle holds its index, every greedy plan walks
    # it, here k=60 plans with no cluster above the threshold, and each equals the plan
    # of a fresh bundle, which walks each cluster's own matrix and builds no index
    candidates, chain, deep, walks = sequencing._ChainIndex.candidates, sequencing._chain, [], []

    def counted(index, query, width):
        if width == sequencing.CHAIN_DEEP_CANDIDATES + 1:
            deep.extend(query.tolist())
        return candidates(index, query, width)

    def counted_chain(index, members, *args):
        walks.append(len(members))
        return chain(index, members, *args)

    monkeypatch.setattr(sequencing._ChainIndex, "candidates", counted)
    monkeypatch.setattr(sequencing, "_chain", counted_chain)
    part = hemisphere_layout(4000, 0.15, seed=7)
    waypoints = generate_waypoints(part, 0.05, 0.0)
    plan_waypoints(waypoints, ClusterParams(k=5, seed=1))  # builds the index
    for seed in (2, 3, 0, 2, 0):
        params = ClusterParams(k=60, seed=seed)
        walks.clear()
        plan = plan_waypoints(waypoints, params)
        sizes = [len(seq) for seq in plan.sequences]
        assert max(sizes) <= sequencing.CHAIN_TABLE_MIN_POINTS
        assert walks == [m for m in sizes if m > 1]
        walks.clear()
        fresh = generate_waypoints(part, 0.05, 0.0)
        assert plan_digest(plan_waypoints(fresh, params)) == plan_digest(plan)
        assert walks == [] and fresh not in sequencing._CHAIN_INDEXES
    assert plan_digest(plan) == LARGE[60, 0]
    assert deep and len(deep) == len(set(deep))  # no point's deep row is built twice


@pytest.mark.parametrize("algorithm,non_default", sorted(PLAN_FILE))
def test_plan_files_match_golden(bundled_layout_path, tmp_path, algorithm, non_default):
    out = tmp_path / "plan.json"
    flags = NON_DEFAULT if non_default else []
    assert main(["plan", bundled_layout_path, "--algorithm", algorithm,
                 "--out", str(out), *flags]) == 0
    assert file_digest(out) == PLAN_FILE[algorithm, non_default]


def test_4000_hole_plan_file_matches_golden(tmp_path):
    waypoints = generate_waypoints(hemisphere_layout(4000, 0.15, seed=7), 0.05, 0.3)
    out = tmp_path / "plan.json"
    save_plan(plan_waypoints(waypoints, ClusterParams(k=5, seed=0)), waypoints, out)
    assert file_digest(out) == PLAN_FILE_4000_ATTACK


def test_plan_file_is_the_json_module_s_indent_2_encoding(tmp_path):
    # values whose repr is signed zero, subnormal, exponent form or huge
    # (a bundle's positions lie below 2**500, about 3.3e150)
    special = [-0.0, 5e-324, 1e-05, 1e150, 1.5e-7, -2.5e16, 1e16, 0.1, -1e-300]
    rng = np.random.default_rng(5)
    positions = np.vstack([np.reshape(special, (3, 3)), rng.normal(0.0, 1e3, (9, 3)),
                           [(1e-05, -0.0, 5e-324)]])
    waypoints = make_waypoints(positions)
    plan = baseline_angle_sequence(waypoints, groups=3)
    out = tmp_path / "plan.json"
    save_plan(plan, waypoints, out)
    rows, angles = positions.tolist(), waypoints.table_angles.tolist()
    records = []
    for cluster_index, (sequence, delta) in enumerate(
            zip(plan.sequences, plan.cluster_plan.rotation_deltas)):
        for position_in_cluster, i in enumerate(sequence.tolist()):
            records.append({"waypoint_index": i, "cluster_index": cluster_index,
                            "position": rows[i], "table_angle": angles[i],
                            "rotation_before": delta if position_in_cluster == 0 else 0.0})
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(records, indent=2) + "\n"
    for literal in ("-0.0,", "5e-324", "1e-05", "1e+150", "-2.5e+16"):
        assert literal in text


def test_cached_parser_keeps_no_state_between_calls(bundled_layout_path, tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", bundled_layout_path, "--out", str(out),
                 "--k", "3", "--seed", "9", "--attack-deg", "10"]) == 0
    assert main(["plan", bundled_layout_path, "--out", str(out), "--no-such-flag"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --no-such-flag\n"
    assert main(["plan", bundled_layout_path, "--out", str(out)]) == 0
    assert file_digest(out) == PLAN_FILE["greedy", False]


def test_fresh_process_plan_file_matches_golden(bundled_layout_path, tmp_path):
    out = tmp_path / "plan.json"
    package_root = str(Path(turnplan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "turnplan.cli", "plan", bundled_layout_path,
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n=40 ")
    assert file_digest(out) == PLAN_FILE["greedy", False]
