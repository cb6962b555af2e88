"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass line (pytest -s shows them; a failed assert marks the criterion red).
"""

import time
from statistics import fmean

import numpy as np
import pytest

from conftest import brute_force_open_path, make_waypoints, optimal_sequence, path_length
from turnplan.angles import TWO_PI, circular_separation, wrap_angle
from turnplan.bench import hemisphere_scenario, run_comparison
from turnplan.clustering import ClusterParams, DegenerateMeanError, circular_mean
from turnplan.geometry import generate_waypoints
from turnplan.metrics import ssp_distance
from turnplan.sequencing import (baseline_angle_sequence, distance_matrix, greedy_sequence,
                                 plan_waypoints)


@pytest.fixture(scope="module")
def hundred_seed_batch():
    """Baseline, clustering-only, and greedy plans over 100 seeds on the
    40-hole hemisphere (radius 0.15 m, stand-off 0.05 m)."""
    scenario = hemisphere_scenario(n=40, radius=0.15, standoff=0.05)
    waypoints = generate_waypoints(scenario.part, scenario.standoff, scenario.attack)
    positions = waypoints.positions
    tic = time.perf_counter()
    baseline = baseline_angle_sequence(waypoints, groups=scenario.cluster_params.k,
                                       start_angle=scenario.robot_center_angle)
    rotations = [baseline.cluster_plan.total_rotation]
    greedy_ssps = []
    for seed in range(100):
        params = ClusterParams(k=5, seed=seed)
        greedy = plan_waypoints(waypoints, params)
        cluster = plan_waypoints(waypoints, params, algorithm="cluster")
        greedy_ssps.append(ssp_distance(greedy, positions))
        rotations.extend([greedy.cluster_plan.total_rotation,
                          cluster.cluster_plan.total_rotation])
    elapsed = time.perf_counter() - tic
    return {
        "baseline_ssp": ssp_distance(baseline, positions),
        "greedy_ssps": greedy_ssps,
        "rotations": rotations,
        "elapsed": elapsed,
    }


def test_criterion_1_greedy_never_beats_exact_oracle():
    rng = np.random.default_rng(101)
    tic = time.perf_counter()
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        m = distance_matrix(rng.uniform(-1.0, 1.0, (n, 3)))
        if path_length(m, greedy_sequence(m, 0)) < path_length(m, optimal_sequence(m, 0)):
            violations += 1
    elapsed = time.perf_counter() - tic
    assert violations == 0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: greedy >= optimal on 500 instances, "
          f"0 violations, {elapsed:.2f} s")


def test_criterion_2_exact_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(102)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = distance_matrix(rng.uniform(-1.0, 1.0, (n, 3)))
        start = int(rng.integers(0, n))
        dp_length = path_length(m, optimal_sequence(m, start))
        brute_length, _ = brute_force_open_path(m, start)
        worst = max(worst, abs(dp_length - brute_length))
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: subset-DP == exhaustive on 100 instances, "
          f"max diff {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_pipeline_cuts_ssp_distance(hundred_seed_batch):
    batch = hundred_seed_batch
    mean_greedy = fmean(batch["greedy_ssps"])
    bound = 0.85 * batch["baseline_ssp"]
    assert mean_greedy <= bound
    assert batch["elapsed"] < 60.0
    print(f"\nPASS criterion 3: mean pipeline ssp {mean_greedy:.3f} m <= "
          f"0.85 x baseline {batch['baseline_ssp']:.3f} m over 100 seeds, "
          f"{batch['elapsed']:.1f} s")


def test_criterion_4_planning_time_under_budget():
    scenario = hemisphere_scenario()
    plan_waypoints(generate_waypoints(scenario.part, scenario.standoff, scenario.attack),
                   ClusterParams(seed=0))  # warm-up
    times = []
    for seed in range(1, 6):
        tic = time.perf_counter()
        plan_waypoints(generate_waypoints(scenario.part, scenario.standoff, scenario.attack),
                       ClusterParams(seed=seed))
        times.append(time.perf_counter() - tic)
    assert max(times) < 0.1
    print(f"\nPASS criterion 4: 40-point pipeline planned in "
          f"{max(times) * 1e3:.1f} ms worst case (< 100 ms)")


def test_criterion_5_single_revolution_everywhere(hundred_seed_batch):
    rotations = hundred_seed_batch["rotations"]
    violations = sum(r > TWO_PI + 1e-9 for r in rotations)
    assert violations == 0
    print(f"\nPASS criterion 5: {len(rotations)} plans, every total rotation "
          f"<= 2*pi + 1e-9 (max {max(rotations):.4f} rad)")


def test_criterion_6_circular_mean_against_grid_search():
    rng = np.random.default_rng(106)
    grid = np.arange(0.0, TWO_PI, 1e-4)
    checked = 0
    worst_grid = 0.0
    worst_equiv = 0.0
    while checked < 1000:
        angles = rng.uniform(0.0, TWO_PI, int(rng.integers(1, 13)))
        try:
            mean = circular_mean(angles)
        except DegenerateMeanError:
            continue
        cost = (1.0 - np.cos(angles[:, None] - grid[None, :])).sum(axis=0)
        worst_grid = max(worst_grid, circular_separation(mean, grid[int(cost.argmin())]))
        delta = float(rng.uniform(-10.0, 10.0))
        shifted = circular_mean(np.mod(angles + delta, TWO_PI))
        worst_equiv = max(worst_equiv, circular_separation(shifted, wrap_angle(mean + delta)))
        checked += 1
    assert worst_grid <= 2e-4
    assert worst_equiv <= 1e-9
    print(f"\nPASS criterion 6: 1000 angle sets, grid-argmin gap {worst_grid:.2e} rad "
          f"(<= 2e-4), equivariance gap {worst_equiv:.2e} rad (<= 1e-9)")


def test_criterion_7_baseline_constant_pipeline_varies():
    scenario = hemisphere_scenario()
    baseline_values = {r.ssp_distance_m
                       for r in run_comparison(scenario, trials=3).reports["baseline"]}
    greedy_values = [r.ssp_distance_m
                     for r in run_comparison(scenario, trials=10).reports["greedy"]]
    assert len(baseline_values) == 1
    assert float(np.var(greedy_values)) > 0.0
    print(f"\nPASS criterion 7: baseline ssp constant at "
          f"{baseline_values.pop():.3f} m over 3 trials; pipeline variance "
          f"{np.var(greedy_values):.2e} over 10 seeds")


def _fuzz_positions(rng, n):
    kind = rng.uniform()
    if kind < 0.8:
        return rng.uniform(-1.0, 1.0, (n, 3))
    if kind < 0.9:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        return np.linspace(-1.0, 1.0, n)[:, None] * direction  # collinear, opposed angles
    pts = rng.uniform(-1.0, 1.0, (max(1, n // 3), 3))
    return pts[rng.integers(0, len(pts), n)]  # coincident duplicates


def test_criterion_8_permutation_safety_fuzz():
    rng = np.random.default_rng(108)
    for trial in range(1000):
        n = int(rng.integers(1, 61))
        k = int(rng.integers(1, 8))
        waypoints = make_waypoints(_fuzz_positions(rng, n))
        params = ClusterParams(k=k, seed=trial)
        algorithm = "cluster" if trial % 3 == 0 else "greedy"
        plans = [
            plan_waypoints(waypoints, params, algorithm=algorithm),
            baseline_angle_sequence(waypoints, groups=k),
        ]
        for plan in plans:
            assert sorted(plan.flattened_order) == list(range(n))
            assert plan.cluster_plan.total_rotation <= TWO_PI + 1e-9
    print("\nPASS criterion 8: 1000 fuzzed inputs (n in [1,60], k in [1,7]), "
          "all plans are permutations, no crashes")


def test_criterion_9_reach_and_the_rotation_floor():
    # the stock scenario (40 holes, k=5, a 72 degree reach), seeds 0-9
    result = run_comparison(hemisphere_scenario(), trials=10)
    counts = {name: [r.out_of_reach_points for r in rs] for name, rs in result.reports.items()}
    (floor,) = {r.rotation_floor_rad for rs in result.reports.values() for r in rs}
    kept = [r for rs in result.reports.values() for r in rs if not r.out_of_reach_points]
    # the baseline's sectors are exactly 72 degrees wide; the k-means clusters are not
    assert counts["baseline"] == [0] * 10
    assert counts["cluster"] == counts["greedy"] == [6, 4, 10, 5, 3, 1, 9, 5, 7, 10]
    assert abs(floor - 4.569) < 5e-4
    assert all(r.total_rotation_rad >= floor for r in kept)
    print("\nPASS criterion 9: out of reach, of 40 points, over seeds 0-9: "
          + "; ".join(f"{name} {counts[name]}" for name in counts)
          + f"; R* {floor:.3f} rad, and the {len(kept)} plans that keep every point in reach "
          f"rotate {min(r.total_rotation_rad for r in kept):.3f} rad or more")
