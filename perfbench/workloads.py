"""The three workloads: inputs made from a seed, the timed call, and its check.

- cli40: `turnplan.cli.main(["plan", ...])` on 40-hole layout files, rotating
  through baseline / cluster / greedy. The paper's stock size and the path a
  cell operator runs; dominated by per-object Python overhead.
- replan4k: one 4000-hole part whose waypoints are made once in set-up; each
  request re-plans them with a fresh k-means seed (k=5). Clustering and
  sequencing only: dense per-cluster distance matrices of ~800 points.
- narrow4k: waypoint generation plus planning from an in-memory 4000-hole
  part, k=60 and a 6 degree reach (a narrow-reach robot). Geometry and
  k-means dominate, and the reach check has something to say.

Every request of a pass has fixed inputs, so passes repeat exactly; the
loop stops only between groups (the requests that share one layout).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from turnplan import cli, clustering, geometry, metrics, sequencing
from scoring import Cell, CheckError, Layout, Score, score_plan, waypoint_layout

ALGORITHMS = ("baseline", "cluster", "greedy")
RADIUS = 0.15
STANDOFF = 0.05          # the CLI's default stand-off
CLI_K = 5                # the CLI's default cluster count
CLI_BOUND = math.radians(72.0)

CLI40_LAYOUTS = 200      # enough layouts that gain_vs_baseline is steady across seeds
REPLAN4K_SEEDS = 16
NARROW4K_SEEDS = 16      # k-means takes 19 to 79 iterations by seed; the median needs many
NARROW_K = 60
NARROW_BOUND = math.radians(6.0)


def default_cell() -> Cell:
    model = metrics.CellModel()
    return Cell(robot_speed=model.robot_linear_speed,
                table_speed=model.turntable_angular_speed,
                per_point=model.dwell_per_point + model.planner_overhead_per_point)


@dataclass(frozen=True)
class Request:
    key: int                              # position within a pass
    group: int                            # requests sharing a layout
    algorithm: str
    call: Callable[[], object]            # the timed part
    check: Callable[[object], Score]      # untimed; raises CheckError


@dataclass(frozen=True)
class Inputs:
    requests: list[Request]
    fingerprint: str
    # baseline scores for workloads whose requests plan greedily only
    reference: Callable[[], list[Score]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Inputs]
    min_requests: int                     # fixes the tail percentile: 10 samples beyond it
    calibration_units: int                # reference units run before each request

    @property
    def tail_percentile(self) -> float:
        return 100.0 * (1.0 - 10.0 / self.min_requests)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def part_layout(part, k: int, angular_bound: float) -> Layout:
    return waypoint_layout([h.origin for h in part.holes], [h.y_axis for h in part.holes],
                           STANDOFF, k, angular_bound)


def file_layout(path) -> Layout:
    with open(path, encoding="utf-8") as fh:
        holes = json.load(fh)["holes"]
    return waypoint_layout([h["origin"] for h in holes], [h["y_axis"] for h in holes],
                           STANDOFF, CLI_K, CLI_BOUND)


def _check_cli(layout: Layout, cell: Cell, algorithm: str, out_path: Path, output) -> Score:
    code, stdout = output
    if code != 0:
        raise CheckError(f"turnplan plan exited with {code}")
    summary = json.loads(stdout)
    with open(out_path, encoding="utf-8") as fh:
        records = json.load(fh)
    n = len(layout.positions)
    index = np.array([r["waypoint_index"] for r in records], dtype=np.int64)
    if summary["n"] != n or len(index) != n or not np.array_equal(np.sort(index), np.arange(n)):
        raise CheckError("plan is not a permutation of the waypoints")
    positions = np.array([r["position"] for r in records])
    angles = np.array([r["table_angle"] for r in records])
    if np.abs(positions - layout.positions[index]).max() > 1e-12 or \
            np.abs(angles - layout.angles[index]).max() > 1e-9:
        raise CheckError("plan positions or angles differ from the layout's waypoints")
    cluster = np.array([r["cluster_index"] for r in records])
    starts = np.flatnonzero(np.diff(cluster, prepend=-1))
    if not np.array_equal(cluster[starts], np.arange(len(starts))):
        raise CheckError("plan clusters are not contiguous and numbered in order")
    rotation_before = np.array([r["rotation_before"] for r in records])
    if np.any(np.delete(rotation_before, starts) != 0.0):
        raise CheckError("rotation inside a cluster")
    sequences = np.split(index, starts[1:])
    return score_plan(layout, cell, algorithm, sequences, rotation_before[starts],
                      summary["total_rotation_rad"], summary["ssp_distance_m"])


def cli_requests(layout_paths, seeds, out_path: Path) -> Inputs:
    """Three requests per layout file: baseline, cluster, greedy with the layout's seed."""
    cell = default_cell()
    requests = []
    layouts = []
    for group, (path, seed) in enumerate(zip(layout_paths, seeds)):
        layout = file_layout(path)
        layouts.append(layout.positions)
        for algorithm in ALGORITHMS:
            argv = ["plan", str(path), "--algorithm", algorithm, "--seed", str(int(seed)),
                    "--out", str(out_path), "--format", "json"]

            def call(argv=argv):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                return code, stdout.getvalue()

            def check(output, layout=layout, algorithm=algorithm):
                return _check_cli(layout, cell, algorithm, out_path, output)

            requests.append(Request(len(requests), group, algorithm, call, check))
    return Inputs(requests=requests, fingerprint=_digest(*layouts, np.asarray(seeds)))


def setup_cli40(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, 40])
    layout_seeds = rng.integers(0, 2**31, CLI40_LAYOUTS)
    plan_seeds = rng.integers(0, 2**31, CLI40_LAYOUTS)
    paths = []
    for i, layout_seed in enumerate(layout_seeds):
        path = workdir / f"layout{i:03d}.json"
        geometry.save_part_layout(geometry.hemisphere_layout(40, RADIUS, int(layout_seed)), path)
        paths.append(path)
    return cli_requests(paths, plan_seeds, workdir / "plan.json")


def _check_api(layout: Layout, cell: Cell, plan) -> Score:
    return score_plan(layout, cell, "greedy", plan.sequences, plan.cluster_plan.rotation_deltas,
                      plan.cluster_plan.total_rotation,
                      metrics.ssp_distance(plan, layout.positions))


def _baseline_reference(layout: Layout, cell: Cell, waypoints) -> list[Score]:
    plan = sequencing.baseline_angle_sequence(waypoints, groups=layout.k, start_angle=0.0)
    return [score_plan(layout, cell, "baseline", plan.sequences,
                       plan.cluster_plan.rotation_deltas, plan.cluster_plan.total_rotation)]


def setup_replan4k(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, 4000, 5])
    part = geometry.hemisphere_layout(4000, RADIUS, int(rng.integers(0, 2**31)))
    waypoints = geometry.generate_waypoints(part, STANDOFF, 0.0)
    params = [clustering.ClusterParams(k=5, seed=int(s))
              for s in rng.integers(0, 2**31, REPLAN4K_SEEDS)]
    layout = part_layout(part, params[0].k, params[0].angular_bound)
    cell = default_cell()
    requests = [
        Request(i, i, "greedy",
                lambda p=p: sequencing.plan_waypoints(waypoints, p),
                lambda plan: _check_api(layout, cell, plan))
        for i, p in enumerate(params)
    ]
    return Inputs(requests=requests,
                  fingerprint=_digest(layout.positions, [p.seed for p in params]),
                  reference=lambda: _baseline_reference(layout, cell, waypoints))


def _check_narrow(layout: Layout, cell: Cell, output) -> Score:
    waypoints, plan = output
    positions = np.array([w.pose.position for w in waypoints])
    angles = np.array([w.table_angle for w in waypoints])
    if positions.shape != layout.positions.shape or \
            np.abs(positions - layout.positions).max() > 1e-12 or \
            np.abs(angles - layout.angles).max() > 1e-9:
        raise CheckError("generated waypoints differ from the hole frames' stand-off points")
    return _check_api(layout, cell, plan)


def setup_narrow4k(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, 4000, 60])
    part = geometry.hemisphere_layout(4000, RADIUS, int(rng.integers(0, 2**31)))
    params = [clustering.ClusterParams(k=NARROW_K, angular_bound=NARROW_BOUND, seed=int(s))
              for s in rng.integers(0, 2**31, NARROW4K_SEEDS)]
    layout = part_layout(part, NARROW_K, NARROW_BOUND)
    cell = default_cell()

    def plan(p):
        waypoints = geometry.generate_waypoints(part, STANDOFF, 0.0)
        return waypoints, sequencing.plan_waypoints(waypoints, p)

    requests = [Request(i, i, "greedy", lambda p=p: plan(p),
                        lambda output: _check_narrow(layout, cell, output))
                for i, p in enumerate(params)]
    return Inputs(requests=requests,
                  fingerprint=_digest(layout.positions, [p.seed for p in params]),
                  reference=lambda: _baseline_reference(
                      layout, cell, geometry.generate_waypoints(part, STANDOFF, 0.0)))


WORKLOADS = {
    "cli40": Workload("cli40", setup_cli40, min_requests=500, calibration_units=4),
    "replan4k": Workload("replan4k", setup_replan4k, min_requests=50, calibration_units=12),
    "narrow4k": Workload("narrow4k", setup_narrow4k, min_requests=25, calibration_units=40),
}
