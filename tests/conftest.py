from __future__ import annotations

import itertools
import time
from importlib.resources import files

import numpy as np
import pytest

from turnplan import bench, cli, geometry, metrics, sequencing
from turnplan.geometry import Pose, Waypoint
from turnplan.sequencing import DistanceMatrix


def brute_force_open_path(m: DistanceMatrix, start: int) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum open path from `start`; first minimal permutation wins."""
    rest = [i for i in range(m.n) if i != start]
    best_length = float("inf")
    best_order = (start,)
    for perm in itertools.permutations(rest):
        order = (start,) + perm
        length = sum(m.d[a][b] for a, b in zip(order, order[1:]))
        if length < best_length:
            best_length, best_order = length, order
    return best_length, best_order


def make_waypoints(positions) -> list[Waypoint]:
    """Waypoints at the given positions, angles derived from the xy plane."""
    pts = np.asarray(positions, dtype=float)
    waypoints = []
    for p in pts:
        angle = float(np.mod(np.arctan2(p[1], p[0]), 2.0 * np.pi))
        if angle >= 2.0 * np.pi:
            angle = 0.0
        waypoints.append(Waypoint(pose=Pose(position=p, orientation=(1.0, 0.0, 0.0, 0.0)),
                                  table_angle=angle))
    return waypoints


def count_waypoint_generation(monkeypatch, delay: float = 0.0) -> list:
    """Wrap generate_waypoints in every turnplan module that binds it; each call
    sleeps `delay` seconds, then is appended to the returned list."""
    original = geometry.generate_waypoints
    calls = []

    def counted(*args, **kwargs):
        time.sleep(delay)
        calls.append(args)
        return original(*args, **kwargs)

    for module in (geometry, sequencing, metrics, bench, cli):
        if getattr(module, "generate_waypoints", None) is original:
            monkeypatch.setattr(module, "generate_waypoints", counted)
    return calls


@pytest.fixture(scope="session")
def bundled_layout_path() -> str:
    return str(files("turnplan").joinpath("data/hemisphere40.json"))
