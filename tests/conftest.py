from __future__ import annotations

import itertools
import math
import time
from importlib.resources import files

import numpy as np
import pytest

from turnplan import bench, cli, geometry, sequencing
from turnplan.geometry import Waypoints


def path_length(m: np.ndarray, order) -> float:
    """Open-path length of a visit order over an (n, n) distance array's indices."""
    return float(sum(m[a][b] for a, b in zip(order, order[1:])))


def brute_force_open_path(m: np.ndarray, start: int) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum open path from `start`; first minimal permutation wins."""
    rest = [i for i in range(len(m)) if i != start]
    best_length = float("inf")
    best_order = (start,)
    for perm in itertools.permutations(rest):
        order = (start,) + perm
        length = path_length(m, order)
        if length < best_length:
            best_length, best_order = length, order
    return best_length, best_order


# Exact search is capped here; beyond this the subset table gets unwieldy.
EXACT_SEARCH_MAX_POINTS = 12


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exact solver's size cap."""


def optimal_sequence(m: np.ndarray, start: int = 0) -> tuple[int, ...]:
    """Minimum-length open path from `start`, by dynamic programming over subsets.

    Exact but exponential; capped at EXACT_SEARCH_MAX_POINTS points. Ties are
    broken toward the lexicographically smallest visit order.
    """
    n = len(m)
    if n > EXACT_SEARCH_MAX_POINTS:
        raise InstanceTooLargeError(
            f"exact search handles at most {EXACT_SEARCH_MAX_POINTS} points, got {n}")
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, {n}), got {start!r}")
    if n == 1:
        return (0,)

    d = m.tolist()
    size = 1 << n
    # best[mask][j]: shortest path starting at j that visits exactly `mask` (j in mask)
    best = [[math.inf] * n for _ in range(size)]
    for j in range(n):
        best[1 << j][j] = 0.0
    members_of = [[j for j in range(n) if mask >> j & 1] for mask in range(size)]
    for mask in range(3, size):
        members = members_of[mask]
        if len(members) < 2:
            continue
        for j in members:
            rest = mask ^ (1 << j)
            rest_best = best[rest]
            dj = d[j]
            value = math.inf
            for k in members_of[rest]:
                cand = dj[k] + rest_best[k]
                if cand < value:
                    value = cand
            best[mask][j] = value

    order = [start]
    mask = size - 1
    current = start
    while mask != 1 << current:
        rest = mask ^ (1 << current)
        target = best[mask][current]
        for k in members_of[rest]:  # ascending: smallest index achieving the optimum
            if d[current][k] + best[rest][k] == target:
                order.append(k)
                mask = rest
                current = k
                break
    return tuple(order)


def make_waypoints(positions) -> Waypoints:
    """A bundle at the given positions, angles from the xy plane."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 3)
    angles = [float(np.mod(np.arctan2(p[1], p[0]), 2.0 * np.pi)) for p in pts]
    return Waypoints(positions=pts, table_angles=[0.0 if a >= 2.0 * np.pi else a for a in angles])


def chain_walk(positions, start: int) -> tuple[int, ...]:
    """plan_waypoints' greedy walk over all the points as one cluster of a fresh bundle.

    It makes the plans' own choice: above CHAIN_TABLE_MIN_POINTS points it
    walks the bundle's chain index, as a plan with a large cluster does; at
    or below, the cluster's own distance matrix.
    """
    bundle = make_waypoints(positions)
    m = len(bundle)
    remaining = bundle.positions.T.copy()
    if m > sequencing.CHAIN_TABLE_MIN_POINTS:
        index = sequencing._ChainIndex(bundle.positions)
        walk = sequencing._chain(index, np.arange(m), start, [0] * m, remaining)
    else:
        walk = sequencing._matrix_chain(np.arange(m), start, remaining)
    return tuple(walk.tolist())


def count_waypoint_generation(monkeypatch, delay: float = 0.0) -> list:
    """Wrap generate_waypoints in every turnplan module that binds it; each call
    sleeps `delay` seconds, then is appended to the returned list."""
    original = geometry.generate_waypoints
    calls = []

    def counted(*args, **kwargs):
        time.sleep(delay)
        calls.append(args)
        return original(*args, **kwargs)

    for module in (geometry, sequencing, bench, cli):
        if getattr(module, "generate_waypoints", None) is original:
            monkeypatch.setattr(module, "generate_waypoints", counted)
    return calls


@pytest.fixture(scope="session")
def bundled_layout_path() -> str:
    return str(files("turnplan").joinpath("data/hemisphere40.json"))
