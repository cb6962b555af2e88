"""A fixed reference computation that tracks how fast the machine runs right now.

On a shared host the same request can take 30% longer from one minute to the
next. The benchmark runs a block of reference units before each request and
once after the last one, and scales every request's latency by
`UNIT_NOMINAL_S` over the mean unit time of the blocks on either side of it.
A timing then reads as it would on this machine at a fixed reference speed,
and a change to turnplan moves it as much as it moves the raw time.

A unit mixes interpreted Python (dict and str work) with numpy broadcasting
on arrays of a few MB, as the workloads do. It never calls turnplan.
"""

from __future__ import annotations

import time

import numpy as np

# One unit's time on a 2 vCPU Intel Xeon virtual machine in a quiet minute
# (Python 3.11.7, numpy 2.4.6). It only sets the scale; never change it, or
# every timing moves with it.
UNIT_NOMINAL_S = 0.0033

_POINTS = np.random.default_rng(0).random((300, 3))


def unit() -> int:
    table: dict[int, int] = {}
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + len(str(i))
    dist = np.sqrt(((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1))
    return int(dist.argmin(axis=1).sum()) + table[0]


def block(units: int) -> float:
    """Run `units` reference units; return the mean time of one, in seconds."""
    tic = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - tic) / units
