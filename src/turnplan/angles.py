"""Angle helpers shared across the planner. All angles are radians."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    wrapped = angle % TWO_PI
    # a % TWO_PI can round up to exactly TWO_PI for tiny negative inputs
    return 0.0 if wrapped >= TWO_PI else wrapped


def wrap_angles(angles) -> np.ndarray:
    """`wrap_angle` of each angle, bit for bit: np.remainder rounds as Python's float % does."""
    wrapped = np.remainder(angles, TWO_PI, dtype=float)
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


def forward_delta(start: float, end: float) -> float:
    """Arc from `start` to `end` in the turntable's rotation direction, in [0, 2*pi)."""
    return wrap_angle(end - start)


def circular_separation(a: float, b: float) -> float:
    """Shortest unsigned angular difference, in [0, pi]."""
    delta = wrap_angle(a - b)
    return min(delta, TWO_PI - delta)
