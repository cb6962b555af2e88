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
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def forward_delta(start: float, end: float) -> float:
    """Arc from `start` to `end` in the turntable's rotation direction, in [0, 2*pi)."""
    return wrap_angle(end - start)


def circular_separation(a, b):
    """Shortest unsigned angular difference, in [0, pi]; of arrays, elementwise."""
    delta = wrap_angles(np.subtract(a, b))
    return np.minimum(delta, TWO_PI - delta)


def rotation_floor(angles: np.ndarray, on_axis: np.ndarray, bound: float, start: float) -> float:
    """R*: no plan from `start` that keeps every point within bound / 2 of its stop rotates less.

    The table turns forward from `start` within one revolution, so a plan
    rotates as far as the forward arc to its last stop. A point off the table axis
    (`on_axis`) and more than bound / 2 from the start by `circular_separation`, the
    test `metrics.out_of_reach` applies, needs a stop at a forward arc of phi - bound / 2
    or more, phi being its own forward arc from the start. R* is 0 when no point needs one.
    """
    far = (circular_separation(angles, start) > bound / 2.0) & ~on_axis
    return float(wrap_angles(angles[far] - start).max() - bound / 2.0) if far.any() else 0.0
