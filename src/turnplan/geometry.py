"""Work-cell geometry: hole frames and waypoint generation.

Conventions used throughout the package:

- positions are meters, expressed in the turntable frame
- a waypoint is a position and a table angle: plans carry no tool orientation
- every hole carries a right-handed orthonormal frame whose y axis runs
  along the hole centerline; the tool approaches along -y from a stand-off
  point above the hole
- the turntable angle of a point is measured counter-clockwise about the
  table's rotation axis, starting from the frame's +x direction, and is
  stored in [0, 2*pi)

The attack angle tilts the stand-off direction itself (the hole frame is
rotated about its own x axis first, then the stand-off translation is
applied along the rotated y axis).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .angles import wrap_angles

# Unit-norm / orthogonality tolerance for hole frames and the turntable axis.
UNIT_TOL = 1e-9

# In-plane radius below which a point is considered "on the table axis".
AXIS_RADIUS_TOL = 1e-9

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_vector3(value, name: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        raise ValueError(f"{name} must be a 3-vector of numbers, got {value!r}") from None
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if any(isinstance(c, (str, bool, np.bool_)) for c in value):  # np.array takes "0.1", True
        raise ValueError(f"{name} must be a 3-vector of numbers, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return _freeze(arr)


def _as_int(value, name: str, low: int | None = None) -> int:
    """`value` as an int of at least `low`; numpy integers pass, bools and non-integers raise."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError):  # no __index__: not an integer
            if low is not None and operator.index(value) < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_real(value, name: str) -> float:
    """`value` as a finite float; numpy numbers pass, bools, strings and the rest raise."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(real := float(value)):
                return real
    raise ValueError(f"{name} must be finite and real, got {value!r}")


def _as_indices(values, name: str, out_of_range: str) -> np.ndarray:
    """`values` as a read-only 1-D np.intp array; numpy integers pass, bools and the rest raise.

    A read-only 1-D np.intp array is returned as it is, a writable one copied;
    anything else is checked value by value. An integer beyond np.intp raises
    `out_of_range`, since no index set can hold it.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.intp and values.ndim == 1:
        return _freeze(values.copy()) if values.flags.writeable else values
    values = list(values.tolist() if isinstance(values, np.ndarray) else values)
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            bad = next(v for v in values if type(v) is kind)
            raise ValueError(f"{name} must be integers, got {bad!r}")
    try:
        return _freeze(np.array(values, dtype=np.intp))
    except OverflowError:
        raise ValueError(out_of_range) from None


@dataclass(frozen=True, eq=False)
class Pose:
    """End-effector target position (m); a bundle row view."""

    position: np.ndarray


@dataclass(frozen=True, eq=False)
class HoleFrame:
    """A view of one hole of a `PartModel`: its origin and frame axes (y along the centerline)."""

    origin: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray


@dataclass(frozen=True, eq=False)
class Waypoint:
    """A target pose paired with its angle about the turntable axis; a view of a bundle row."""

    pose: Pose
    table_angle: float


_AXES = ("x_axis", "y_axis", "z_axis")


def _reject_holes(bad: np.ndarray, message: str) -> None:
    """Raise for the first hole flagged in `bad`: (N,), or (N, 3) with one column per axis."""
    if bad.any():
        hole, *axis = np.argwhere(bad)[0].tolist()
        raise ValueError(message.format(*(_AXES[a] for a in axis)) + f" (hole {hole})")


@dataclass(frozen=True, eq=False)
class PartModel:
    """A workpiece: hole origins (N, 3) and frames (N, 3, 3), plus its turntable axis.

    The columns of `frames[i]` are hole i's x, y and z axes: a right-handed
    orthonormal frame whose y axis runs along the hole centerline. Both arrays
    are read-only and C-contiguous. Every frame is checked once, here, and so is
    every origin, against `Waypoints`' bound on positions: 2**500 in magnitude.
    """

    origins: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    frames: np.ndarray = field(default_factory=lambda: np.empty((0, 3, 3)))
    turntable_axis: np.ndarray = field(default_factory=lambda: _Z.copy())
    turntable_center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        origins = np.array(self.origins, dtype=float, order="C")
        frames = np.array(self.frames, dtype=float, order="C")
        if origins.ndim != 2 or origins.shape[1] != 3 or frames.shape != (len(origins), 3, 3):
            raise ValueError(f"need (N, 3) origins and (N, 3, 3) frames, got "
                             f"{origins.shape} and {frames.shape}")
        _reject_holes(~(np.abs(origins) < 2.0**500).all(axis=1),
                      "origin must be finite and below 2**500 in magnitude")
        axes = frames.transpose(0, 2, 1)  # axes[i, j]: hole i's x, y or z axis
        _reject_holes(~np.isfinite(axes).all(axis=2), "{} must be finite")
        with np.errstate(over="ignore"):  # an overflow gives inf, which is not unit norm
            norms = np.linalg.norm(axes, axis=2)
        _reject_holes(np.abs(norms - 1.0) > UNIT_TOL, "{} must have unit norm")
        x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
        dots = np.stack([(x * y).sum(axis=1), (y * z).sum(axis=1), (x * z).sum(axis=1)], axis=1)
        _reject_holes((np.abs(dots) > UNIT_TOL).any(axis=1),
                      "x_axis, y_axis and z_axis must be mutually orthogonal")
        _reject_holes((np.abs(np.cross(x, y) - z) > UNIT_TOL).any(axis=1),
                      "hole frame must be right-handed: cross(x_axis, y_axis) == z_axis")
        object.__setattr__(self, "origins", _freeze(origins))
        object.__setattr__(self, "frames", _freeze(frames))
        axis = _as_vector3(self.turntable_axis, "turntable_axis")
        with np.errstate(over="ignore"):  # as above
            norm = float(np.linalg.norm(axis))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"turntable_axis must have unit norm, got {norm!r}")
        object.__setattr__(self, "turntable_axis", axis)
        object.__setattr__(self, "turntable_center",
                           _as_vector3(self.turntable_center, "turntable_center"))

    @property
    def holes(self) -> tuple[HoleFrame, ...]:
        """One read-only `HoleFrame` view per hole, in hole order."""
        return tuple(HoleFrame(origin, *frame.T)
                     for origin, frame in zip(self.origins, self.frames))


@dataclass(frozen=True, eq=False)
class Waypoints:
    """Read-only waypoint arrays: positions (N, 3) and table angles (N,), N >= 1.

    Indexing and iteration yield `Waypoint` views, so per-hole callers keep
    working; the planners read the arrays directly.
    """

    positions: np.ndarray
    table_angles: np.ndarray

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        angles = np.array(self.table_angles, dtype=float)
        n = angles.size
        if not n or angles.shape != (n,) or positions.shape != (n, 3):
            raise ValueError(f"need (N, 3) positions and (N,) angles with N >= 1, got "
                             f"{positions.shape} and {angles.shape}")
        # k-means and the greedy chain square the positions: below 2**500 none overflows
        if not np.abs(positions).max() < 2.0**500:
            raise ValueError("positions must be finite and below 2**500 in magnitude")
        if not np.all((angles >= 0.0) & (angles < 2.0 * math.pi)):
            raise ValueError("table angles must lie in [0, 2*pi)")
        object.__setattr__(self, "positions", _freeze(positions))
        object.__setattr__(self, "table_angles", _freeze(angles))

    def __len__(self) -> int:
        return len(self.table_angles)

    def __getitem__(self, index: int) -> Waypoint:
        return Waypoint(pose=Pose(position=self.positions[index]),
                        table_angle=float(self.table_angles[index]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@functools.lru_cache(maxsize=16)
def _angle_basis(axis_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Unit in-plane reference and binormal: +x projected, or +y when the axis is parallel to +x.

    Computed once per axis value, keyed by its bytes (so -0.0 is not 0.0); read-only.
    """
    axis = np.frombuffer(axis_bytes)
    ref = _X - (_X @ axis) * axis
    if np.linalg.norm(ref) <= AXIS_RADIUS_TOL:
        ref = _Y - (_Y @ axis) * axis
    ref = ref / np.linalg.norm(ref)
    return _freeze(ref), _freeze(np.cross(axis, ref))


def _dot3(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # an explicit left-to-right sum, the same on every CPU; `@` goes through
    # BLAS, which may fuse multiply-adds and so round differently by machine
    return v[:, 0] * u[0] + v[:, 1] * u[1] + v[:, 2] * u[2]


def _squared_norms(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(dx*dx + dy*dy) + dz*dz over coordinate-major differences diff = (dx, dy, dz): the
    one rounding of the squared distances that k-means and the greedy chain compare, the
    same on every host. It squares diff in place, one ufunc call for all three planes, and
    writes into `out` or a new array, so the result never keeps diff alive."""
    dx2, dy2, dz2 = np.multiply(diff, diff, out=diff)
    dist = np.add(dx2, dy2, out=out)
    dist += dz2
    return dist


def _on_axis(positions: np.ndarray, part: PartModel) -> np.ndarray:
    """Which (N, 3) positions lie on the turntable axis: in-plane radius <= AXIS_RADIUS_TOL."""
    v = positions - part.turntable_center
    in_plane = v - _dot3(v, part.turntable_axis)[:, None] * part.turntable_axis
    return np.linalg.norm(in_plane, axis=1) <= AXIS_RADIUS_TOL


def _table_angles(positions: np.ndarray, part: PartModel) -> tuple[np.ndarray, np.ndarray]:
    """Angles of (N, 3) positions about the turntable axis, and which points lie on the axis.

    On-axis points (`_on_axis`) get angle 0.0.
    """
    axis = part.turntable_axis
    v = positions - part.turntable_center
    on_axis = _on_axis(positions, part)
    ref, binormal = _angle_basis(axis.tobytes())
    # math.atan2, not np.arctan2: numpy's vectorized arctan2 differs from libm
    # in the last bit for some inputs, and that would change plans
    angles = wrap_angles(list(map(math.atan2, _dot3(v, binormal).tolist(),
                                  _dot3(v, ref).tolist())))
    angles[on_axis] = 0.0
    return angles, on_axis


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def generate_waypoints(part: PartModel, standoff: float, attack: float) -> Waypoints:
    """Waypoints for every hole of the part, in hole order, as one bundle.

    Each hole frame is rotated by `attack` counter-clockwise about its own x
    axis, then the position is offset by `standoff` along the rotated y axis
    (the tool approaches along the rotated -y axis, into the hole).

    A waypoint that lands exactly on the turntable axis gets table angle 0.0:
    such a point is presented to the robot at every table rotation. Waypoints
    at or beyond 2**500 from the origin or from the table center are rejected.
    """
    if not len(part.origins):
        raise ValueError("part has no holes")
    if (standoff := _as_real(standoff, "standoff")) < 0.0:
        raise ValueError(f"standoff must be finite and >= 0, got {standoff!r}")
    # a stacked matmul runs the same 3x3 product per frame as a single-frame `@`
    rotated = part.frames @ _rot_x(_as_real(attack, "attack"))
    with np.errstate(over="ignore"):  # an overflow gives inf, which the check below rejects
        positions = part.origins + standoff * rotated[:, :, 1]
    # the angles square offsets from the table center; `Waypoints` bounds the positions
    if not np.abs(positions - part.turntable_center).max() < 2.0**500:
        raise ValueError("waypoints and their offsets from the turntable center must lie "
                         "below 2**500 in magnitude")
    angles, _ = _table_angles(positions, part)
    return Waypoints(positions=positions, table_angles=angles)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of `rows` (N, 3) divided by its norm, rounded as `v / np.linalg.norm(v)` is."""
    # a (1, 3) @ (3, 1) matmul per row runs the BLAS dot that np.linalg.norm(v) runs
    return rows / np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])[:, None]


def hemisphere_layout(n: int, radius: float, seed: int) -> PartModel:
    """A part with `n` holes spread over the upper hemisphere of `radius` meters.

    Holes sit on a Fibonacci lattice, jittered deterministically from `seed`;
    each hole's y axis points radially outward, and a random roll spins its
    x and z axes about it. Hole order is shuffled (the planner must not rely
    on a tidy incoming order). The same (n, radius, seed) always produces the
    same part.

    The layout bytes are pinned, so every step rounds as a one-hole
    computation would: the trig is libm's `math.cos`/`math.sin` (numpy's SIMD
    np.cos and np.sin may differ in the last bit on some CPUs), each norm is
    `_unit_rows`' per-row BLAS dot (np.einsum and x*x + y*y + z*z add in
    another order), and `np.cross` on (N, 3) rows rounds each row as it
    rounds one vector.
    """
    n = _as_int(n, "n", 1)
    if not (radius := _as_real(radius, "radius")) > 0.0:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    rng = np.random.default_rng(_as_int(seed, "seed", 0))
    idx = np.arange(n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    azimuth = (golden * idx + rng.uniform(-0.3, 0.3, n) * golden).tolist()
    # keep z strictly inside (0, 1): all holes off the pole and off the equator plane
    z = (idx + 0.5) / n + rng.uniform(-0.45, 0.45, n) / n
    z = np.clip(z, 1e-6, 1.0 - 1e-6)
    rolls = rng.uniform(0.0, 2.0 * math.pi, n).tolist()
    in_plane = np.sqrt(1.0 - z * z)
    outward = _unit_rows(np.stack([in_plane * np.array(list(map(math.cos, azimuth))),
                                   in_plane * np.array(list(map(math.sin, azimuth))), z], axis=1))
    # x0 is normal to y and to +z, or to +x where y is within about 26 degrees of +z
    helper = np.where((np.abs(outward[:, 2]) < 0.9)[:, None], _Z, _X)
    x0 = _unit_rows(np.cross(helper, outward))
    x_axis = _unit_rows(np.array(list(map(math.cos, rolls)))[:, None] * x0
                        + np.array(list(map(math.sin, rolls)))[:, None] * np.cross(outward, x0))
    axes = np.stack([x_axis, outward, np.cross(x_axis, outward)], axis=2)  # columns: x, y, z
    order = rng.permutation(n)
    return PartModel(origins=(radius * outward)[order], frames=axes[order])


def _layout_vector(indent: int) -> str:
    """One 3-vector as json.dump(..., indent=2) writes it, `indent` spaces in: %r per float."""
    return "[\n" + ",\n".join([" " * (indent + 2) + "%r"] * 3) + "\n" + " " * indent + "]"


# the layout as json.dump(..., indent=2) writes it: json.encoder emits finite floats
# by their repr, and a list with no items as []
_LAYOUT_HEAD = ('{\n  "turntable_axis": %s,\n  "turntable_center": %s,\n  "holes": ['
                % (_layout_vector(2), _layout_vector(2)))
_LAYOUT_HOLE = ("    {\n"
                + ",\n".join(f'      "{name}": {_layout_vector(6)}' for name in ("origin", *_AXES))
                + "\n    }")


def save_part_layout(part: PartModel, path: str | os.PathLike) -> None:
    """Write a part layout as JSON (meters), byte for byte as json.dump(doc, indent=2) would."""
    rows = np.concatenate([part.origins, part.frames.transpose(0, 2, 1).reshape(-1, 9)], axis=1)
    holes = ",\n".join([_LAYOUT_HOLE % tuple(row) for row in rows.tolist()])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_LAYOUT_HEAD % (*part.turntable_axis.tolist(), *part.turntable_center.tolist()))
        fh.write(f"\n{holes}\n  ]\n}}\n" if holes else "]\n}\n")


_FIELDS = ("origin", *_AXES)


def _hole_array(holes: list[dict]) -> np.ndarray:
    """Every hole's origin and x, y and z axes as one (N, 4, 3) array.

    One flat conversion with one type scan; only when that fails is each
    entry checked by `_as_vector3`, field by field, to name the first malformed one.
    """
    with contextlib.suppress(KeyError, TypeError, OverflowError):  # diagnosed below
        vectors = [h[name] for h in holes for name in _FIELDS]
        flat = list(itertools.chain.from_iterable(vectors))
        if set(map(len, vectors)) <= {3} and set(map(type, flat)) <= {int, float}:
            return np.array(flat, dtype=float).reshape(len(holes), 4, 3)
    for name in _FIELDS:
        for index, row in enumerate([h[name] for h in holes]):  # a missing key raises first
            _as_vector3(row, f"{name} of hole {index}")
    raise AssertionError("every entry that fails the flat conversion fails _as_vector3")


def load_part_layout(path: str | os.PathLike) -> PartModel:
    """Load a part layout written by save_part_layout, revalidating every frame.

    Malformed documents (not UTF-8 JSON, missing fields, wrong JSON types,
    invalid frames, nesting too deep for the decoder) raise ValueError that
    names the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"layout file {path} is nested too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"layout file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"layout file {path} must hold a JSON object, got {type(doc).__name__}")
    try:
        holes = doc["holes"]
        if not isinstance(holes, list) or not all(isinstance(h, dict) for h in holes):
            raise ValueError("holes must be a list of objects")
        vectors = _hole_array(holes)
        return PartModel(origins=vectors[:, 0], frames=vectors[:, 1:].transpose(0, 2, 1),
                         turntable_axis=doc["turntable_axis"],
                         turntable_center=doc["turntable_center"])
    except KeyError as exc:
        raise ValueError(f"layout file {path} is missing field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"layout file {path}: {exc}") from exc
