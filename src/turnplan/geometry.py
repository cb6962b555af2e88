"""Work-cell geometry: poses, hole frames, and end-effector waypoint generation.

Conventions used throughout the package:

- positions are meters, expressed in the turntable frame
- quaternions are scalar-first (w, x, y, z) unit quaternions
- every hole carries a right-handed orthonormal frame whose y axis runs
  along the hole centerline; the tool approaches along -y from a stand-off
  point above the hole
- the turntable angle of a point is measured counter-clockwise about the
  table's rotation axis, starting from the frame's +x direction, and is
  stored in [0, 2*pi)

The attack angle tilts the stand-off direction itself (the hole frame is
rotated about its own x axis first, then the stand-off translation is
applied along the rotated y axis), not merely the tool orientation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

from .angles import wrap_angle

# Unit-norm / orthogonality tolerance for frames and quaternions.
UNIT_TOL = 1e-9

# In-plane radius below which a point is considered "on the table axis".
AXIS_RADIUS_TOL = 1e-9

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


class DegeneratePositionError(ValueError):
    """Raised when a point lies on the turntable axis and has no table angle."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_vector3(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return _freeze(arr)


def _as_unit_vector3(value, name: str) -> np.ndarray:
    arr = _as_vector3(value, name)
    if abs(np.linalg.norm(arr) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must have unit norm, got {np.linalg.norm(arr)!r}")
    return arr


@dataclass(frozen=True, eq=False)
class Pose:
    """End-effector target: position (m) plus unit quaternion (w, x, y, z)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vector3(self.position, "position"))
        quat = np.array(self.orientation, dtype=float)
        if quat.shape != (4,):
            raise ValueError(f"orientation must be a quaternion (w, x, y, z), got shape {quat.shape}")
        if abs(np.linalg.norm(quat) - 1.0) > UNIT_TOL:
            raise ValueError(f"orientation must be a unit quaternion, norm was {np.linalg.norm(quat)!r}")
        object.__setattr__(self, "orientation", _freeze(quat))


IDENTITY_QUAT = (1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class HoleFrame:
    """Right-handed orthonormal frame at a hole center; y axis runs along the centerline."""

    origin: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_vector3(self.origin, "origin"))
        object.__setattr__(self, "x_axis", _as_unit_vector3(self.x_axis, "x_axis"))
        object.__setattr__(self, "y_axis", _as_unit_vector3(self.y_axis, "y_axis"))
        object.__setattr__(self, "z_axis", _as_unit_vector3(self.z_axis, "z_axis"))
        if abs(float(self.x_axis @ self.y_axis)) > UNIT_TOL \
                or abs(float(self.y_axis @ self.z_axis)) > UNIT_TOL \
                or abs(float(self.x_axis @ self.z_axis)) > UNIT_TOL:
            raise ValueError("hole frame axes must be mutually orthogonal")
        if np.max(np.abs(np.cross(self.x_axis, self.y_axis) - self.z_axis)) > UNIT_TOL:
            raise ValueError("hole frame must be right-handed: cross(x_axis, y_axis) == z_axis")

    def rotation_matrix(self) -> np.ndarray:
        """Frame axes as the columns of a 3x3 rotation (frame -> table coordinates)."""
        return np.column_stack([self.x_axis, self.y_axis, self.z_axis])


@dataclass(frozen=True, eq=False)
class Waypoint:
    """A target pose paired with its angle about the turntable axis."""

    pose: Pose
    table_angle: float

    def __post_init__(self):
        angle = float(self.table_angle)
        if not 0.0 <= angle < 2.0 * math.pi:
            raise ValueError(f"table_angle must lie in [0, 2*pi), got {angle!r}")
        object.__setattr__(self, "table_angle", angle)


@dataclass(frozen=True, eq=False)
class PartModel:
    """A workpiece: its hole frames plus the turntable axis it is mounted on."""

    holes: tuple[HoleFrame, ...] = ()
    turntable_axis: np.ndarray = field(default_factory=lambda: _Z.copy())
    turntable_center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        object.__setattr__(self, "turntable_axis", _as_unit_vector3(self.turntable_axis, "turntable_axis"))
        object.__setattr__(self, "turntable_center", _as_vector3(self.turntable_center, "turntable_center"))


_DEFAULT_PART = PartModel()


@dataclass(frozen=True, eq=False)
class Waypoints:
    """Read-only waypoint arrays: positions (N, 3), orientations (N, 4) and table angles (N,).

    Indexing and iteration yield `Waypoint` views, so per-hole callers keep
    working; the planners read the arrays directly.
    """

    positions: np.ndarray
    orientations: np.ndarray
    table_angles: np.ndarray

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        quats = np.array(self.orientations, dtype=float)
        angles = np.array(self.table_angles, dtype=float)
        n = len(angles)
        if angles.shape != (n,) or positions.shape != (n, 3) or quats.shape != (n, 4):
            raise ValueError(f"need (N, 3) positions, (N, 4) orientations and (N,) angles, got "
                             f"{positions.shape}, {quats.shape} and {angles.shape}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        if np.any(np.abs(np.linalg.norm(quats, axis=1) - 1.0) > UNIT_TOL):
            raise ValueError("orientations must be unit quaternions")
        if not np.all((angles >= 0.0) & (angles < 2.0 * math.pi)):
            raise ValueError("table angles must lie in [0, 2*pi)")
        object.__setattr__(self, "positions", _freeze(positions))
        object.__setattr__(self, "orientations", _freeze(quats))
        object.__setattr__(self, "table_angles", _freeze(angles))

    def __len__(self) -> int:
        return len(self.table_angles)

    def __getitem__(self, index: int) -> Waypoint:
        return Waypoint(pose=Pose(position=self.positions[index],
                                  orientation=self.orientations[index]),
                        table_angle=self.table_angles[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def as_waypoints(waypoints) -> Waypoints:
    """The bundle itself, or a bundle stacked from an iterable of `Waypoint`s."""
    if isinstance(waypoints, Waypoints):
        return waypoints
    items = list(waypoints)
    return Waypoints(
        positions=np.array([w.pose.position for w in items]).reshape(len(items), 3),
        orientations=np.array([w.pose.orientation for w in items]).reshape(len(items), 4),
        table_angles=[w.table_angle for w in items])


def _angle_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit in-plane reference and binormal: +x projected, or +y when the axis is parallel to +x."""
    ref = _X - (_X @ axis) * axis
    if np.linalg.norm(ref) <= AXIS_RADIUS_TOL:
        ref = _Y - (_Y @ axis) * axis
    ref = ref / np.linalg.norm(ref)
    return ref, np.cross(axis, ref)


def _dot3(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    # an explicit left-to-right sum, the same on every CPU; `@` goes through
    # BLAS, which may fuse multiply-adds and so round differently by machine
    return v[:, 0] * u[0] + v[:, 1] * u[1] + v[:, 2] * u[2]


def _table_angles(positions: np.ndarray, part: PartModel) -> tuple[list[float], np.ndarray]:
    """Angles of (N, 3) positions about the turntable axis, and which points lie on the axis.

    On-axis points (in-plane radius <= AXIS_RADIUS_TOL) get angle 0.0.
    """
    axis = part.turntable_axis
    v = positions - part.turntable_center
    in_plane = v - _dot3(v, axis)[:, None] * axis
    on_axis = np.linalg.norm(in_plane, axis=1) <= AXIS_RADIUS_TOL
    ref, binormal = _angle_basis(axis)
    # math.atan2, not np.arctan2: numpy's vectorized arctan2 differs from libm
    # in the last bit for some inputs, and that would change plans
    angles = [0.0 if flag else wrap_angle(math.atan2(y, x))
              for flag, y, x in zip(on_axis.tolist(), _dot3(v, binormal).tolist(),
                                    _dot3(v, ref).tolist())]
    return angles, on_axis


def turntable_angle(position, part: PartModel) -> float:
    """Angle of `position` about the turntable axis, counter-clockwise from +x, in [0, 2*pi).

    Raises DegeneratePositionError if the point lies on the axis (in-plane
    radius <= 1e-9), where the angle is undefined.
    """
    angles, on_axis = _table_angles(_as_vector3(position, "position")[None, :], part)
    if on_axis[0]:
        raise DegeneratePositionError("position lies on the turntable axis; angle undefined")
    return angles[0]


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _waypoints_from_frames(frames: np.ndarray, origins: np.ndarray, standoff: float,
                           attack: float, part: PartModel) -> Waypoints:
    """The waypoint kernel: (N, 3, 3) frame rotations and (N, 3) origins in one pass."""
    if standoff < 0.0:
        raise ValueError(f"standoff must be >= 0, got {standoff!r}")
    # a stacked matmul runs the same 3x3 product per frame as a single-frame `@`
    rotated = frames @ _rot_x(attack)
    positions = origins + standoff * rotated[:, :, 1]
    quats = Rotation.from_matrix(rotated).as_quat()[:, [3, 0, 1, 2]]  # (w, x, y, z)
    # canonical sign: first nonzero component positive, so equal rotations
    # serialize identically
    first = quats[np.arange(len(quats)), (quats != 0.0).argmax(axis=1)]
    quats[first < 0.0] *= -1.0
    angles, _ = _table_angles(positions, part)
    return Waypoints(positions=positions, orientations=quats, table_angles=angles)


def generate_waypoint(hole: HoleFrame, standoff: float, attack: float,
                      part: PartModel | None = None) -> Waypoint:
    """Build the end-effector waypoint for one hole.

    The hole frame is rotated by `attack` counter-clockwise about its own x
    axis, then the position is offset by `standoff` along the rotated y axis.
    The waypoint orientation is the rotated frame's quaternion (the tool
    approach direction is the rotated -y axis, pointing into the hole).

    A waypoint that lands exactly on the turntable axis gets table angle 0.0:
    such a point is presented to the robot at every table rotation.
    """
    return _waypoints_from_frames(hole.rotation_matrix()[None], hole.origin[None], standoff,
                                  attack, _DEFAULT_PART if part is None else part)[0]


def generate_waypoints(part: PartModel, standoff: float, attack: float) -> Waypoints:
    """Waypoints for every hole of the part, in hole order, as one bundle."""
    if not part.holes:
        raise ValueError("part has no holes")
    # columns are the frame axes, as in HoleFrame.rotation_matrix()
    frames = np.stack([np.array([getattr(h, name) for h in part.holes])
                       for name in ("x_axis", "y_axis", "z_axis")], axis=2)
    origins = np.array([h.origin for h in part.holes])
    return _waypoints_from_frames(frames, origins, standoff, attack, part)


def _frame_from_outward_y(y_axis: np.ndarray, roll: float) -> tuple[np.ndarray, np.ndarray]:
    """Complete (x, z) for a given unit y axis; `roll` spins the pair about y."""
    helper = _Z if abs(float(y_axis @ _Z)) < 0.9 else _X
    x0 = np.cross(helper, y_axis)
    x0 = x0 / np.linalg.norm(x0)
    x_axis = math.cos(roll) * x0 + math.sin(roll) * np.cross(y_axis, x0)
    x_axis = x_axis / np.linalg.norm(x_axis)
    z_axis = np.cross(x_axis, y_axis)
    return x_axis, z_axis


def hemisphere_layout(n: int, radius: float, seed: int) -> PartModel:
    """A part with `n` holes spread over the upper hemisphere of `radius` meters.

    Holes sit on a Fibonacci lattice, jittered deterministically from `seed`;
    each hole's y axis points radially outward. Hole order is shuffled (the
    planner must not rely on a tidy incoming order). The same (n, radius,
    seed) always produces the same part.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    azimuth = golden * idx + rng.uniform(-0.3, 0.3, n) * golden
    # keep z strictly inside (0, 1): all holes off the pole and off the equator plane
    z = (idx + 0.5) / n + rng.uniform(-0.45, 0.45, n) / n
    z = np.clip(z, 1e-6, 1.0 - 1e-6)
    rolls = rng.uniform(0.0, 2.0 * math.pi, n)
    in_plane = np.sqrt(1.0 - z * z)
    holes = []
    for i in range(n):
        outward = np.array([
            in_plane[i] * math.cos(azimuth[i]),
            in_plane[i] * math.sin(azimuth[i]),
            z[i],
        ])
        outward = outward / np.linalg.norm(outward)
        x_axis, z_axis = _frame_from_outward_y(outward, rolls[i])
        holes.append(HoleFrame(origin=radius * outward, x_axis=x_axis,
                               y_axis=outward, z_axis=z_axis))
    holes = [holes[i] for i in rng.permutation(n)]
    return PartModel(holes=tuple(holes))


def save_part_layout(part: PartModel, path: str | os.PathLike) -> None:
    """Write a part layout as JSON (meters)."""
    doc = {
        "turntable_axis": [float(v) for v in part.turntable_axis],
        "turntable_center": [float(v) for v in part.turntable_center],
        "holes": [
            {
                "origin": [float(v) for v in hole.origin],
                "x_axis": [float(v) for v in hole.x_axis],
                "y_axis": [float(v) for v in hole.y_axis],
                "z_axis": [float(v) for v in hole.z_axis],
            }
            for hole in part.holes
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_part_layout(path: str | os.PathLike) -> PartModel:
    """Load a part layout written by save_part_layout, revalidating every frame.

    Malformed documents (missing fields, wrong JSON types, invalid frames)
    raise ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"layout file {path} must hold a JSON object, got {type(doc).__name__}")
    try:
        holes = doc["holes"]
        if not isinstance(holes, list) or not all(isinstance(h, dict) for h in holes):
            raise ValueError(f"layout file {path}: holes must be a list of objects")
        return PartModel(holes=tuple(HoleFrame(origin=h["origin"], x_axis=h["x_axis"],
                                               y_axis=h["y_axis"], z_axis=h["z_axis"])
                                     for h in holes),
                         turntable_axis=doc["turntable_axis"],
                         turntable_center=doc["turntable_center"])
    except KeyError as exc:
        raise ValueError(f"layout file {path} is missing field {exc}") from exc
    except TypeError as exc:  # e.g. an object where a 3-vector belongs
        raise ValueError(f"layout file {path} has a field of the wrong type: {exc}") from exc
