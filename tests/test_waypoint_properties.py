"""Property tests: the batched waypoint kernel against an independent per-hole reference.

The reference is the per-hole formula: the hole's axes as the columns of a
3x3 matrix times `_rot_x(attack)`, and `math.atan2` of the in-plane
coordinates (summed left to right in Python floats). Positions and angles
must match bit for bit. scipy's `Rotation` only draws the random hole frames.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from turnplan.angles import wrap_angle
from turnplan.geometry import AXIS_RADIUS_TOL, PartModel, _rot_x, generate_waypoints

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def reference_waypoint(origin, frame, standoff: float, attack: float, part: PartModel):
    rotated = frame @ _rot_x(attack)
    position = origin + standoff * rotated[:, 1]

    axis = part.turntable_axis
    v = (position - part.turntable_center).tolist()
    along = _dot(v, axis.tolist())
    in_plane = [v[i] - along * float(axis[i]) for i in range(3)]
    if math.sqrt(_dot(in_plane, in_plane)) <= AXIS_RADIUS_TOL:
        return position, 0.0
    unit_x, unit_y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    ref = unit_x - (unit_x @ axis) * axis
    if np.linalg.norm(ref) <= AXIS_RADIUS_TOL:
        ref = unit_y - (unit_y @ axis) * axis
    ref = ref / np.linalg.norm(ref)
    binormal = np.cross(axis, ref)
    angle = wrap_angle(math.atan2(_dot(v, binormal.tolist()), _dot(v, ref.tolist())))
    return position, angle


def _unit(values) -> np.ndarray:
    vec = np.array(values, dtype=float)
    return vec / np.linalg.norm(vec)


unit_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(_unit)
axes = st.one_of(st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]).map(np.array), directions)
coords = st.floats(-1.0, 1.0)
points = st.tuples(coords, coords, coords).map(np.array)


@st.composite
def holes(draw):
    """An (origin, frame) pair: a random point and a random rotation matrix."""
    return draw(points), Rotation.from_quat(draw(unit_quaternions)).as_matrix()


def _frame_along(axis: np.ndarray) -> np.ndarray:
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 0.0, 1.0])
    x_axis = _unit(np.cross(axis, helper))
    return np.column_stack([x_axis, axis, np.cross(x_axis, axis)])


def _part(hole_list, axis, center) -> PartModel:
    return PartModel(origins=[origin for origin, _ in hole_list],
                     frames=[frame for _, frame in hole_list],
                     turntable_axis=axis, turntable_center=center)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@PROPERTY_SETTINGS
@given(hole_list=st.lists(holes(), min_size=1, max_size=12), axis=axes, center=points,
       standoff=st.floats(0.0, 0.5), attack=st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_generate_waypoints_matches_per_hole_reference(hole_list, axis, center, standoff,
                                                       attack):
    part = _part(hole_list, axis, center)
    bundle = generate_waypoints(part, standoff, attack)
    assert len(bundle) == len(hole_list)
    for i, (origin, frame) in enumerate(zip(part.origins, part.frames)):
        position, angle = reference_waypoint(origin, frame, standoff, attack, part)
        assert _bits(bundle.positions[i]) == _bits(position)
        assert _bits(bundle.table_angles[i]) == _bits(angle)


@PROPERTY_SETTINGS
@given(axis=axes, center=points, lift=st.floats(-1.0, 1.0), standoff=st.floats(0.0, 0.5),
       other=holes())
def test_on_axis_waypoint_gets_angle_zero(axis, center, lift, standoff, other):
    part = _part([other, (center + lift * axis, _frame_along(axis))], axis, center)
    bundle = generate_waypoints(part, standoff, 0.0)
    assert bundle.table_angles[1] == 0.0
    assert reference_waypoint(part.origins[1], part.frames[1], standoff, 0.0, part)[1] == 0.0
