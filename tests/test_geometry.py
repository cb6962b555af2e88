import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from turnplan.angles import TWO_PI, wrap_angle, wrap_angles
from turnplan.cli import main
from turnplan.geometry import (AXIS_RADIUS_TOL, PartModel, Waypoints, _hole_array, _on_axis,
                               generate_waypoints, hemisphere_layout, load_part_layout,
                               save_part_layout)

WORLD_FRAME = dict(origin=(0.0, 0.0, 0.0), x_axis=(1.0, 0.0, 0.0),
                   y_axis=(0.0, 1.0, 0.0), z_axis=(0.0, 0.0, 1.0))
WORLD_ORIGIN, WORLD_AXES = np.zeros(3), np.eye(3)


def one_hole_part(origin, x_axis, y_axis, z_axis, part: PartModel | None = None) -> PartModel:
    """A part holding just this hole, on `part`'s turntable (the default one if None)."""
    part = PartModel() if part is None else part
    return PartModel(origins=[origin], frames=[np.column_stack([x_axis, y_axis, z_axis])],
                     turntable_axis=part.turntable_axis, turntable_center=part.turntable_center)


def hole_waypoints(origin, frame, standoff: float, attack: float,
                   part: PartModel | None = None) -> Waypoints:
    """The one-row bundle of one hole (frame columns: its x, y, z axes), through the
    batched generator."""
    return generate_waypoints(one_hole_part(origin, *np.asarray(frame).T, part), standoff, attack)


def test_hole_frame_rejects_non_unit_axis():
    bad = dict(WORLD_FRAME, x_axis=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="x_axis must have unit norm"):
        one_hole_part(**bad)


def test_hole_frame_rejects_non_orthogonal_axes():
    s = 1.0 / math.sqrt(2.0)
    bad = dict(WORLD_FRAME, y_axis=(s, s, 0.0))
    with pytest.raises(ValueError, match="orthogonal"):
        one_hole_part(**bad)


def test_hole_frame_rejects_left_handed_frame():
    bad = dict(WORLD_FRAME, z_axis=(0.0, 0.0, -1.0))
    with pytest.raises(ValueError, match="right-handed"):
        one_hole_part(**bad)


def test_generate_waypoint_identity_case():
    bundle = hole_waypoints(WORLD_ORIGIN, WORLD_AXES, standoff=0.0, attack=0.0)
    assert_allclose(bundle.positions[0], [0.0, 0.0, 0.0], atol=1e-12)
    assert bundle.table_angles[0] == 0.0  # on-axis position maps to angle zero


def test_generate_waypoint_pure_translation_along_y():
    bundle = hole_waypoints(WORLD_ORIGIN, WORLD_AXES, standoff=0.1, attack=0.0)
    assert_allclose(bundle.positions[0], [0.0, 0.1, 0.0], atol=1e-12)


def _homogeneous_oracle(origin, frame, standoff: float, attack: float) -> np.ndarray:
    """Independent route: compose 4x4 transforms frame * rot_x(attack) * lift(standoff)."""
    t_frame = np.eye(4)
    t_frame[:3, :3] = frame
    t_frame[:3, 3] = origin
    c, s = math.cos(attack), math.sin(attack)
    t_attack = np.eye(4)
    t_attack[:3, :3] = [[1, 0, 0], [0, c, -s], [0, s, c]]
    t_standoff = np.eye(4)
    t_standoff[1, 3] = standoff
    return t_frame @ t_attack @ t_standoff


def test_generate_waypoint_attack_matches_homogeneous_composition():
    position = hole_waypoints(WORLD_ORIGIN, WORLD_AXES, standoff=0.1,
                              attack=math.pi / 2.0).positions[0]
    oracle = _homogeneous_oracle(WORLD_ORIGIN, WORLD_AXES, 0.1, math.pi / 2.0)
    assert_allclose(position, oracle[:3, 3], atol=1e-12)
    # frozen values for the right-angle case
    assert_allclose(position, [0.0, 0.0, 0.1], atol=1e-12)


def test_generate_waypoint_attack_matches_oracle_on_random_frames():
    part = hemisphere_layout(25, 0.2, seed=11)
    rng = np.random.default_rng(4)
    for origin, frame in zip(part.origins[:10], part.frames[:10]):
        standoff = float(rng.uniform(0.0, 0.2))
        attack = float(rng.uniform(-math.pi, math.pi))
        position = hole_waypoints(origin, frame, standoff, attack, part).positions[0]
        oracle = _homogeneous_oracle(origin, frame, standoff, attack)
        assert_allclose(position, oracle[:3, 3], atol=1e-12)


def test_generate_waypoint_rejects_negative_standoff():
    with pytest.raises(ValueError):
        hole_waypoints(WORLD_ORIGIN, WORLD_AXES, standoff=-0.01, attack=0.0)


@pytest.mark.parametrize("field, standoff, attack", [
    ("standoff", math.nan, 0.0), ("standoff", math.inf, 0.0), ("attack", 0.05, math.nan)])
def test_generate_waypoints_rejects_non_finite_arguments(field, standoff, attack):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        generate_waypoints(hemisphere_layout(3, 0.1, seed=0), standoff, attack)


def test_an_offset_from_the_table_center_that_overflows_is_rejected_without_a_warning():
    # the offset is 2e308, beyond the largest float: rejected like any offset of 2**500
    part = PartModel(origins=[WORLD_ORIGIN], frames=[WORLD_AXES], turntable_center=(0, -1e308, 0))
    with pytest.raises(ValueError, match="offsets from the turntable center must lie below"):
        generate_waypoints(part, 1e308, 0.0)


def test_zero_attack_translates_exactly_along_y():
    part = hemisphere_layout(15, 0.2, seed=6)
    for origin, frame in zip(part.origins, part.frames):
        position = hole_waypoints(origin, frame, 0.05, 0.0, part).positions[0]
        assert_allclose(position, origin + 0.05 * frame[:, 1], atol=1e-12)


def test_standoff_is_preserved_under_any_attack():
    part = hemisphere_layout(10, 0.15, seed=2)
    rng = np.random.default_rng(8)
    for origin, frame in zip(part.origins, part.frames):
        attack = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        position = hole_waypoints(origin, frame, 0.07, attack, part).positions[0]
        assert abs(np.linalg.norm(position - origin) - 0.07) < 1e-12


def turntable_angle(position, part: PartModel) -> float:
    """One point's table angle, through `generate_waypoints`: a hole there, stand-off 0."""
    return hole_waypoints(position, WORLD_AXES, 0.0, 0.0, part).table_angles[0]


def test_turntable_angle_reference_cases():
    part = PartModel()
    assert turntable_angle((1.0, 0.0, 0.0), part) == 0.0
    assert abs(turntable_angle((0.0, 1.0, 0.0), part) - math.pi / 2.0) < 1e-12
    assert abs(turntable_angle((-1.0, -1.0, 0.0), part) - 5.0 * math.pi / 4.0) < 1e-12


def test_turntable_angle_scale_invariant():
    part = PartModel()
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, 3)
        if np.hypot(p[0], p[1]) < 1e-6:
            continue
        c = float(rng.uniform(0.1, 10.0))
        assert abs(turntable_angle(c * p, part) - turntable_angle(p, part)) < 1e-9


def test_turntable_angle_handles_axis_parallel_to_x():
    part = PartModel(turntable_axis=(1.0, 0.0, 0.0))
    # reference falls back to +y; +y direction reads as angle 0
    assert abs(turntable_angle((0.3, 1.0, 0.0), part)) < 1e-12


def test_generated_table_angles_are_consistent():
    part = hemisphere_layout(30, 0.15, seed=9)
    bundle = generate_waypoints(part, 0.05, 0.1)
    for position, angle in zip(bundle.positions, bundle.table_angles):
        assert abs(angle - turntable_angle(position, part)) < 1e-12


def test_wrap_angles_is_wrap_angle_bit_for_bit():
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, -1e-300, -5e-324, 1e-300, TWO_PI, -TWO_PI, math.nextafter(TWO_PI, 0.0),
             math.pi, -math.pi, 1e300, -1e300]
    raw = np.concatenate([edges, rng.uniform(-20.0, 20.0, 20000), rng.normal(0.0, 1e-12, 2000)])
    wrapped = wrap_angles(raw.tolist())
    expected = [wrap_angle(a) for a in raw.tolist()]
    assert wrapped.tobytes() == np.array(expected).tobytes()  # +0.0, never -0.0
    assert wrapped[:4].tolist() == [0.0, 0.0, 0.0, 0.0]  # tiny negatives round to 2*pi, then 0.0


def test_on_axis_points_get_angle_zero():
    positions = np.array([[0.0, 0.0, 1.0], [-1e-12, -1e-12, -3.0], [-0.0, -0.0, 0.0],
                          [-1.0, -1e-300, 0.0], [-2.0, 0.0, 0.0]])
    part = PartModel(origins=positions, frames=np.broadcast_to(WORLD_AXES, (5, 3, 3)))
    on_axis = _on_axis(positions, part)
    angles = generate_waypoints(part, 0.0, 0.0).table_angles  # a hole at each point
    assert on_axis.tolist() == [True, True, True, False, False]
    assert angles.tobytes() == np.array([0.0, 0.0, 0.0, wrap_angle(math.atan2(-1e-300, -1.0)),
                                         math.pi]).tobytes()


@pytest.mark.parametrize("axis, e1, e2", [
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1 / 3, 2 / 3, 2 / 3), (2 / 3, 1 / 3, -2 / 3), (2 / 3, -2 / 3, 1 / 3)),
], ids=["z", "tilted"])
def test_the_on_axis_test_is_the_linalg_norm_test_at_the_tolerance(axis, e1, e2):
    # in-plane radii a few ulps either side of AXIS_RADIUS_TOL, in many directions: the one
    # length rounding gives np.linalg.norm's decision at every one
    radii = [AXIS_RADIUS_TOL]
    for _ in range(4):
        radii = [math.nextafter(radii[0], 0.0), *radii, math.nextafter(radii[-1], 1.0)]
    turns = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    radius, turn = np.array(radii).repeat(len(turns)), np.tile(turns, len(radii))
    part = PartModel(turntable_axis=axis)  # centered at 0, so no offset rounds the points
    v = (radius * np.cos(turn))[:, None] * e1 + (radius * np.sin(turn))[:, None] * e2
    a = part.turntable_axis
    in_plane = v - ((v[:, 0] * a[0] + v[:, 1] * a[1]) + v[:, 2] * a[2])[:, None] * a
    expected = np.linalg.norm(in_plane, axis=1) <= AXIS_RADIUS_TOL
    assert 0 < np.count_nonzero(expected) < len(expected)  # both decisions occur
    assert _on_axis(v, part).tolist() == expected.tolist()


@pytest.mark.parametrize("positions, angles", [
    ([[0.0, 0.0, 0.0]], 0.5),
    (np.empty((0, 3)), []),
    (np.zeros((2, 2)), [0.0, 1.0]),
    (np.zeros((3, 3)), [0.0, 1.0]),
], ids=["scalar-angles", "empty", "2d-positions", "count-mismatch"])
def test_waypoints_bundle_rejects_bad_shapes(positions, angles):
    with pytest.raises(ValueError, match=r"^need \(N, 3\) positions"):
        Waypoints(positions=positions, table_angles=angles)


@pytest.mark.parametrize("origins, frames, shapes", [
    (np.zeros(3), np.zeros((1, 3, 3)), "(3,) and (1, 3, 3)"),
    (np.zeros((2, 2)), np.zeros((2, 3, 3)), "(2, 2) and (2, 3, 3)"),
    (np.zeros((2, 3)), np.zeros((1, 3, 3)), "(2, 3) and (1, 3, 3)"),
    (np.zeros((1, 3)), np.zeros((1, 3)), "(1, 3) and (1, 3)"),
], ids=["1d-origins", "2d-origins", "count-mismatch", "2d-frames"])
def test_part_model_rejects_bad_shapes(origins, frames, shapes):
    with pytest.raises(ValueError) as excinfo:
        PartModel(origins=origins, frames=frames)
    assert str(excinfo.value) == f"need (N, 3) origins and (N, 3, 3) frames, got {shapes}"


@pytest.mark.parametrize("value", [2.0**500, -2.0**500, 1e200, math.inf, math.nan])
def test_part_model_rejects_origins_at_or_beyond_2_to_the_500(value):
    # the bound of a bundle's positions: no layout holds a hole that cannot be planned
    frames = np.broadcast_to(np.eye(3), (3, 3, 3))
    below = math.nextafter(2.0**500, 0.0)
    assert PartModel(origins=np.full((3, 3), -below), frames=frames).origins.min() == -below
    origins = np.zeros((3, 3))
    origins[2, 1] = value
    with pytest.raises(ValueError) as excinfo:
        PartModel(origins=origins, frames=frames)
    assert str(excinfo.value) == "origin must be finite and below 2**500 in magnitude (hole 2)"


def test_per_hole_views_are_read_only_rows_of_the_arrays():
    """`PartModel.holes` and `Waypoints` indexing and iteration: perfbench's workloads read them."""
    part = hemisphere_layout(12, 0.15, seed=3)
    waypoints = generate_waypoints(part, 0.05, 0.3)
    holes, views = part.holes, list(waypoints)
    assert len(holes) == len(views) == 12
    arrays = []
    for i, (hole, view) in enumerate(zip(holes, views)):
        assert np.array_equal(hole.origin, part.origins[i])
        for j, axis in enumerate((hole.x_axis, hole.y_axis, hole.z_axis)):
            assert np.array_equal(axis, part.frames[i, :, j])
        for waypoint in (view, waypoints[i]):
            assert np.array_equal(waypoint.pose.position, waypoints.positions[i])
            assert waypoint.table_angle == waypoints.table_angles[i]
            arrays.append(waypoint.pose.position)
        arrays.extend((hole.origin, hole.x_axis, hole.y_axis, hole.z_axis))
    assert not any(array.flags.writeable for array in arrays)


def test_hemisphere_layout_single_hole_points_up():
    part = hemisphere_layout(1, 0.1, seed=0)
    (y_axis,) = part.frames[:, :, 1]
    assert abs(np.linalg.norm(y_axis) - 1.0) < 1e-9
    assert float(y_axis @ [0.0, 0.0, 1.0]) > 0.0


def test_hemisphere_layout_origins_on_sphere():
    part = hemisphere_layout(40, 0.15, seed=7)
    assert len(part.origins) == 40
    for origin in part.origins:
        assert abs(np.linalg.norm(origin) - 0.15) < 1e-9
        assert origin[2] > 0.0


def test_hemisphere_layout_deterministic():
    a = hemisphere_layout(17, 0.2, seed=42)
    b = hemisphere_layout(17, 0.2, seed=42)
    assert np.array_equal(a.origins, b.origins)
    assert np.array_equal(a.frames, b.frames)  # every x, y and z axis


def test_hemisphere_layout_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hemisphere_layout(0, 0.1, seed=0)
    for radius in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            hemisphere_layout(5, radius, seed=0)


# sha256 of save_part_layout(hemisphere_layout(n, radius, seed)), recorded with the
# per-hole generator and json.dump writer that the array versions replaced
LAYOUT_SHA256 = {
    (1, 0.15, 0): "33d88f755e1dd90ca5e4f47f108c90900059501d85bf7d00f1ebc5f6dd04a19f",
    (1, 1.0, 0): "9b68a6fd2bc3096899a535ef340464ee3385409fedd2eda4da479c55733dd0ce",
    (1, 3.7e-3, 0): "810ba5978aa6e0ff7613f08cf81775dc5158827ef24d4aa66ec1730fdec2065c",
    (1, 0.15, 7): "e22b8b8bdb347c3e06a369d28264609847bf4572dd06ec743705065c20be400f",
    (1, 1.0, 7): "fc76465b0c09d6decb57bf84788f8d576f27022bd9e8004b128418efc12b524d",
    (1, 3.7e-3, 7): "d0c58153edaea9cf2d175501bfeb5c435e1e5345eae3382d5329fdf6131ebe64",
    (1, 0.15, 31337): "b7a641112eb1c0673125192c6a2bafd3f7762b7a4b03b0d6b840cc0cbd35b79b",
    (1, 1.0, 31337): "a9cb36ce1c82ee8ac70a709388d3cdd57994d8f743fe228d4ec8196b605e6c16",
    (1, 3.7e-3, 31337): "2e73fccd1f086296c4ef597ef9e4480795a697342fc943f332a54824de025d8f",
    (2, 0.15, 0): "2be569cfdbfba27acc4ec57d935be72a8ac3dc468b03970c709e31c5884a843e",
    (2, 1.0, 0): "16954610cb3bf575bab75d7491bd47b0bc3d9cfdc07c1f99953a048388b7f360",
    (2, 3.7e-3, 0): "9abe2dee8f28872b779a11778724ea5d41252fcc57d40f44149b326c158dbdc1",
    (2, 0.15, 7): "04e4751ffa35ef5168c3b4a1ccce0938fb21bbcbf2536ec0c9200a1f7103e5f4",
    (2, 1.0, 7): "0feee46502e97fe60e6e3209a9d0d0f4983bb0c8627bfbd22211e04d7cbf04e5",
    (2, 3.7e-3, 7): "5cc548db7c21857fdfce3c198d1804b43e462da59b6105a8d7e1901622c75a5d",
    (2, 0.15, 31337): "76f4bec0598031ffbdaaeb254cc9126094e30438e4b5214921b797aad07cc290",
    (2, 1.0, 31337): "9b4f6216202e4c2dea3a62f946395dbd8e93eb3ec9c6edbad1ec567e6bd645c1",
    (2, 3.7e-3, 31337): "2df6e7318397740498ac0a38874d5daf3a965ec8d905c4645fe01a36240b9e71",
    (40, 0.15, 0): "f82fa612e9486f2d8d769d736ec20fc7e84fda7da97e5fcf89062d9cbaf9c94f",
    (40, 1.0, 0): "74acaa8bcca56ecf4a8d0e364ee67e11efdbfd44f6b17e2d17fc004319a15497",
    (40, 3.7e-3, 0): "3f4ee7aefb292466cf42708c614b4a8ac2d99825c0ef9f964144b28527c17cb4",
    (40, 0.15, 7): "a9d731eb68bbc9ec938c25c14b7e24702902e8e1cf5ea8b24d5c79b872933f09",
    (40, 1.0, 7): "704098dfe600046fc0fe18cfd25e9f7b2fb236849a80f6410c675627c957f308",
    (40, 3.7e-3, 7): "f0c9e011168f9cbe002caeded8ddb296636612fd1f34e53e96e88fc9971454ca",
    (40, 0.15, 31337): "06ecdfdc193af283db1f5f54c438b312dbd49273086ab68cd7663b247f4c0dcd",
    (40, 1.0, 31337): "a75860bdca6b12f46255c1cfb13b63ba3cb0b366d636d4b3fa1f1fed0ebe8b2e",
    (40, 3.7e-3, 31337): "c269a1791bc2bed1991ce487f5c1089c7d96aca3828c19593029aadd1c86ba85",
    (4000, 0.15, 0): "407c1902439668084e334d7b986221ddccb20079c46c1d3ced565bff3e86cec6",
    (4000, 1.0, 0): "86492a0c23f636057b359101553f3d42da2d508f91947c2122d50488168dc429",
    (4000, 3.7e-3, 0): "ccd27a4000853a801de0ef3438ce19981fc86936a130f3121af48b10b9cd9a1e",
    (4000, 0.15, 7): "61560b8f6cf321c3aeb5d8c7d03f4ade352eb6dc6dd9afed27cfc4a46d063a39",
    (4000, 1.0, 7): "af4f71e7d4fffe6158fe55863ac24b699ff1b595147607f0c5c8027c99964a3a",
    (4000, 3.7e-3, 7): "abf9c77506a0023f378ccda6edb3a43223267da049800eaf335caeb53a71d0bc",
    (4000, 0.15, 31337): "d490f2a1799bfde1f04bc95618bc644f0795cf46223a7f6e271161c7f1561b24",
    (4000, 1.0, 31337): "f40d28879ec083d7bc14990a9e31f479603a2b07d7601fccf888130a51d22f7c",
    (4000, 3.7e-3, 31337): "da1f2864b972204ec8b719d743cf662992c7fcb561cd1e5cc108e7f7822dcf0c",
    # the top of the size range, as `turnplan generate --n 40000 --seed 7` writes it
    (40000, 0.15, 7): "c4d91995775262361e15594db42785cd97ea950a21811478815b49ee7d9864b5",
}


@pytest.mark.parametrize("n, radius, seed", LAYOUT_SHA256)
def test_layout_bytes_are_pinned(tmp_path, n, radius, seed):
    path = tmp_path / "layout.json"
    save_part_layout(hemisphere_layout(n, radius, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAYOUT_SHA256[n, radius, seed]


def test_empty_layout_bytes_are_pinned(tmp_path):
    path = tmp_path / "empty.json"
    save_part_layout(PartModel(), path)
    assert path.read_bytes() == (b'{\n  "turntable_axis": [\n    0.0,\n    0.0,\n    1.0\n  ],\n'
                                 b'  "turntable_center": [\n    0.0,\n    0.0,\n    0.0\n  ],\n'
                                 b'  "holes": []\n}\n')


def _json_layout(part: PartModel) -> str:
    doc = {"turntable_axis": part.turntable_axis.tolist(),
           "turntable_center": part.turntable_center.tolist(),
           "holes": [{"origin": origin, "x_axis": x_axis, "y_axis": y_axis, "z_axis": z_axis}
                     for origin, (x_axis, y_axis, z_axis)
                     in zip(part.origins.tolist(), part.frames.transpose(0, 2, 1).tolist())]}
    return json.dumps(doc, indent=2) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ORIGIN = st.floats(-2.0**500, 2.0**500, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(origins=st.lists(st.tuples(_ORIGIN, _ORIGIN, _ORIGIN), max_size=4),
       center=st.tuples(_FINITE, _FINITE, _FINITE), roll=st.sampled_from([0, 1, 2]),
       zero=st.sampled_from([0.0, -0.0]),
       axis=st.sampled_from([(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (0.6, 0.0, 0.8)]))
def test_layout_writer_matches_json_dump(tmp_path_factory, origins, center, roll, zero, axis):
    """Any origins a part holds (below 2**500) and any finite centre, -0.0 and subnormals
    included, print as json.dump would."""
    frame = np.roll(np.eye(3), roll, axis=1)  # a cyclic permutation of the axes: right-handed
    frames = np.broadcast_to(np.where(frame == 0.0, zero, frame), (len(origins), 3, 3))
    part = PartModel(origins=np.array(origins, dtype=float).reshape(-1, 3), frames=frames,
                     turntable_axis=axis, turntable_center=center)
    path = tmp_path_factory.mktemp("layout") / "layout.json"
    save_part_layout(part, path)
    assert path.read_text(encoding="utf-8") == _json_layout(part)


def test_layout_round_trip(tmp_path):
    part = hemisphere_layout(12, 0.15, seed=3)
    path = tmp_path / "layout.json"
    save_part_layout(part, path)
    loaded = load_part_layout(path)
    assert len(loaded.origins) == 12
    assert np.array_equal(part.origins, loaded.origins)
    assert np.array_equal(part.frames[:, :, 1], loaded.frames[:, :, 1])
    assert np.array_equal(part.turntable_axis, loaded.turntable_axis)


def test_layout_writer_reproduces_bundled_file(bundled_layout_path, tmp_path):
    path = tmp_path / "layout.json"
    save_part_layout(load_part_layout(bundled_layout_path), path)
    with open(bundled_layout_path, "rb") as fh:
        assert path.read_bytes() == fh.read()


@pytest.mark.parametrize("field,edit", [
    ("y_axis", lambda hole: [2.0, 0.0, 0.0]),
    ("origin", lambda hole: [0.1, 0.2]),
    ("origin", lambda hole: 0.1),
    ("z_axis", lambda hole: hole["z_axis"] + [0.0]),
    ("x_axis", lambda hole: "north"),
    ("origin", lambda hole: [math.nan, 0.0, 0.1]),
    ("y_axis", lambda hole: hole["x_axis"]),
    ("z_axis", lambda hole: [-v for v in hole["z_axis"]]),
    ("origin", lambda hole: ["0.1", "0", "0"]),
    ("origin", lambda hole: [True, 0, 0.1]),
    ("turntable_center", lambda doc: ["0", "0", "0"]),
    ("turntable_axis", lambda doc: [False, False, True]),
], ids=["non-unit-y_axis", "2-element-origin", "scalar-origin", "4-element-z_axis",
        "string-x_axis", "nan-origin", "non-orthogonal", "left-handed",
        "numeric-string-origin", "boolean-origin", "numeric-string-turntable_center",
        "boolean-turntable_axis"])
def test_layout_loader_rejects_invalid_frames(tmp_path, capsys, field, edit):
    part = hemisphere_layout(3, 0.15, seed=3)
    path = tmp_path / "layout.json"
    save_part_layout(part, path)
    doc = json.loads(path.read_text())
    owner = doc if field.startswith("turntable_") else doc["holes"][1]
    owner[field] = edit(owner)
    path.write_text(json.dumps(doc))
    code = main(["plan", str(path), "--out", str(tmp_path / "plan.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(path) in err and field in err
    assert owner is doc or "hole 1" in err


def test_layout_loader_rejects_missing_fields(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({"holes": []}))
    with pytest.raises(ValueError):
        load_part_layout(path)


@pytest.mark.parametrize("edits, message", [
    ([(0, "x_axis", "north"), (5, "origin", [True, 0, 0])],
     ": origin of hole 5 must be a 3-vector of numbers, got [True, 0, 0]"),
    ([(1, "origin", ["0.1", 0, 0]), (3, "origin")], " is missing field 'origin'"),
    ([(2, "z_axis"), (4, "origin", [1, 2])],
     ": origin of hole 4 must be a 3-vector, got shape (2,)"),
    ([(1, "y_axis", [10**400, 0, 0])],
     f": y_axis of hole 1 must be a 3-vector of numbers, got [{10**400}, 0, 0]"),
    ([(2, "origin", {"a": 1.0, "b": 2.0, "c": 3.0})],
     ": origin of hole 2 must be a 3-vector of numbers, got {'a': 1.0, 'b': 2.0, 'c': 3.0}"),
    ([(0, "origin", [[0.1], [0.2], [0.3]])],
     ": origin of hole 0 must be a 3-vector, got shape (3, 1)"),
    ([(5, "z_axis", [None, 0, 1])], ": z_axis of hole 5 must be finite"),
    ([(3, "x_axis", 1.0), (4, "origin", "abc")],
     ": origin of hole 4 must be a 3-vector of numbers, got 'abc'"),
    # once the flat conversion has failed, a non-finite number is as malformed
    # as any other entry, so it is named before a fault in a later field
    ([(0, "origin", [math.inf, 0.0, 0.0]), (1, "x_axis", "north")],
     ": origin of hole 0 must be finite"),
], ids=["boolean-after-string", "missing-after-numeric-string", "short-after-missing",
        "int-beyond-float", "object", "nested", "null", "string-after-scalar",
        "infinity-before-string"])
def test_layout_loader_names_the_first_malformed_entry(tmp_path, edits, message):
    # fields in origin, x_axis, y_axis, z_axis order, each over every hole; a
    # missing field is named before any entry of that field is checked. An
    # edit with no value deletes the field.
    path = tmp_path / "layout.json"
    save_part_layout(hemisphere_layout(6, 0.15, 3), path)
    doc = json.loads(path.read_text())
    for index, field, *value in edits:
        hole = doc["holes"][index]
        if value:
            hole[field], = value
        else:
            del hole[field]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_part_layout(path)
    assert str(exc.value) == f"layout file {path}{message}"


def test_integer_coordinates_take_the_flat_conversion(monkeypatch):
    holes = [{"origin": [i, -2 * i, 3], "x_axis": [1, 0, 0], "y_axis": [0, 1, 0],
              "z_axis": [0, 0, 1]} for i in range(4)]
    floats = [{name: [float(c) for c in row] for name, row in hole.items()} for hole in holes]

    def diagnosed(value, name):
        raise AssertionError(f"{name} of a valid layout reached the diagnosis")

    monkeypatch.setattr("turnplan.geometry._as_vector3", diagnosed)
    vectors = _hole_array(holes)
    assert vectors.dtype == float and vectors.shape == (4, 4, 3)
    assert np.array_equal(vectors, _hole_array(floats))
