import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from turnplan.cli import main
from turnplan.geometry import (PartModel, Waypoints, _table_angles, generate_waypoints,
                               hemisphere_layout, load_part_layout, save_part_layout)

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
    """One point's table angle, through the batch routine every caller uses."""
    return _table_angles(np.array([position], dtype=float), part)[0][0]


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


@pytest.mark.parametrize("positions, angles", [
    ([[0.0, 0.0, 0.0]], 0.5),
    (np.empty((0, 3)), []),
    (np.zeros((2, 2)), [0.0, 1.0]),
    (np.zeros((3, 3)), [0.0, 1.0]),
], ids=["scalar-angles", "empty", "2d-positions", "count-mismatch"])
def test_waypoints_bundle_rejects_bad_shapes(positions, angles):
    with pytest.raises(ValueError, match=r"^need \(N, 3\) positions"):
        Waypoints(positions=positions, table_angles=angles)


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
