"""World dynamics, rendering, shift generators, and the scripted expert."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcd.masking import ConstantFill, inpaint
from pcd.policies import ScriptedExpert
from pcd.raster import LIGHT_PLANE, OBJECT_PLANE, TEXTURE_PLANE, cell_centers, disk_mask
from pcd.world import (
    COLOCATION_RADIUS,
    GRIPPER_RADIUS,
    STEP_MAX,
    TASK_KINDS,
    Instruction,
    Scene,
    SceneObject,
    ShiftSpec,
    SpuriousFactors,
    TaskSpec,
    World,
    _factor_planes,
    make_task,
    texture_pattern,
)

import reference_impl as frozen

COLOCATION_SEEDS = 300
INDEPENDENCE_SEEDS = 1000
CORRELATION_BOUND = 0.1
EXPERT_SEEDS = 100


def bare_scene(gripper=(0.9, 0.9), objects=(), **spurious_kwargs) -> Scene:
    factors = SpuriousFactors(light_x=0.5, light_y=0.5, **spurious_kwargs)
    return Scene(
        gripper_x=gripper[0],
        gripper_y=gripper[1],
        grip_closed=False,
        objects=tuple(objects),
        held_index=None,
        spurious=factors,
    )


# ---------------------------------------------------------------- reset


def test_reset_is_deterministic() -> None:
    for kind in TASK_KINDS:
        world = World(make_task(kind))
        scene_a, obs_a = world.reset(seed=42)
        scene_b, obs_b = world.reset(seed=42)
        assert scene_a == scene_b
        assert np.array_equal(obs_a.planes, obs_b.planes)
        scene_c, _ = world.reset(seed=43)
        assert scene_c != scene_a


def test_light_rides_with_target_without_shift() -> None:
    for kind in TASK_KINDS:
        world = World(make_task(kind))
        for seed in range(COLOCATION_SEEDS // len(TASK_KINDS)):
            scene, _ = world.reset(seed)
            target = scene.objects[world._target_index]
            d = math.hypot(
                scene.spurious.light_x - target.x, scene.spurious.light_y - target.y
            )
            assert d <= COLOCATION_RADIUS + 1e-12


def test_light_decouples_from_target_under_shift() -> None:
    """Light position and target position decorrelate once shifted."""
    world = World(make_task("reach"), ShiftSpec(kind="brightness"))
    light = np.empty((INDEPENDENCE_SEEDS, 2))
    target = np.empty((INDEPENDENCE_SEEDS, 2))
    for seed in range(INDEPENDENCE_SEEDS):
        scene, _ = world.reset(seed)
        light[seed] = (scene.spurious.light_x, scene.spurious.light_y)
        target[seed] = (scene.objects[0].x, scene.objects[0].y)
    for axis in range(2):
        r = np.corrcoef(light[:, axis], target[:, axis])[0, 1]
        assert abs(r) < CORRELATION_BOUND


def test_shift_factor_application() -> None:
    scene, obs = World(make_task("reach"), ShiftSpec(kind="brightness")).reset(0)
    assert scene.spurious.brightness_offset == 0.15
    scene, _ = World(make_task("reach"), ShiftSpec(kind="texture")).reset(0)
    assert scene.spurious.texture_id == 2
    scene, _ = World(make_task("reach"), ShiftSpec(kind="distractors")).reset(0)
    assert len(scene.spurious.distractors) == 3
    assert all(o.label == "clutter" for o in scene.spurious.distractors)
    scene, _ = World(make_task("reach")).reset(0)
    assert scene.spurious.brightness_offset == 0.0
    assert scene.spurious.texture_id == 0
    assert scene.spurious.distractors == ()


def test_spatial_shift_widens_placement() -> None:
    narrow: list[float] = []
    wide: list[float] = []
    for seed in range(200):
        scene, _ = World(make_task("reach")).reset(seed)
        narrow.extend((scene.objects[0].x, scene.objects[0].y))
        scene, _ = World(make_task("reach"), ShiftSpec(kind="spatial")).reset(seed)
        wide.extend((scene.objects[0].x, scene.objects[0].y))
    assert min(narrow) >= 0.18 and max(narrow) <= 0.82
    assert min(wide) < 0.18 or max(wide) > 0.82  # mass outside the training range


def test_impossible_placement_raises() -> None:
    task = TaskSpec(
        kind="reach",
        instruction=Instruction("reach the red block", ("red_block",)),
        goal=None,
        success_radius=2.0,  # no point in [0,1]^2 is far enough from the gripper
        max_steps=10,
    )
    with pytest.raises(RuntimeError, match="1000 attempts"):
        World(task).reset(0)


def test_reset_keeps_target_outside_success_region() -> None:
    for kind in TASK_KINDS:
        world = World(make_task(kind))
        for seed in range(50):
            scene, _ = world.reset(seed)
            assert not world.success(scene)


# ----------------------------------------------------------------- step


def test_hold_action_only_advances_the_clock() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(1)
    nxt, result = world.step(scene, np.zeros(3))
    assert nxt.step == scene.step + 1
    assert (nxt.gripper_x, nxt.gripper_y) == (scene.gripper_x, scene.gripper_y)
    assert nxt.objects == scene.objects
    assert nxt.held_index is None
    assert result.step == nxt.step


def test_step_clips_motion_and_position() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(1)
    nxt, _ = world.step(scene, np.array([10.0, -10.0, 0.0]))
    assert nxt.gripper_x == pytest.approx(min(scene.gripper_x + STEP_MAX, 1.0))
    assert nxt.gripper_y == pytest.approx(max(scene.gripper_y - STEP_MAX, 0.0))


def test_positions_stay_bounded_under_wild_actions() -> None:
    world = World(make_task("pick_place"), stop_on_success=False)
    scene, _ = world.reset(3)
    rng = np.random.default_rng(0)
    for _ in range(60):
        action = rng.uniform(-5.0, 5.0, size=3)
        scene, result = world.step(scene, action)
        assert 0.0 <= scene.gripper_x <= 1.0 and 0.0 <= scene.gripper_y <= 1.0
        for obj in scene.objects:
            assert 0.0 <= obj.x <= 1.0 and 0.0 <= obj.y <= 1.0
        assert result.terminated == (scene.step >= world.task.max_steps)
        if result.terminated:
            break


def test_grasp_carry_and_release() -> None:
    world = World(make_task("pick_place"), stop_on_success=False)
    scene, _ = world.reset(2)
    target = scene.objects[0]
    # teleport-by-fields: place the gripper straight onto the target
    scene = Scene(
        gripper_x=target.x,
        gripper_y=target.y,
        grip_closed=False,
        objects=scene.objects,
        held_index=None,
        spurious=scene.spurious,
        step=scene.step,
    )
    held, _ = world.step(scene, np.array([0.0, 0.0, 1.0]))
    assert held.held_index == 0
    assert held.grip_closed
    moved, _ = world.step(held, np.array([0.05, 0.0, 1.0]))
    assert moved.objects[0].x == pytest.approx(moved.gripper_x)
    assert moved.objects[0].y == pytest.approx(moved.gripper_y)
    dropped, _ = world.step(moved, np.array([0.0, 0.0, 0.0]))
    assert dropped.held_index is None
    assert dropped.objects[0].x == pytest.approx(moved.objects[0].x)


def test_grasp_requires_proximity() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(4)
    target = scene.objects[0]
    d = math.hypot(scene.gripper_x - target.x, scene.gripper_y - target.y)
    assert d > 0.18  # reset guarantees separation; closing out here grabs nothing
    nxt, _ = world.step(scene, np.array([0.0, 0.0, 1.0]))
    assert nxt.held_index is None
    assert nxt.grip_closed


def test_reach_success_terminates() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(5)
    expert = ScriptedExpert(world.task)
    for _ in range(world.task.max_steps):
        scene, result = world.step(scene, expert.act(scene))
        if result.terminated:
            break
    assert result.success_now
    target = scene.objects[0]
    assert math.hypot(scene.gripper_x - target.x, scene.gripper_y - target.y) <= 0.12
    with pytest.raises(RuntimeError, match="after termination"):
        world.step(scene, np.zeros(3))


def test_terminated_implies_success_or_budget() -> None:
    world = World(make_task("reach"), ShiftSpec(kind="spatial"))
    for seed in range(30):
        scene, _ = world.reset(seed)
        rng = np.random.default_rng(seed)
        while True:
            scene, result = world.step(scene, rng.uniform(-0.08, 0.08, size=3))
            if result.terminated:
                assert result.success_now or result.step == world.task.max_steps
                break


def test_action_validation() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(6)
    with pytest.raises(ValueError, match="3-dimensional"):
        world.step(scene, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        world.step(scene, np.array([0.0, math.nan, 0.0]))


# --------------------------------------------------------------- render


def test_objectless_scene_renders_no_object_mass() -> None:
    world = World(make_task("reach"))
    scene = bare_scene(gripper=(0.9, 0.9))
    obs = world.render(scene)
    grip = disk_mask(world.size, world.size, 0.9, 0.9, GRIPPER_RADIUS)
    assert np.all(obs.planes[OBJECT_PLANE][~grip] == 0.0)
    assert np.all(obs.planes[OBJECT_PLANE][grip] == 1.0)


def test_disjoint_objects_render_additively() -> None:
    world = World(make_task("reach"))
    a = SceneObject("red_block", 0.25, 0.25, 0.07, 0.5)
    b = SceneObject("blue_block", 0.7, 0.7, 0.07, 0.4)
    both = world.render(bare_scene(objects=(a, b))).planes[OBJECT_PLANE]
    only_a = world.render(bare_scene(objects=(a,))).planes[OBJECT_PLANE]
    only_b = world.render(bare_scene(objects=(b,))).planes[OBJECT_PLANE]
    grip = disk_mask(world.size, world.size, 0.9, 0.9, GRIPPER_RADIUS)
    np.testing.assert_array_equal(
        both[~grip], (only_a + only_b)[~grip]
    )


def test_light_plane_peaks_at_patch_and_shifts_brightness() -> None:
    world = World(make_task("reach"))
    scene = bare_scene(brightness_offset=0.15)
    obs = world.render(scene)
    plane = obs.planes[LIGHT_PLANE]
    peak = np.unravel_index(np.argmax(plane), plane.shape)
    px = (peak[1] + 0.5) / world.size
    py = (peak[0] + 0.5) / world.size
    assert math.hypot(px - 0.5, py - 0.5) <= 2.0 / world.size
    base = world.render(bare_scene()).planes[LIGHT_PLANE]
    corner_delta = plane[0, 0] - base[0, 0]  # far from the patch: offset only
    assert corner_delta == pytest.approx(0.15, abs=1e-9)


def test_texture_plane_matches_pattern() -> None:
    world = World(make_task("reach"))
    for texture_id in range(4):
        obs = world.render(bare_scene(texture_id=texture_id))
        expect = np.clip(texture_pattern(texture_id, world.size, world.size), 0.0, 1.0)
        np.testing.assert_array_equal(obs.planes[TEXTURE_PLANE], expect)
    patterns = [texture_pattern(t, 32, 32) for t in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(patterns[i], patterns[j])
    with pytest.raises(ValueError, match="texture"):
        texture_pattern(4, 32, 32)


def test_render_inpaint_composition_removes_target() -> None:
    world = World(make_task("reach"))
    scene, obs = world.reset(9)
    mask = world.ground_truth_mask(scene, "red_block")
    cleaned = inpaint(obs, mask, ConstantFill(0.0))
    assert np.all(cleaned.planes[OBJECT_PLANE][mask.bitmap] == 0.0)


@seed(25)
@settings(max_examples=80, deadline=None)
@given(
    task=st.sampled_from(TASK_KINDS),
    shift=st.sampled_from(("none", "spatial", "brightness", "distractors", "texture")),
    texture_id=st.integers(0, 3),
    brightness=st.floats(min_value=-0.5, max_value=0.5),
    size=st.sampled_from((32, 17)),
    scene_seed=st.integers(0, 10_000),
    moves=st.integers(0, 4),
)
def test_render_equals_the_frozen_per_call_copy(
    task, shift, texture_id, brightness, size, scene_seed, moves
) -> None:
    # the cached light and texture planes give every plane of a fresh build
    spec = ShiftSpec(kind=shift, texture_id=texture_id, brightness_offset=brightness)
    world = World(make_task(task), spec, size=size)
    scene, obs = world.reset(scene_seed)
    rng = np.random.default_rng(scene_seed)
    for step in range(moves + 1):
        expect = frozen.render(world, scene)
        assert obs.step_index == expect.step_index
        for got_plane, expect_plane in zip(obs.planes, expect.planes):
            assert np.array_equal(got_plane, expect_plane)
        if step == moves:
            break
        scene, result = world.step(scene, rng.uniform(-0.1, 1.0, size=3))
        obs = result.observation
        if result.terminated:
            break


def test_factor_planes_are_cached_per_factors_and_read_only() -> None:
    world = World(make_task("reach"), ShiftSpec(kind="texture", texture_id=3))
    scene, _ = world.reset(2)
    planes = _factor_planes(scene.spurious, world.size, world.size)
    assert planes.shape == (2, world.size, world.size)
    # the steps of one episode share the factors, and so the planes
    later, _ = world.step(scene, np.array([0.05, 0.0, 0.0]))
    assert _factor_planes(later.spurious, world.size, world.size) is planes
    with pytest.raises(ValueError, match="read-only"):
        planes[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        planes += 0.0
    # other factors, or another size, get planes of their own
    variants = [
        SpuriousFactors(light_x=0.3, light_y=0.7, texture_id=3),
        SpuriousFactors(light_x=0.3, light_y=0.7, texture_id=1),
        SpuriousFactors(light_x=0.3, light_y=0.7, texture_id=3, brightness_offset=0.1),
        SpuriousFactors(light_x=0.6, light_y=0.7, texture_id=3),
    ]
    built = [_factor_planes(f, world.size, world.size) for f in variants]
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            assert not np.array_equal(built[i], built[j])
    assert _factor_planes(variants[0], 16, 16).shape == (2, 16, 16)
    assert np.array_equal(
        world.render(replace(scene, spurious=variants[0])).planes,
        frozen.render(world, replace(scene, spurious=variants[0])).planes,
    )


# ---------------------------------------------------------- ground truth


def test_cell_centers_are_cached_and_read_only() -> None:
    for w, h in ((32, 32), (5, 3)):
        xs, ys = cell_centers(w, h)
        ex, ey = np.meshgrid((np.arange(w) + 0.5) / w, (np.arange(h) + 0.5) / h)
        assert np.array_equal(xs, ex) and np.array_equal(ys, ey)
        again = cell_centers(w, h)
        assert again[0] is xs and again[1] is ys
        for grid in (xs, ys):
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 9.0
            with pytest.raises(ValueError, match="read-only"):
                grid += 1.0


def test_ground_truth_mask_is_exact_footprint() -> None:
    world = World(make_task("reach"))
    scene, _ = world.reset(10)
    target = scene.objects[0]
    mask = world.ground_truth_mask(scene, "red_block")
    expect = disk_mask(world.size, world.size, target.x, target.y, target.radius)
    assert np.array_equal(mask.bitmap, expect)
    with pytest.raises(ValueError, match="unknown label"):
        world.ground_truth_mask(scene, "purple_block")


def test_ground_truth_mask_area_matches_analytic() -> None:
    # cell count within one perimeter's worth of the analytic disk area
    size = 128
    world = World(make_task("reach"), size=size)
    scene, _ = world.reset(11)
    target = scene.objects[0]
    mask = world.ground_truth_mask(scene, "red_block")
    r_cells = target.radius * size
    area = math.pi * r_cells**2
    perimeter = 2.0 * math.pi * r_cells
    assert abs(mask.cell_count - area) <= perimeter


def test_ground_truth_mask_covers_distractors_by_label() -> None:
    world = World(make_task("reach"), ShiftSpec(kind="distractors"))
    scene, _ = world.reset(12)
    mask = world.ground_truth_mask(scene, "clutter")
    assert mask.cell_count > 0


# --------------------------------------------------------------- expert


def test_expert_completes_pick_place_on_all_seeds() -> None:
    task = make_task("pick_place")
    world = World(task)
    expert = ScriptedExpert(task)
    for seed in range(EXPERT_SEEDS):
        scene, _ = world.reset(seed)
        done = False
        for _ in range(task.max_steps):
            scene, result = world.step(scene, expert.act(scene))
            if result.terminated:
                done = result.success_now
                break
        assert done, f"expert failed pick_place seed {seed}"


@pytest.mark.parametrize("kind", ["reach", "move_near", "stack"])
def test_expert_completes_remaining_tasks(kind: str) -> None:
    task = make_task(kind)
    world = World(task)
    expert = ScriptedExpert(task)
    for seed in range(25):
        scene, _ = world.reset(seed)
        done = False
        for _ in range(task.max_steps):
            scene, result = world.step(scene, expert.act(scene))
            if result.terminated:
                done = result.success_now
                break
        assert done, f"expert failed {kind} seed {seed}"


# ----------------------------------------------------------- validation


def test_spec_validation() -> None:
    with pytest.raises(ValueError, match="unknown task kind"):
        make_task("throw")
    with pytest.raises(ValueError, match="success_radius"):
        TaskSpec("reach", Instruction("reach", ("red_block",)), None, 0.0, 10)
    with pytest.raises(ValueError, match="max_steps"):
        TaskSpec("reach", Instruction("reach", ("red_block",)), None, 0.1, 0)
    with pytest.raises(ValueError, match="shift variant"):
        ShiftSpec(kind="fog")
    with pytest.raises(ValueError, match="clampable"):
        ShiftSpec(kind="brightness", brightness_offset=0.6)
    with pytest.raises(ValueError, match="texture_id"):
        ShiftSpec(texture_id=7)
    with pytest.raises(ValueError, match="distractor_count"):
        ShiftSpec(distractor_count=-1)
    with pytest.raises(ValueError, match="target label"):
        Instruction("do it", ())
