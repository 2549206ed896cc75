"""Deterministic 2D manipulation world on a [0,1]^2 table.

Scene state separates task-relevant geometry (gripper, objects, goals)
from task-irrelevant factors (light patch, texture, distractors). Under
the training distribution the light patch is placed next to the target
object, so light position carries information about the target; every
shift variant breaks that tie by sampling the irrelevant factors
independently.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .masking import ObjectMask
from .raster import Observation, cell_centers, disk_mask
from .seeding import substream

RASTER_SIZE = 32
STEP_MAX = 0.08
GRASP_RADIUS = 0.12
GRIPPER_RADIUS = 0.04
GRIPPER_INTENSITY = 1.0

LIGHT_SIGMA = 0.08
LIGHT_GAIN = 0.8
BASE_BRIGHTNESS = 0.1
COLOCATION_RADIUS = 0.10

# Placement ranges for task-relevant geometry; the spatial shift widens
# them to produce layouts outside the training range.
TRAIN_RANGE = (0.18, 0.82)
SPATIAL_RANGE = (0.06, 0.94)
MIN_SEPARATION = 0.16
PLACEMENT_ATTEMPTS = 1000

# Object class intensities live on this palette; labels map to slots via
# a stable checksum so policies can recognize classes without scene
# access. The gripper uses the reserved value 1.0.
INTENSITY_PALETTE = (0.30, 0.38, 0.46, 0.54, 0.62, 0.70, 0.78, 0.86)


def class_intensity(label: str) -> float:
    return INTENSITY_PALETTE[zlib.crc32(label.encode("utf-8")) % len(INTENSITY_PALETTE)]


@dataclass(frozen=True)
class Instruction:
    text: str
    target_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("instruction text must be non-empty")
        if len(self.target_labels) < 1:
            raise ValueError("instruction needs at least one target label")
        object.__setattr__(self, "target_labels", tuple(self.target_labels))


@dataclass(frozen=True)
class SceneObject:
    label: str
    x: float
    y: float
    radius: float
    intensity: float


@dataclass(frozen=True)
class SpuriousFactors:
    """Task-irrelevant scene state: light, texture, clutter."""

    light_x: float
    light_y: float
    light_intensity: float = LIGHT_GAIN
    brightness_offset: float = 0.0
    texture_id: int = 0
    distractors: tuple[SceneObject, ...] = ()


@dataclass(frozen=True)
class Scene:
    gripper_x: float
    gripper_y: float
    grip_closed: bool
    objects: tuple[SceneObject, ...]
    held_index: int | None
    spurious: SpuriousFactors
    step: int = 0

    @property
    def held_label(self) -> str | None:
        return None if self.held_index is None else self.objects[self.held_index].label


@dataclass(frozen=True)
class TaskSpec:
    kind: str  # reach | pick_place | move_near | stack
    instruction: Instruction
    goal: tuple[float, float] | str | None
    success_radius: float
    max_steps: int

    def __post_init__(self) -> None:
        if self.kind not in TASK_TEMPLATES:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not (self.success_radius > 0.0):
            raise ValueError("success_radius must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class ShiftSpec:
    """Evaluation-time changes to task-irrelevant factors.

    Any variant other than "none" samples the light patch independently
    of the target; the named variants additionally apply their own
    perturbation.
    """

    kind: str = "none"  # none | spatial | brightness | distractors | texture
    brightness_offset: float = 0.15
    distractor_count: int = 3
    distractor_label: str = "clutter"
    texture_id: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("none", "spatial", "brightness", "distractors", "texture"):
            raise ValueError(f"unknown shift variant {self.kind!r}")
        if abs(self.brightness_offset) > 0.5:
            raise ValueError("brightness offset must keep channels clampable to [0,1]")
        if self.distractor_count < 0:
            raise ValueError("distractor_count must be >= 0")
        if not (0 <= self.texture_id <= 3):
            raise ValueError("texture_id must be one of 0..3")


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    success_now: bool
    terminated: bool
    step: int


# Task templates: object blueprints (label, radius), instruction, goal
# reference, success radius, step budget.
TASK_TEMPLATES: dict[str, dict] = {
    "reach": {
        "objects": (("red_block", 0.07),),
        "instruction": Instruction("reach the red block", ("red_block",)),
        "goal": None,
        "success_radius": 0.12,
        "max_steps": 40,
    },
    "pick_place": {
        "objects": (("red_block", 0.07), ("goal_marker", 0.06)),
        "instruction": Instruction("put the red block on the goal marker", ("red_block",)),
        "goal": "goal_marker",
        "success_radius": 0.10,
        "max_steps": 80,
    },
    "move_near": {
        "objects": (("red_block", 0.07), ("blue_block", 0.07)),
        "instruction": Instruction(
            "move the red block near the blue block", ("red_block", "blue_block")
        ),
        "goal": "blue_block",
        "success_radius": 0.12,
        "max_steps": 80,
    },
    "stack": {
        "objects": (("green_block", 0.07), ("yellow_block", 0.07)),
        "instruction": Instruction(
            "stack the green block on the yellow block", ("green_block", "yellow_block")
        ),
        "goal": "yellow_block",
        "success_radius": 0.06,
        "max_steps": 120,
    },
}

TASK_KINDS = tuple(TASK_TEMPLATES)


def make_task(kind: str, max_steps: int | None = None) -> TaskSpec:
    try:
        tpl = TASK_TEMPLATES[kind]
    except KeyError:
        raise ValueError(f"unknown task kind {kind!r}") from None
    return TaskSpec(
        kind=kind,
        instruction=tpl["instruction"],
        goal=tpl["goal"],
        success_radius=tpl["success_radius"],
        max_steps=tpl["max_steps"] if max_steps is None else max_steps,
    )


def texture_pattern(texture_id: int, width: int, height: int) -> np.ndarray:
    ii, jj = np.mgrid[0:height, 0:width]
    if texture_id == 0:
        return np.full((height, width), 0.2)
    if texture_id == 1:
        return 0.15 + 0.2 * ((ii + jj) % 2)
    if texture_id == 2:
        return 0.1 + 0.4 * (jj + 0.5) / width
    if texture_id == 3:
        return 0.1 + 0.3 * (((ii + jj) // 3) % 2)
    raise ValueError(f"unknown texture id {texture_id}")


@functools.lru_cache(maxsize=8)
def _factor_planes(spurious: SpuriousFactors, width: int, height: int) -> np.ndarray:
    """The light and texture planes, clipped to [0, 1], as one (2, H, W) array.

    They depend only on the spurious factors, which stay fixed for an
    episode, so they are built once per factors and size. The cached array
    is shared and read-only.
    """
    xg, yg = cell_centers(width, height)
    sq_dist = (xg - spurious.light_x) ** 2 + (yg - spurious.light_y) ** 2
    plane_light = (
        BASE_BRIGHTNESS
        + spurious.brightness_offset
        + spurious.light_intensity * np.exp(-sq_dist / (2.0 * LIGHT_SIGMA**2))
    )
    plane_tex = texture_pattern(spurious.texture_id, width, height)
    planes = np.stack([np.clip(plane_light, 0.0, 1.0), np.clip(plane_tex, 0.0, 1.0)])
    planes.setflags(write=False)
    return planes


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


class World:
    """Binds a task and a shift; all episode state lives in Scene values.

    stop_on_success selects completion semantics (terminate at the first
    success). With it off, episodes run to the step budget so success at
    the final step can be evaluated.
    """

    def __init__(
        self,
        task: TaskSpec,
        shift: ShiftSpec | None = None,
        size: int = RASTER_SIZE,
        stop_on_success: bool = True,
    ) -> None:
        self.task = task
        self.shift = shift if shift is not None else ShiftSpec()
        self.size = size
        self.stop_on_success = stop_on_success
        labels = [obj[0] for obj in TASK_TEMPLATES[task.kind]["objects"]]
        self._target_index = labels.index(task.instruction.target_labels[0])
        if isinstance(task.goal, str):
            if task.goal not in labels:
                raise ValueError(f"goal label {task.goal!r} not in scene template")
            self._goal_index: int | None = labels.index(task.goal)
        else:
            self._goal_index = None

    # -- episode construction -------------------------------------------

    def reset(self, seed: int) -> tuple[Scene, Observation]:
        rng_task = substream(seed, "reset")
        rng_factors = substream(seed, "reset_factors")
        lo, hi = SPATIAL_RANGE if self.shift.kind == "spatial" else TRAIN_RANGE
        blueprints = TASK_TEMPLATES[self.task.kind]["objects"]

        placed = None
        for _ in range(PLACEMENT_ATTEMPTS):
            points = rng_task.uniform(lo, hi, size=(1 + len(blueprints), 2))
            gx, gy = points[0]
            ok = True
            for a in range(1, len(points)):
                # keep the target outside the success region at reset and
                # objects clear of each other and the gripper
                min_from_gripper = (
                    self.task.success_radius + 0.06 if a - 1 == self._target_index else 0.1
                )
                if _dist(points[a][0], points[a][1], gx, gy) < min_from_gripper:
                    ok = False
                    break
                for b in range(1, a):
                    if _dist(*points[a], *points[b]) < MIN_SEPARATION:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                placed = points
                break
        if placed is None:
            raise RuntimeError(f"no valid placement after {PLACEMENT_ATTEMPTS} attempts")

        objects = tuple(
            SceneObject(label, float(px), float(py), radius, class_intensity(label))
            for (label, radius), (px, py) in zip(blueprints, placed[1:])
        )
        scene = Scene(
            gripper_x=float(placed[0][0]),
            gripper_y=float(placed[0][1]),
            grip_closed=False,
            objects=objects,
            held_index=None,
            spurious=self._sample_factors(rng_factors, objects),
            step=0,
        )
        return scene, self.render(scene)

    def _sample_factors(
        self, rng: np.random.Generator, objects: tuple[SceneObject, ...]
    ) -> SpuriousFactors:
        target = objects[self._target_index]
        if self.shift.kind == "none":
            # training correlation: light rides with the target
            r = COLOCATION_RADIUS * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            lx = min(max(target.x + r * math.cos(theta), 0.02), 0.98)
            ly = min(max(target.y + r * math.sin(theta), 0.02), 0.98)
        else:
            lx, ly = rng.uniform(0.1, 0.9, size=2)

        brightness = self.shift.brightness_offset if self.shift.kind == "brightness" else 0.0
        texture = self.shift.texture_id if self.shift.kind == "texture" else 0

        distractors: list[SceneObject] = []
        if self.shift.kind == "distractors":
            intensity = class_intensity(self.shift.distractor_label)
            for _ in range(self.shift.distractor_count):
                for _ in range(PLACEMENT_ATTEMPTS):
                    dx_pos, dy_pos = rng.uniform(0.1, 0.9, size=2)
                    if all(
                        _dist(dx_pos, dy_pos, o.x, o.y) >= 0.12 for o in objects
                    ):
                        distractors.append(
                            SceneObject(
                                self.shift.distractor_label, dx_pos, dy_pos, 0.05, intensity
                            )
                        )
                        break
                else:
                    raise RuntimeError(
                        f"no valid distractor placement after {PLACEMENT_ATTEMPTS} attempts"
                    )
        return SpuriousFactors(
            light_x=float(lx),
            light_y=float(ly),
            brightness_offset=brightness,
            texture_id=texture,
            distractors=tuple(distractors),
        )

    # -- dynamics ---------------------------------------------------------

    def step(self, scene: Scene, action: np.ndarray) -> tuple[Scene, StepResult]:
        act = np.asarray(action, dtype=np.float64).ravel()
        if act.shape != (3,):
            raise ValueError(f"expected a 3-dimensional action, got shape {act.shape}")
        if not np.all(np.isfinite(act)):
            raise ValueError("action must be finite")
        if scene.step >= self.task.max_steps or (
            self.stop_on_success and self.success(scene)
        ):
            raise RuntimeError("acting after termination")

        gx = min(max(scene.gripper_x + float(np.clip(act[0], -STEP_MAX, STEP_MAX)), 0.0), 1.0)
        gy = min(max(scene.gripper_y + float(np.clip(act[1], -STEP_MAX, STEP_MAX)), 0.0), 1.0)
        close_cmd = act[2] >= 0.5

        held = scene.held_index
        if close_cmd and held is None:
            best, best_d = None, GRASP_RADIUS
            for idx, obj in enumerate(scene.objects):
                d = _dist(gx, gy, obj.x, obj.y)
                if d <= best_d:
                    best, best_d = idx, d
            held = best
        elif not close_cmd:
            held = None

        objects = scene.objects
        if held is not None:
            carried = replace(objects[held], x=gx, y=gy)
            objects = objects[:held] + (carried,) + objects[held + 1 :]

        new_scene = Scene(
            gripper_x=gx,
            gripper_y=gy,
            grip_closed=close_cmd,
            objects=objects,
            held_index=held,
            spurious=scene.spurious,
            step=scene.step + 1,
        )
        success_now = self.success(new_scene)
        terminated = (self.stop_on_success and success_now) or (
            new_scene.step >= self.task.max_steps
        )
        return new_scene, StepResult(
            observation=self.render(new_scene),
            success_now=success_now,
            terminated=terminated,
            step=new_scene.step,
        )

    def success(self, scene: Scene) -> bool:
        target = scene.objects[self._target_index]
        delta = self.task.success_radius
        if self.task.kind == "reach":
            return _dist(scene.gripper_x, scene.gripper_y, target.x, target.y) <= delta
        if self._goal_index is not None:
            goal = scene.objects[self._goal_index]
            gx, gy = goal.x, goal.y
        else:
            gx, gy = self.task.goal  # type: ignore[misc]
        near = _dist(target.x, target.y, gx, gy) <= delta
        if self.task.kind == "stack":
            return near and scene.held_index != self._target_index
        return near

    # -- observation ------------------------------------------------------

    def render(self, scene: Scene) -> Observation:
        w = h = self.size
        plane_obj = np.zeros((h, w))
        for obj in scene.objects + scene.spurious.distractors:
            footprint = disk_mask(w, h, obj.x, obj.y, obj.radius)
            np.maximum(plane_obj, np.where(footprint, obj.intensity, 0.0), out=plane_obj)
        grip = disk_mask(w, h, scene.gripper_x, scene.gripper_y, GRIPPER_RADIUS)
        np.maximum(plane_obj, np.where(grip, GRIPPER_INTENSITY, 0.0), out=plane_obj)

        planes = np.concatenate([plane_obj[None], _factor_planes(scene.spurious, w, h)])
        return Observation(planes, step_index=scene.step)

    def ground_truth_mask(self, scene: Scene, label: str) -> ObjectMask:
        w = h = self.size
        bitmap = np.zeros((h, w), dtype=bool)
        found = False
        for obj in scene.objects + scene.spurious.distractors:
            if obj.label == label:
                bitmap |= disk_mask(w, h, obj.x, obj.y, obj.radius)
                found = True
        if not found:
            raise ValueError(f"unknown label {label!r}")
        return ObjectMask(bitmap, label)
