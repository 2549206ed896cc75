"""Annotation, tracking, and inpainting tests.

Small hand-built rasters pin the per-cell behaviour; world-backed cases
check the pipeline against simulator ground truth, including the tracked
IoU bound over full scripted episodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcd.masking import (
    OBJECT_MASS_EPS,
    BackgroundMeanFill,
    BoxPrompt,
    ConstantFill,
    DetectorPrompt,
    NeighborDiffusionFill,
    ObjectMask,
    PointPrompt,
    TrackerState,
    annotate_initial,
    inpaint,
    _shift_bitmap,
    track,
)
from pcd.policies import ScriptedExpert
from pcd.raster import Observation
from pcd.world import World, make_task

import reference_impl as frozen

EXACT_TOL = 1e-9
TRACK_IOU_MIN = 0.9
TRACK_EPISODES = 100


def toy_observation(size: int = 8) -> Observation:
    """One 2x2 object block at rows 1-2, cols 1-2, flat background."""
    planes = np.zeros((3, size, size))
    planes[0, 1:3, 1:3] = 0.5
    planes[1, :, :] = 0.2
    planes[2, :, :] = 0.35
    return Observation(planes)


def block_mask(size: int = 8) -> np.ndarray:
    bitmap = np.zeros((size, size), dtype=bool)
    bitmap[1:3, 1:3] = True
    return bitmap


def reach_scene(seed: int = 5):
    world = World(make_task("reach"))
    scene, obs = world.reset(seed)
    return world, scene, obs


def iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


# ----------------------------------------------------------- annotation


def test_point_prompt_flood_fills_component() -> None:
    obs = toy_observation()
    mask, state = annotate_initial(obs, PointPrompt(x=1, y=2))
    assert np.array_equal(mask.bitmap, block_mask())
    assert state.mode == "exact"


def test_point_prompt_on_background_is_empty() -> None:
    mask, _ = annotate_initial(toy_observation(), PointPrompt(x=6, y=6))
    assert mask.cell_count == 0


def test_point_prompt_bounds_checked() -> None:
    with pytest.raises(ValueError, match="outside"):
        annotate_initial(toy_observation(), PointPrompt(x=8, y=0))


def test_box_prompt_takes_mass_inside_box_only() -> None:
    obs = toy_observation()
    mask, _ = annotate_initial(obs, BoxPrompt(0, 0, 2, 2))
    expect = np.zeros((8, 8), dtype=bool)
    expect[1, 1] = True  # the only object cell inside [0,2)x[0,2)
    assert np.array_equal(mask.bitmap, expect)
    full, _ = annotate_initial(obs, BoxPrompt(0, 0, 8, 8))
    assert np.array_equal(full.bitmap, block_mask())


def test_box_prompt_validation() -> None:
    with pytest.raises(ValueError, match="extent"):
        BoxPrompt(3, 3, 3, 5)
    with pytest.raises(ValueError, match="bounds"):
        annotate_initial(toy_observation(), BoxPrompt(0, 0, 9, 2))


def test_detector_prompt_clean_is_ground_truth() -> None:
    world, scene, obs = reach_scene()
    truth = lambda label: world.ground_truth_mask(scene, label).bitmap
    mask, _ = annotate_initial(obs, DetectorPrompt("red_block"), truth=truth)
    assert np.array_equal(mask.bitmap, truth("red_block"))
    assert mask.object_id == "red_block"


def test_detector_prompt_always_misses_at_prob_one() -> None:
    world, scene, obs = reach_scene()
    truth = lambda label: world.ground_truth_mask(scene, label).bitmap
    for seed in range(20):
        mask, _ = annotate_initial(
            obs,
            DetectorPrompt("red_block", miss_prob=1.0),
            truth=truth,
            rng=np.random.default_rng(seed),
        )
        assert mask.cell_count == 0


def test_detector_jitter_is_seeded_and_bounded() -> None:
    world, scene, obs = reach_scene()
    truth = lambda label: world.ground_truth_mask(scene, label).bitmap
    prompt = DetectorPrompt("red_block", jitter=2)
    a, _ = annotate_initial(obs, prompt, truth=truth, rng=np.random.default_rng(9))
    b, _ = annotate_initial(obs, prompt, truth=truth, rng=np.random.default_rng(9))
    assert np.array_equal(a.bitmap, b.bitmap)
    # jittered masks stay near the truth: translation plus dilation by at
    # most 2 cells keeps the centroid within a few cells
    seeds_differing = sum(
        not np.array_equal(
            annotate_initial(obs, prompt, truth=truth, rng=np.random.default_rng(s))[0].bitmap,
            truth("red_block"),
        )
        for s in range(10)
    )
    assert seeds_differing > 0


def shifted_cell_by_cell(bitmap: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Each set cell moved by (dx, dy), or dropped when it leaves the raster."""
    h, w = bitmap.shape
    out = np.zeros_like(bitmap)
    for y, x in zip(*np.nonzero(bitmap)):
        if 0 <= y + dy < h and 0 <= x + dx < w:
            out[y + dy, x + dx] = True
    return out


@pytest.mark.parametrize("h, w", [(32, 32), (5, 7)])
def test_shift_bitmap_matches_a_cell_by_cell_shift(h: int, w: int) -> None:
    # shifts of w < |shift| < 2w used to raise "could not broadcast"
    bitmap = np.random.default_rng(h * w).random((h, w)) < 0.4
    sizes = {k * s for n in (h, w) for k in (1, -1) for s in (n - 1, n, n + 1, 2 * n - 1, 2 * n)}
    for dx in sorted(sizes | {0, 1, -2}):
        for dy in sorted(sizes | {0, -1, 2}):
            got = _shift_bitmap(bitmap, dx, dy)
            assert got.shape == bitmap.shape and got.dtype == bitmap.dtype
            assert np.array_equal(got, shifted_cell_by_cell(bitmap, dx, dy)), (dx, dy)


def test_detector_jitter_beyond_the_raster_width_runs() -> None:
    world, scene, obs = reach_scene()
    truth = lambda label: world.ground_truth_mask(scene, label).bitmap
    prompt = DetectorPrompt("red_block", jitter=40)
    for s in range(60):
        mask, _ = annotate_initial(obs, prompt, truth=truth, rng=np.random.default_rng(s))
        assert mask.bitmap.shape == (obs.height, obs.width)


def test_detector_requires_truth_and_rng() -> None:
    obs = toy_observation()
    with pytest.raises(ValueError, match="truth"):
        annotate_initial(obs, DetectorPrompt("red_block"))
    with pytest.raises(ValueError, match="rng"):
        annotate_initial(
            obs, DetectorPrompt("red_block", miss_prob=0.5), truth=lambda _: block_mask()
        )


def test_detector_prompt_field_validation() -> None:
    with pytest.raises(ValueError, match="miss_prob"):
        DetectorPrompt("x", miss_prob=1.5)
    with pytest.raises(ValueError, match="jitter"):
        DetectorPrompt("x", jitter=-1)


# ------------------------------------------------------------- tracking


def test_exact_tracking_follows_ground_truth() -> None:
    world, scene, obs = reach_scene()
    truth = lambda label: world.ground_truth_mask(scene, label).bitmap
    mask0, state = annotate_initial(obs, DetectorPrompt("red_block"), truth=truth, tracker="exact")
    # static scene: tracked mask equals the initial one
    again = track(state, obs, truth=truth)
    assert np.array_equal(again.bitmap, mask0.bitmap)
    with pytest.raises(ValueError, match="ground-truth"):
        track(state, obs)


def test_nearest_tracking_follows_small_translation() -> None:
    obs = toy_observation()
    mask, state = annotate_initial(obs, PointPrompt(x=1, y=1), tracker="nearest")
    planes = np.array(obs.planes)
    planes[0] = np.roll(planes[0], shift=2, axis=1)  # block moves 2 cells right
    moved = Observation(planes)
    tracked = track(state, moved)
    expect = np.roll(block_mask(), shift=2, axis=1)
    assert np.array_equal(tracked.bitmap, expect)
    assert np.array_equal(state.last_mask.bitmap, expect)


def test_nearest_tracking_occlusion_keeps_previous_mask() -> None:
    obs = toy_observation()
    mask, state = annotate_initial(obs, PointPrompt(x=1, y=1), tracker="nearest")
    empty = Observation(np.zeros((3, 8, 8)))
    tracked = track(state, empty)
    assert np.array_equal(tracked.bitmap, mask.bitmap)


def test_nearest_tracking_ignores_distant_blob() -> None:
    obs = toy_observation()
    _, state = annotate_initial(obs, PointPrompt(x=1, y=1), tracker="nearest")
    planes = np.zeros((3, 8, 8))
    planes[0, 6:8, 6:8] = 0.5  # > 6 cells from the previous centroid
    far = Observation(planes)
    tracked = track(state, far)
    assert np.array_equal(tracked.bitmap, block_mask())


def test_nearest_tracking_empty_mask_stays_empty() -> None:
    obs = toy_observation()
    _, state = annotate_initial(obs, PointPrompt(x=6, y=6), tracker="nearest")
    tracked = track(state, obs)
    assert tracked.cell_count == 0


def test_nearest_tracking_iou_against_truth_over_episodes() -> None:
    """Centroid matching keeps the target mask near ground truth all episode."""
    task = make_task("reach")
    total_iou = 0.0
    total_steps = 0
    for episode_seed in range(TRACK_EPISODES):
        world = World(task)
        scene, obs = world.reset(episode_seed)
        expert = ScriptedExpert(task)
        truth = lambda label: world.ground_truth_mask(scene, label).bitmap
        mask, state = annotate_initial(
            obs, DetectorPrompt("red_block"), truth=truth, tracker="nearest"
        )
        total_iou += iou(mask.bitmap, truth("red_block"))
        total_steps += 1
        for _ in range(task.max_steps):
            scene, result = world.step(scene, expert.act(scene))
            tracked = track(state, result.observation)
            total_iou += iou(tracked.bitmap, truth("red_block"))
            total_steps += 1
            if result.terminated:
                break
    assert total_iou / total_steps >= TRACK_IOU_MIN


# ------------------------------------------------------------ inpainting


def test_inpaint_never_touches_unmasked_cells() -> None:
    obs = toy_observation()
    mask = ObjectMask(block_mask(), "target")
    for strategy in (ConstantFill(0.0), BackgroundMeanFill(), NeighborDiffusionFill(25)):
        out = inpaint(obs, mask, strategy)
        keep = ~mask.bitmap
        assert np.array_equal(out.planes[:, keep], obs.planes[:, keep])


def test_inpaint_empty_mask_is_identity() -> None:
    obs = toy_observation()
    empty = ObjectMask(np.zeros((8, 8), dtype=bool), "none")
    for strategy in (ConstantFill(0.0), BackgroundMeanFill(), NeighborDiffusionFill(5)):
        out = inpaint(obs, empty, strategy)
        assert out is obs


def test_constant_fill_writes_the_constant() -> None:
    obs = toy_observation()
    mask = ObjectMask(block_mask(), "target")
    out = inpaint(obs, mask, ConstantFill(0.0))
    assert np.all(out.planes[:, mask.bitmap] == 0.0)
    out = inpaint(obs, mask, ConstantFill(0.25))
    assert np.all(out.planes[:, mask.bitmap] == 0.25)


def test_background_mean_fill_uses_per_channel_means() -> None:
    obs = toy_observation()
    mask = ObjectMask(block_mask(), "target")
    out = inpaint(obs, mask, BackgroundMeanFill())
    for c in range(3):
        expect = obs.planes[c][~mask.bitmap].mean()
        assert np.max(np.abs(out.planes[c][mask.bitmap] - expect)) <= EXACT_TOL


def test_background_mean_fill_rejects_all_masked() -> None:
    obs = toy_observation()
    full = ObjectMask(np.ones((8, 8), dtype=bool), "everything")
    with pytest.raises(ValueError, match="no background reference"):
        inpaint(obs, full, BackgroundMeanFill())


def test_uniform_background_is_a_fixed_point() -> None:
    """On flat planes every strategy reproduces the flat value beta."""
    beta = 0.4
    planes = np.full((3, 8, 8), beta)
    planes[0, 1:3, 1:3] = 0.9  # object to be removed sits on the flat field
    obs = Observation(planes)
    mask = ObjectMask(block_mask(), "target")
    for strategy in (ConstantFill(beta), BackgroundMeanFill(), NeighborDiffusionFill(50)):
        out = inpaint(obs, mask, strategy)
        assert np.max(np.abs(out.planes[1][mask.bitmap] - beta)) <= EXACT_TOL
        assert np.max(np.abs(out.planes[2][mask.bitmap] - beta)) <= EXACT_TOL
    # plane 0 background is 0 outside the object, so removal restores 0
    out = inpaint(obs, mask, ConstantFill(0.0))
    assert np.all(out.planes[0][mask.bitmap] == 0.0)


def test_object_removal_drops_target_mass() -> None:
    world, scene, obs = reach_scene()
    mask = world.ground_truth_mask(scene, "red_block")
    background_mean = obs.planes[0][~mask.bitmap].mean()
    out = inpaint(obs, mask, ConstantFill(0.0))
    assert np.all(out.planes[0][mask.bitmap] == 0.0)
    for strategy in (BackgroundMeanFill(), NeighborDiffusionFill(25)):
        out = inpaint(obs, mask, strategy)
        assert np.max(out.planes[0][mask.bitmap]) <= background_mean + EXACT_TOL


def test_diffusion_fill_stays_within_plane_range() -> None:
    obs = toy_observation()
    mask = ObjectMask(block_mask(), "target")
    out = inpaint(obs, mask, NeighborDiffusionFill(3))
    for c in range(3):
        lo = obs.planes[c][~mask.bitmap].min()
        hi = obs.planes[c][~mask.bitmap].max()
        assert out.planes[c][mask.bitmap].min() >= lo - EXACT_TOL
        assert out.planes[c][mask.bitmap].max() <= hi + EXACT_TOL


def test_inpaint_strategy_validation() -> None:
    with pytest.raises(ValueError, match="fill value"):
        ConstantFill(1.5)
    with pytest.raises(ValueError, match="iterations"):
        NeighborDiffusionFill(0)
    obs = toy_observation()
    wrong = ObjectMask(np.zeros((4, 4), dtype=bool), "tiny")
    with pytest.raises(ValueError, match="dimensions"):
        inpaint(obs, wrong, ConstantFill(0.0))


def test_inpaint_output_is_a_trusted_read_only_observation() -> None:
    obs = toy_observation()
    for strategy in (ConstantFill(0.25), BackgroundMeanFill(), NeighborDiffusionFill(5)):
        out = inpaint(obs, ObjectMask(block_mask(), "target"), strategy)
        checked = Observation(out.planes, out.step_index)
        assert np.array_equal(checked.planes, out.planes)
        assert checked.planes.dtype == out.planes.dtype == np.float64
        assert not out.planes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out.planes[0, 0, 0] = 0.5
    planes = np.array(obs.planes)
    trusted = Observation._trusted(planes, 4)
    assert trusted.planes is planes and not planes.flags.writeable
    assert trusted.step_index == 4
    assert np.array_equal(trusted.planes, Observation(planes, 4).planes)


def test_mask_union_and_validation() -> None:
    a = ObjectMask(block_mask(), "a")
    other = np.zeros((8, 8), dtype=bool)
    other[5, 5] = True
    b = ObjectMask(other, "b")
    u = a.union(b)
    assert u.cell_count == a.cell_count + 1
    assert u.object_id == "a+b"
    with pytest.raises(ValueError, match="differ"):
        a.union(ObjectMask(np.zeros((4, 4), dtype=bool), "c"))
    with pytest.raises(ValueError, match="2-D"):
        ObjectMask(np.zeros((2, 2, 2), dtype=bool), "bad")


# ------------------------------------------ inpainting against the frozen copy

STRATEGIES = (
    st.builds(ConstantFill, st.floats(min_value=0.0, max_value=1.0))
    | st.just(BackgroundMeanFill())
    | st.builds(NeighborDiffusionFill, st.sampled_from((1, 25)) | st.integers(1, 40))
)
MASK_KINDS = ("empty", "full", "cell", "edge", "corner", "scattered", "two_blobs")


def random_box(rng: np.random.Generator, h: int, w: int) -> tuple[int, int, int, int]:
    """Rows y0:y1 and columns x0:x1 of a non-empty box."""
    y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
    return y0, int(rng.integers(y0 + 1, h + 1)), x0, int(rng.integers(x0 + 1, w + 1))


def make_mask(kind: str, rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    bitmap = np.zeros((h, w), dtype=bool)
    if kind == "full":
        bitmap[:] = True
    elif kind == "cell":
        bitmap[rng.integers(0, h), rng.integers(0, w)] = True
    elif kind == "edge":  # a box flush with one edge
        y0, y1, x0, x1 = random_box(rng, h, w)
        side = int(rng.integers(0, 4))
        y0, y1 = (0, y1) if side == 0 else (y0, h) if side == 1 else (y0, y1)
        x0, x1 = (0, x1) if side == 2 else (x0, w) if side == 3 else (x0, x1)
        bitmap[y0:y1, x0:x1] = True
    elif kind == "corner":  # a box in the top-left corner, flipped to any corner
        bitmap[: rng.integers(1, h + 1), : rng.integers(1, w + 1)] = True
        bitmap = bitmap[:: rng.choice((1, -1)), :: rng.choice((1, -1))]
    elif kind == "scattered":
        bitmap = rng.random((h, w)) < rng.uniform(0.05, 0.6)
    elif kind == "two_blobs":
        for _ in range(2):
            y0, y1, x0, x1 = random_box(rng, h, w)
            bitmap[y0 : min(y1, y0 + 3), x0 : min(x1, x0 + 3)] = True
    return bitmap


def assert_inpaint_matches_frozen(obs: Observation, bitmap: np.ndarray, strategy) -> None:
    mask = ObjectMask(bitmap, "target")
    if isinstance(strategy, BackgroundMeanFill) and bitmap.all():
        for fill in (inpaint, frozen.inpaint):
            with pytest.raises(ValueError, match="no background reference"):
                fill(obs, mask, strategy)
        return
    out = inpaint(obs, mask, strategy)
    expect = frozen.inpaint(obs, mask, strategy)
    assert np.array_equal(out.planes, expect.planes)
    assert out.step_index == expect.step_index
    if not bitmap.any():
        assert out is obs and expect is obs


@seed(22)
@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(2, 32),
    w=st.integers(2, 32),
    kind=st.sampled_from(MASK_KINDS),
    strategy=STRATEGIES,
    stream=st.integers(0, 2**32 - 1),
)
def test_inpaint_equals_the_frozen_full_raster_copy(h, w, kind, strategy, stream) -> None:
    rng = np.random.default_rng(stream)
    obs = Observation(rng.random((3, h, w)), step_index=int(rng.integers(0, 50)))
    assert_inpaint_matches_frozen(obs, make_mask(kind, rng, h, w), strategy)


@pytest.mark.parametrize("iterations", [1, 25])
def test_diffusion_fill_matches_the_frozen_copy_at_every_edge_and_corner(iterations) -> None:
    rng = np.random.default_rng(23)
    h, w = 7, 11
    obs = Observation(rng.random((3, h, w)))
    edges = [(slice(0, 2), slice(3, 6)), (slice(5, 7), slice(3, 6))]
    edges += [(slice(2, 5), slice(0, 2)), (slice(2, 5), slice(9, 11))]
    corners = [
        (rows, cols) for rows in (slice(0, 2), slice(5, 7)) for cols in (slice(0, 3), slice(8, 11))
    ]
    for rows, cols in edges + corners:
        bitmap = np.zeros((h, w), dtype=bool)
        bitmap[rows, cols] = True
        assert_inpaint_matches_frozen(obs, bitmap, NeighborDiffusionFill(iterations))
    # a world scene with both task objects masked: two disjoint blobs
    world = World(make_task("move_near"))
    scene, obs = world.reset(4)
    union = world.ground_truth_mask(scene, "red_block").union(
        world.ground_truth_mask(scene, "blue_block")
    )
    assert_inpaint_matches_frozen(obs, union.bitmap, NeighborDiffusionFill(iterations))


# --------------------------------------------- tracking against the frozen copy

TRACK_KINDS = ("blobs", "tie", "radius", "empty_previous", "exact")


def blob_plane(rng: np.random.Generator, h: int, w: int, n_blobs: int) -> np.ndarray:
    """Plane 0 with up to n_blobs small boxes of object mass (boxes may
    touch and merge) over a background of mass at or below the threshold."""
    plane = rng.uniform(0.0, OBJECT_MASS_EPS, (h, w)) * (rng.random((h, w)) < 0.3)
    for _ in range(n_blobs):
        y0, y1, x0, x1 = random_box(rng, h, w)
        plane[y0 : min(y1, y0 + 3), x0 : min(x1, x0 + 3)] = rng.uniform(0.1, 1.0)
    return plane


def one_cell(h: int, w: int, i: int, j: int) -> np.ndarray:
    bitmap = np.zeros((h, w), dtype=bool)
    bitmap[i, j] = True
    return bitmap


def track_case(kind: str, rng: np.random.Generator, h: int, w: int, n_blobs: int):
    """(plane 0, previous mask bitmap, tracker mode, truth bitmap) for a kind."""
    plane = blob_plane(rng, h, w, n_blobs)
    i, j = int(rng.integers(0, h)), int(rng.integers(0, w))
    previous = one_cell(h, w, i, j)
    truth = None
    if kind == "blobs":  # the previous mask is a box, a blob of this view, or one cell
        choice = int(rng.integers(0, 3))
        if choice == 0:
            y0, y1, x0, x1 = random_box(rng, h, w)
            previous = np.zeros((h, w), dtype=bool)
            previous[y0:y1, x0:x1] = True
        elif choice == 1 and (plane > OBJECT_MASS_EPS).any():
            previous = plane > OBJECT_MASS_EPS
    elif kind == "tie":  # one-cell blobs at equal offsets from the previous cell
        d = int(rng.integers(1, 8))
        cells = [(i, j - d), (i, j + d), (i - d, j), (i + d, j)]
        for y, x in cells[: int(rng.integers(2, 5))]:
            if 0 <= y < h and 0 <= x < w:
                plane[y, x] = 0.5
    elif kind == "radius":  # one blob 5, 6 or 7 cells away along an axis
        d = int(rng.integers(5, 8))
        y, x = (i, j + d) if rng.random() < 0.5 else (i + d, j)
        if y < h and x < w:
            plane[y, x] = 0.5
    elif kind == "empty_previous":
        previous = np.zeros((h, w), dtype=bool)
    else:
        truth = plane > OBJECT_MASS_EPS
    mode = "exact" if kind == "exact" else "nearest"
    return plane, previous, mode, truth


def assert_track_matches_frozen(
    obs: Observation, previous: np.ndarray, mode: str, truth: np.ndarray | None
) -> None:
    prev_mask = ObjectMask(previous, "target")
    provider = None if truth is None else (lambda label: truth)
    states = [TrackerState("target", prev_mask, mode) for _ in range(2)]
    got = track(states[0], obs, provider)
    expect = frozen.track(states[1], obs, provider)
    assert np.array_equal(got.bitmap, expect.bitmap)
    assert got.object_id == expect.object_id == "target"
    # a fallback hands back the previous mask object itself
    assert (got is prev_mask) == (expect is prev_mask)
    assert states[0].last_mask is got and states[1].last_mask is expect


@seed(37)
@settings(max_examples=400, deadline=None)
@given(
    h=st.integers(2, 40),
    w=st.integers(2, 40),
    kind=st.sampled_from(TRACK_KINDS),
    n_blobs=st.integers(0, 8),
    stream=st.integers(0, 2**32 - 1),
)
def test_track_equals_the_frozen_per_component_copy(h, w, kind, n_blobs, stream) -> None:
    rng = np.random.default_rng(stream)
    plane, previous, mode, truth = track_case(kind, rng, h, w, n_blobs)
    planes = np.stack([plane, rng.random((h, w)), rng.random((h, w))])
    assert_track_matches_frozen(Observation(planes), previous, mode, truth)


def test_track_ties_go_to_the_lowest_label_and_the_radius_edge_holds() -> None:
    h = w = 16
    previous = one_cell(h, w, 8, 8)
    planes = np.zeros((3, h, w))
    planes[0, 8, 5] = planes[0, 8, 11] = planes[0, 5, 8] = 0.5  # all 3 cells away
    state = TrackerState("target", ObjectMask(previous, "target"), "nearest")
    assert np.array_equal(track(state, Observation(planes)).bitmap, one_cell(h, w, 5, 8))
    assert_track_matches_frozen(Observation(planes), previous, "nearest", None)
    for d, kept in ((6, False), (7, True)):
        planes = np.zeros((3, h, w))
        planes[0, 8, 8 - d] = 0.5
        prev_mask = ObjectMask(previous, "target")
        state = TrackerState("target", prev_mask, "nearest")
        assert (track(state, Observation(planes)) is prev_mask) is kept
        assert_track_matches_frozen(Observation(planes), previous, "nearest", None)
