"""Frozen scalar references for the package's batched fast paths.

Each function here is the plain, one-chain, one-column, full-raster,
one-dimension-at-a-time or one-episode-at-a-time version of a path that
`pcd` now runs batched, windowed, once per view or in lockstep. They
are kept unchanged so that the property tests can require the fast paths
to give the very same bits, even after the plain versions leave `src/`.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable

import numpy as np
from scipy import ndimage

from pcd.config import PcdRunConfig
from pcd.dists import (
    BANDWIDTH_FLOOR,
    BinGrid,
    CategoricalDist,
    DecodeConfig,
    KdeConfig,
    contrastive_combine,
    gaussian_kernel,
    select_index,
)
from pcd.harness import EpisodeRecord, Observer, StepLog, _MaskPipeline
from pcd.masking import (
    MATCH_RADIUS_CELLS,
    OBJECT_MASS_EPS,
    BackgroundMeanFill,
    ConstantFill,
    InpaintStrategy,
    NeighborDiffusionFill,
    ObjectMask,
    TrackerState,
    TruthProvider,
)
from pcd.policies import (
    DiffusionSchedule,
    GaussianMixture,
    MixtureDiffusionPolicy,
    PrefixContext,
    ScriptedExpert,
    SpuriousMixturePolicy,
    _aim,
    _gaussian_categorical,
    _sigmoid,
    find_class_blob,
    find_gripper,
    find_light_peak,
)
from pcd.raster import Observation, cell_centers, disk_mask, mask_centroid
from pcd.seeding import substream
from pcd.world import (
    BASE_BRIGHTNESS,
    GRASP_RADIUS,
    GRIPPER_INTENSITY,
    GRIPPER_RADIUS,
    LIGHT_SIGMA,
    Instruction,
    Scene,
    World,
    texture_pattern,
)


def denoise_step(
    actions: np.ndarray,
    k: int,
    schedule: DiffusionSchedule,
    noise_prediction,
    rng: np.random.Generator,
) -> np.ndarray:
    """One ancestral update from noise level k to k-1."""
    if not (1 <= k <= schedule.steps):
        raise ValueError(f"step index {k} outside 1..{schedule.steps}")
    x = np.asarray(actions, dtype=np.float64)
    eps = np.asarray(noise_prediction(x, k), dtype=np.float64)
    if eps.shape != x.shape:
        raise ValueError("noise prediction shape must match the action shape")
    i = k - 1
    out = schedule.scale[i] * (x - schedule.noise_coef[i] * eps)
    if schedule.sigma[i] > 0.0:
        out = out + schedule.sigma[i] * rng.standard_normal(x.shape)
    return out


def mixture_noise_prediction(mix: GaussianMixture, schedule: DiffusionSchedule):
    """Exact noise prediction for actions drawn from `mix`, one batch at a time."""

    log_w = np.where(mix.weights > 0.0, np.log(np.maximum(mix.weights, 1e-300)), -np.inf)

    def predict(x: np.ndarray, k: int) -> np.ndarray:
        frac = schedule.signal_frac[k - 1]
        means = np.sqrt(frac) * mix.means  # (B, M)
        variances = frac * mix.sigmas**2 + (1.0 - frac)
        batch = np.atleast_2d(x)  # (n, M)
        diff = batch[None, :, :] - means[:, None, :]  # (B, n, M)
        log_resp = (
            log_w[:, None]
            - 0.5 * (diff**2 / variances[:, None, :]).sum(axis=2)
            - 0.5 * np.log(2.0 * math.pi * variances).sum(axis=1)[:, None]
        )
        log_resp -= log_resp.max(axis=0, keepdims=True)
        resp = np.exp(log_resp)
        resp /= resp.sum(axis=0, keepdims=True)
        score = (resp[:, :, None] * (-diff) / variances[:, None, :]).sum(axis=0)
        eps = -math.sqrt(1.0 - frac) * score if frac < 1.0 else np.zeros_like(batch)
        return eps.reshape(np.shape(x))

    return predict


def sample_scalar(
    policy: MixtureDiffusionPolicy, obs, instruction, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One ancestral chain: a `denoise_step` and a noise prediction per step."""
    if n < 1:
        raise ValueError("need at least one sample")
    mix = policy.target_mixture(obs, instruction)
    predict = mixture_noise_prediction(mix, policy.schedule)
    x = rng.standard_normal((n, 3))
    for k in range(policy.schedule.steps, 0, -1):
        x = denoise_step(x, k, policy.schedule, predict, rng)
    return x


def scott_bandwidth(samples: np.ndarray) -> float:
    """Bandwidth sigma * N^(-1/5), floored at 1e-6.

    sigma is the standard deviation of the sample set itself (ddof=0), so
    constant samples hit the floor instead of producing a zero bandwidth.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    b = float(np.std(x)) * x.size ** (-1.0 / 5.0)
    return max(b, BANDWIDTH_FLOOR)


def _resolve_bandwidth(samples: np.ndarray, config: KdeConfig) -> float:
    if isinstance(config.bandwidth, str):
        return scott_bandwidth(samples)
    return float(config.bandwidth)


def kde_estimate(samples: np.ndarray, grid: BinGrid, bandwidth: float) -> CategoricalDist:
    """Kernel density estimate of one sample set at the bin centers."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if not (bandwidth > 0.0):
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    z = (grid.centers()[:, None] - x[None, :]) / bandwidth
    weights = gaussian_kernel(z).sum(axis=1)
    total = float(weights.sum())
    if total <= 0.0:
        # All kernel mass underflowed; every center is equally (un)likely.
        return CategoricalDist.uniform(grid)
    return CategoricalDist(grid, weights / total)


def kde_grid(samples_a: np.ndarray, samples_b: np.ndarray, config: KdeConfig) -> BinGrid:
    """Shared support for two sample sets of the same action dimension."""
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("no samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    bw = max(_resolve_bandwidth(a, config), _resolve_bandwidth(b, config))
    lo = min(float(a.min()), float(b.min())) - config.support_pad * bw
    hi = max(float(a.max()), float(b.max())) + config.support_pad * bw
    if hi <= lo:  # all samples identical and pad 0
        lo -= BANDWIDTH_FLOOR
        hi += BANDWIDTH_FLOOR
    return BinGrid(lo, hi, config.grid_count)


def kde_estimate_multi_columns(
    samples: np.ndarray, config: KdeConfig, samples_masked: np.ndarray
) -> tuple[tuple[CategoricalDist, ...], tuple[CategoricalDist, ...]]:
    """Per-dimension KDE for both contrast branches, one column at a time.
    The plain arm's KDE is the first branch of (samples, config, samples)."""
    orig = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    masked = np.atleast_2d(np.asarray(samples_masked, dtype=np.float64))
    if orig.shape[1] != masked.shape[1]:
        raise ValueError(
            f"dimension mismatch: {orig.shape[1]} vs {masked.shape[1]} action dims"
        )
    if orig.shape[0] < 2 or masked.shape[0] < 2:
        raise ValueError("need at least 2 samples per branch")
    dims_o = []
    dims_m = []
    for t in range(orig.shape[1]):
        col_o = orig[:, t]
        col_m = masked[:, t]
        if not np.all(np.isfinite(col_o)) or not np.all(np.isfinite(col_m)):
            raise ValueError(f"non-finite samples in action dimension {t}")
        grid = kde_grid(col_o, col_m, config)
        dims_o.append(kde_estimate(col_o, grid, _resolve_bandwidth(col_o, config)))
        dims_m.append(kde_estimate(col_m, grid, _resolve_bandwidth(col_m, config)))
    return tuple(dims_o), tuple(dims_m)


# -- tracking: a full-raster bitmap and a centroid per component ---------------


def track(
    state: TrackerState, obs_t: Observation, truth: TruthProvider | None = None
) -> ObjectMask:
    """Propagate the mask to the current observation, updating the state."""
    if state.mode == "exact":
        if truth is None:
            raise ValueError("exact tracking requires a ground-truth provider")
        mask = ObjectMask(truth(state.object_id), state.object_id)
        state.last_mask = mask
        return mask

    prev_centroid = mask_centroid(state.last_mask.bitmap)
    if prev_centroid is None:
        # Nothing anchored yet; an empty mask stays empty.
        return state.last_mask
    labels, n_components = ndimage.label(obs_t.planes[0] > OBJECT_MASS_EPS)
    best = None
    best_dist = np.inf
    h, w = obs_t.height, obs_t.width
    for comp in range(1, n_components + 1):
        bitmap = labels == comp
        cx, cy = mask_centroid(bitmap)  # component is non-empty by construction
        d_cells = np.hypot((cx - prev_centroid[0]) * w, (cy - prev_centroid[1]) * h)
        if d_cells < best_dist:
            best, best_dist = bitmap, d_cells
    if best is None or best_dist > MATCH_RADIUS_CELLS:
        return state.last_mask  # occlusion fallback: keep the previous mask
    mask = ObjectMask(best, state.object_id)
    state.last_mask = mask
    return mask


# -- inpainting: the full-raster diffusion fill ------------------------------


def _neighbor_average_pass(plane: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """One simultaneous 4-neighborhood averaging step over masked cells."""
    padded = np.pad(plane, 1, mode="constant")
    total = (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
    )
    counts = np.full(plane.shape, 4.0)
    counts[0, :] -= 1.0
    counts[-1, :] -= 1.0
    counts[:, 0] -= 1.0
    counts[:, -1] -= 1.0
    out = plane.copy()
    out[masked] = total[masked] / counts[masked]
    return out


def inpaint(obs: Observation, mask: ObjectMask, strategy: InpaintStrategy) -> Observation:
    """Fill the masked cells on every channel; unmasked cells untouched."""
    if mask.bitmap.shape != (obs.height, obs.width):
        raise ValueError("mask dimensions do not match the observation")
    masked = mask.bitmap
    if not masked.any():
        return obs
    planes = obs.planes.copy()
    if isinstance(strategy, ConstantFill):
        planes[:, masked] = strategy.value
    elif isinstance(strategy, BackgroundMeanFill):
        if masked.all():
            raise ValueError("no background reference")
        for c in range(3):
            planes[c, masked] = planes[c, ~masked].mean()
    elif isinstance(strategy, NeighborDiffusionFill):
        for c in range(3):
            plane = planes[c]
            seed = plane[~masked].mean() if not masked.all() else 0.0
            plane[masked] = seed
            for _ in range(strategy.iterations):
                plane = _neighbor_average_pass(plane, masked)
            planes[c] = plane
    else:
        raise TypeError(f"unknown inpaint strategy {type(strategy).__name__}")
    return Observation(planes, obs.step_index)


# -- autoregressive decoding: perception once per dimension and view ----------


def _branch(
    policy: SpuriousMixturePolicy,
    t: int,
    gripper: tuple[float, float] | None,
    goal: tuple[float, float] | None,
) -> np.ndarray:
    grid = policy.grids[t]
    if gripper is None or goal is None:
        return np.full(grid.count, 1.0 / grid.count)
    if t < 2:
        step = _aim(gripper, goal, policy.params.step_max)
        sigma = policy.params.step_max / policy.params.sharpness
        return _gaussian_categorical(grid, step[t], sigma)
    q_close = _sigmoid(
        (GRASP_RADIUS - math.hypot(goal[0] - gripper[0], goal[1] - gripper[1])) / 0.02
    )
    return np.array([1.0 - q_close, q_close])


def predict(
    policy: SpuriousMixturePolicy,
    obs: Observation,
    instruction: Instruction,
    prefix: PrefixContext,
) -> CategoricalDist:
    """The next dimension's distribution, perceiving the view from scratch."""
    t = len(prefix.committed)
    if t >= policy.m:
        raise ValueError(f"prefix already covers all {policy.m} action dimensions")
    for dim, idx in enumerate(prefix.committed):
        if not (0 <= idx < policy.grids[dim].count):
            raise ValueError(f"prefix index {idx} invalid for dimension {dim}")

    gripper = find_gripper(obs)
    target = (
        None
        if gripper is None
        else find_class_blob(obs, instruction.target_labels[0], near=gripper)
    )
    obj_probs = _branch(policy, t, gripper, target)
    spur_probs = _branch(policy, t, gripper, None if gripper is None else find_light_peak(obs))
    lam = policy.params.lam
    return CategoricalDist(policy.grids[t], (1.0 - lam) * obj_probs + lam * spur_probs)


def decode_autoregressive(
    policy: SpuriousMixturePolicy,
    obs: Observation,
    obs_masked: Observation | None,
    instruction,
    decode_cfg: DecodeConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One action, predicting each dimension after the prefix before it."""
    prefix = PrefixContext()
    action = np.empty(policy.m)
    for t in range(policy.m):
        dist = predict(policy, obs, instruction, prefix)
        if obs_masked is not None:
            dist = contrastive_combine(
                dist, predict(policy, obs_masked, instruction, prefix), decode_cfg
            )
        idx = select_index(dist, decode_cfg, rng)
        action[t] = dist.grid.centers()[idx]
        prefix = prefix.extended(idx)
    return action


# -- rendering: every plane built per call -----------------------------------


def render(world: World, scene: Scene) -> Observation:
    """The scene's observation, with the light and texture planes rebuilt."""
    w = h = world.size
    plane_obj = np.zeros((h, w))
    for obj in scene.objects + scene.spurious.distractors:
        footprint = disk_mask(w, h, obj.x, obj.y, obj.radius)
        np.maximum(plane_obj, np.where(footprint, obj.intensity, 0.0), out=plane_obj)
    grip = disk_mask(w, h, scene.gripper_x, scene.gripper_y, GRIPPER_RADIUS)
    np.maximum(plane_obj, np.where(grip, GRIPPER_INTENSITY, 0.0), out=plane_obj)

    xg, yg = cell_centers(w, h)
    sq_dist = (xg - scene.spurious.light_x) ** 2 + (yg - scene.spurious.light_y) ** 2
    plane_light = (
        BASE_BRIGHTNESS
        + scene.spurious.brightness_offset
        + scene.spurious.light_intensity * np.exp(-sq_dist / (2.0 * LIGHT_SIGMA**2))
    )
    plane_tex = texture_pattern(scene.spurious.texture_id, w, h)

    planes = np.stack(
        [plane_obj, np.clip(plane_light, 0.0, 1.0), np.clip(plane_tex, 0.0, 1.0)]
    )
    return Observation(planes, step_index=scene.step)


# -- the serial episode loop: one episode, one sampler call per step --------
#
# Copies of the harness's serial runner, taken before the step loop became a
# generator that lockstep evaluation drives, with each step's decode made of
# the frozen parts above. `_MaskPipeline` is the package's own; its parts have
# frozen copies above.


def select_action(
    dims: tuple[CategoricalDist, ...], cfg: DecodeConfig, rng: np.random.Generator
) -> np.ndarray:
    """Return one action vector of bin centers, one entry per dimension."""
    out = np.empty(len(dims))
    for t, d in enumerate(dims):
        out[t] = d.grid.centers()[select_index(d, cfg, rng)]
    return out


def decode_draws(
    draws: np.ndarray, kde_cfg: KdeConfig, decode_cfg: DecodeConfig, rng: np.random.Generator
) -> np.ndarray:
    """The action from one step's draws: one (n, m) block per view, the
    original first and the masked view, if any, second."""
    if len(draws) == 1:
        dims, _ = kde_estimate_multi_columns(draws[0], kde_cfg, draws[0])
    else:
        orig, masked = kde_estimate_multi_columns(draws[0], kde_cfg, draws[1])
        dims = tuple(contrastive_combine(d, dm, decode_cfg) for d, dm in zip(orig, masked))
    return select_action(dims, decode_cfg, rng)


def _decode_from_samples(
    sample_many: Callable[..., np.ndarray],
    obs: Observation,
    obs_masked: Observation | None,
    instruction,
    kde_cfg: KdeConfig,
    decode_cfg: DecodeConfig,
    seed: int,
    step: int,
    rng_select: np.random.Generator,
) -> np.ndarray:
    views = [obs]
    rngs = [substream(seed, "policy_orig", step)]
    if obs_masked is not None:
        views.append(obs_masked)
        rngs.append(substream(seed, "policy_masked", step))
    draws = sample_many(views, instruction, kde_cfg.n_samples, rngs)
    return decode_draws(draws, kde_cfg, decode_cfg, rng_select)


Decide = Callable[[Observation, Observation | None, Scene, int], np.ndarray]


def _decider(
    policy, instruction, seed: int, kde_cfg: KdeConfig, decode_cfg: DecodeConfig
) -> Decide:
    """The per-step decision for the policy's kind, picked once per episode."""
    if isinstance(policy, ScriptedExpert):
        return lambda obs, obs_masked, scene, step: policy.act(scene)
    if isinstance(policy, SpuriousMixturePolicy):
        return lambda obs, obs_masked, scene, step: decode_autoregressive(
            policy, obs, obs_masked, instruction, decode_cfg, substream(seed, "select", step)
        )
    # A sampler needs only `sample`; `sample_many` is its optional batched
    # form, which must equal stacking one `sample` per view.
    sample_many = getattr(policy, "sample_many", None)
    if sample_many is None:

        def sample_many(views, instruction, n, rngs):
            return np.stack(
                [policy.sample(view, instruction, n, rng) for view, rng in zip(views, rngs)]
            )

    return lambda obs, obs_masked, scene, step: _decode_from_samples(
        sample_many, obs, obs_masked, instruction, kde_cfg, decode_cfg, seed, step,
        substream(seed, "select", step),
    )


def _play(
    policy,
    world: World,
    cfg: PcdRunConfig,
    seed: int,
    contrast: bool,
    steps: list[StepLog],
    observer: Observer | None,
) -> None:
    """The one step loop: decide and step until the world terminates.

    Each step is appended to steps as it completes, so a caller that
    catches an exception still holds the steps before it. The observer
    sees the scene the action was decided on.
    """
    scene, obs = world.reset(seed)
    decide = _decider(policy, world.task.instruction, seed, cfg.kde, cfg.decode)
    pipeline = _MaskPipeline(cfg.mask, world, seed) if contrast else None
    for step in itertools.count():
        obs_masked, mask_cells = (None, 0) if pipeline is None else pipeline.masked(obs, scene)
        action = decide(obs, obs_masked, scene, step)
        next_scene, result = world.step(scene, action)
        steps.append(StepLog(result.step, tuple(action), result.success_now, mask_cells))
        if observer is not None:
            observer(step, scene, obs, obs_masked, action, result)
        if result.terminated:
            return
        scene, obs = next_scene, result.observation


def _run_episode(
    policy,
    world: World,
    cfg: PcdRunConfig,
    seed: int,
    contrast: bool,
    observer: Observer | None = None,
) -> EpisodeRecord:
    start = time.perf_counter()
    steps: list[StepLog] = []
    error: str | None = None
    try:
        _play(policy, world, cfg, seed, contrast, steps, observer)
    except Exception as exc:  # failed episodes score as failures, never crash a batch
        error = f"{type(exc).__name__}: {exc}"
    scored = error is None and bool(steps)
    return EpisodeRecord(
        seed=seed,
        steps=tuple(steps),
        success_completion=scored and any(s.success_now for s in steps),
        success_maxstep=scored and steps[-1].success_now,
        total_steps=len(steps),
        duration_s=time.perf_counter() - start,
        error=error,
    )
