"""Frozen scalar references for the package's batched fast paths.

Each function here is the plain, one-chain, one-column, full-raster or
one-dimension-at-a-time version of a path that `pcd` now runs batched,
windowed or once per view. They are kept unchanged so that the property
tests can require the fast paths to give the very same bits, even after
the plain versions leave `src/`.
"""

from __future__ import annotations

import math

import numpy as np

from pcd.dists import (
    BANDWIDTH_FLOOR,
    ActionDistribution,
    BinGrid,
    CategoricalDist,
    DecodeConfig,
    KdeConfig,
    contrastive_combine,
    gaussian_kernel,
    scott_bandwidth,
    select_index,
)
from pcd.masking import (
    BackgroundMeanFill,
    ConstantFill,
    InpaintStrategy,
    NeighborDiffusionFill,
    ObjectMask,
)
from pcd.policies import (
    DiffusionSchedule,
    GaussianMixture,
    MixtureDiffusionPolicy,
    PrefixContext,
    SpuriousMixturePolicy,
    _aim,
    _gaussian_categorical,
    _sigmoid,
    find_class_blob,
    find_gripper,
    find_light_peak,
)
from pcd.raster import Observation, cell_centers, disk_mask
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
) -> tuple[ActionDistribution, ActionDistribution]:
    """Per-dimension KDE for both contrast branches, one column at a time."""
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
    return ActionDistribution(tuple(dims_o)), ActionDistribution(tuple(dims_m))


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
