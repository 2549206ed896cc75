"""Frozen scalar references for the package's batched fast paths.

Each function here is the plain, one-chain or one-column version of a
path that `pcd` now runs batched. They are kept unchanged so that the
property tests can require the fast paths to give the very same bits,
even after the scalar versions leave `src/`.
"""

from __future__ import annotations

import math

import numpy as np

from pcd.dists import (
    BANDWIDTH_FLOOR,
    ActionDistribution,
    BinGrid,
    CategoricalDist,
    KdeConfig,
    gaussian_kernel,
    scott_bandwidth,
)
from pcd.policies import DiffusionSchedule, GaussianMixture, MixtureDiffusionPolicy


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
