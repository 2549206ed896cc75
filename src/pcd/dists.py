"""Discretized action distributions and their contrastive combination.

Continuous action dimensions are handled as categorical distributions over
a shared bin grid. Sample-based policies are converted to categoricals with
a Gaussian kernel density estimate evaluated at bin centers; the contrast
step reweights the original distribution by the ratio against its
masked-observation counterpart, raised to a strength exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

BANDWIDTH_FLOOR = 1e-6
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class BinGrid:
    """Uniform discretization of one real action dimension."""

    lower: float
    upper: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("grid bounds must be finite")
        if self.upper <= self.lower:
            raise ValueError(f"grid upper {self.upper} must exceed lower {self.lower}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 bins, got {self.count}")
        # Not a field, so equality, hashing and repr ignore it.
        centers = self.lower + (np.arange(self.count) + 0.5) * self.width
        centers.flags.writeable = False
        object.__setattr__(self, "_centers", centers)

    @property
    def width(self) -> float:
        return (self.upper - self.lower) / self.count

    def centers(self) -> np.ndarray:
        """The bin centers, computed once per grid; read-only."""
        return self._centers

    def index_of(self, value: float) -> int:
        """Bin index containing value, clipped to the grid range."""
        raw = int(math.floor((value - self.lower) / self.width))
        return min(max(raw, 0), self.count - 1)


@dataclass(frozen=True)
class CategoricalDist:
    """Probabilities over the bins of one grid.

    Entries are non-negative, finite, and sum to 1 within 1e-9. The
    probability array is stored read-only; instances are value types.
    """

    grid: BinGrid
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.grid.count,):
            raise ValueError(
                f"probs shape {probs.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probs must be non-negative")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probs sum to {probs.sum()!r}, expected 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _trusted(cls, grid: BinGrid, probs: np.ndarray) -> "CategoricalDist":
        """A distribution on probabilities this package just computed and
        owns: float64 of the grid's count, normalized. It skips the checks
        and the copy and marks the array read-only."""
        probs.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "grid", grid)
        object.__setattr__(dist, "probs", probs)
        return dist

    @staticmethod
    def uniform(grid: BinGrid) -> "CategoricalDist":
        return CategoricalDist._trusted(grid, np.full(grid.count, 1.0 / grid.count))


@dataclass(frozen=True)
class ActionDistribution:
    """Per-dimension marginals; the joint is their product."""

    dims: tuple[CategoricalDist, ...]

    def __post_init__(self) -> None:
        if len(self.dims) < 1:
            raise ValueError("need at least one action dimension")
        object.__setattr__(self, "dims", tuple(self.dims))

    @property
    def m(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class KdeConfig:
    """Settings for sample-to-categorical conversion.

    bandwidth is either a positive number or the string "scott".
    support_pad is measured in bandwidth multiples.
    """

    n_samples: int = 24
    bandwidth: float | str = "scott"
    grid_count: int = 256
    support_pad: float = 4.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "scott":
                raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not (float(self.bandwidth) > 0.0):
            raise ValueError("fixed bandwidth must be > 0")
        if self.grid_count < 16:
            raise ValueError("grid_count must be at least 16")
        if self.support_pad < 0.0:
            raise ValueError("support_pad must be >= 0")


@dataclass(frozen=True)
class DecodeConfig:
    """Contrast strength and action selection settings."""

    alpha: float = 1.0
    prob_floor: float = 1e-8
    selection: str = "greedy"

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (0.0 < self.prob_floor <= 1e-3):
            raise ValueError("prob_floor must lie in (0, 1e-3]")
        if self.selection not in ("greedy", "sample"):
            raise ValueError(f"selection must be 'greedy' or 'sample', got {self.selection!r}")


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """Standard normal kernel K(u) = exp(-u^2/2) / sqrt(2*pi)."""
    return np.exp(-0.5 * np.square(u)) / SQRT_2PI


def _resolve_bandwidths(rows: np.ndarray, config: KdeConfig) -> np.ndarray:
    """Bandwidth of each row of a C-contiguous (M, N) sample matrix: the
    fixed bandwidth, or the scott rule, sigma * N^(-1/5) floored at
    BANDWIDTH_FLOOR. sigma is the row's own standard deviation (ddof=0),
    so a constant row hits the floor instead of a zero bandwidth."""
    if isinstance(config.bandwidth, str):
        b = np.std(rows, axis=1) * rows.shape[1] ** (-1.0 / 5.0)
        return np.maximum(b, BANDWIDTH_FLOOR)
    return np.full(rows.shape[0], float(config.bandwidth))


def _kde_rows(
    rows: np.ndarray, grids: list[BinGrid], bandwidths: np.ndarray
) -> tuple[CategoricalDist, ...]:
    """KDE of each row of a C-contiguous (M, N) sample matrix on its grid.

    All rows are evaluated as one (M, G, N) array. Each sum runs along a
    contiguous axis of the length one row alone would sum over, so a row
    gets the same bits in any batch.
    """
    centers = np.stack([grid.centers() for grid in grids])  # (M, G)
    z = (centers[:, :, None] - rows[:, None, :]) / bandwidths[:, None, None]
    weights = gaussian_kernel(z).sum(axis=2)  # (M, G)
    totals = weights.sum(axis=1)
    return tuple(
        # All kernel mass underflowed; every center is equally (un)likely.
        CategoricalDist.uniform(grid)
        if total <= 0.0
        else CategoricalDist._trusted(grid, w / total)
        for grid, w, total in zip(grids, weights, totals)
    )


def _shared_grids(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    bw_a: np.ndarray,
    bw_b: np.ndarray,
    config: KdeConfig,
) -> list[BinGrid]:
    """The shared support of each pair of rows of two sample matrices with M
    rows each: the pair's combined range, padded on each side by
    support_pad times the larger of the two bandwidths, so the margin holds
    for either branch. Both contrast branches are evaluated on this grid."""
    pad = config.support_pad * np.maximum(bw_a, bw_b)
    lo = np.minimum(rows_a.min(axis=1), rows_b.min(axis=1)) - pad
    hi = np.maximum(rows_a.max(axis=1), rows_b.max(axis=1)) + pad
    flat = hi <= lo  # all samples identical and pad 0
    lo = np.where(flat, lo - BANDWIDTH_FLOOR, lo)
    hi = np.where(flat, hi + BANDWIDTH_FLOOR, hi)
    return [BinGrid(float(a), float(b), config.grid_count) for a, b in zip(lo, hi)]


def kde_estimate_multi(
    samples: np.ndarray, config: KdeConfig, samples_masked: np.ndarray
) -> tuple[ActionDistribution, ActionDistribution]:
    """Per-dimension KDE for both contrast branches on shared grids.

    samples and samples_masked are (N, M) matrices of action draws under
    the original and masked observation. Dimensions are treated as
    independent; each gets one shared grid built from both columns, and
    each branch's probs[k] is proportional to sum_j K((center_k -
    sample_j) / bandwidth), all dimensions at once.
    """
    orig = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    masked = np.atleast_2d(np.asarray(samples_masked, dtype=np.float64))
    if orig.shape[1] != masked.shape[1]:
        raise ValueError(
            f"dimension mismatch: {orig.shape[1]} vs {masked.shape[1]} action dims"
        )
    if orig.shape[0] < 2 or masked.shape[0] < 2:
        raise ValueError("need at least 2 samples per branch")
    finite = np.isfinite(orig).all(axis=0) & np.isfinite(masked).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite samples in action dimension {int(np.argmin(finite))}")
    # One row per dimension, contiguous: reductions along a strided axis
    # may round differently from the same reduction over one column.
    rows_o = np.ascontiguousarray(orig.T)
    rows_m = np.ascontiguousarray(masked.T)
    bw_o = _resolve_bandwidths(rows_o, config)
    bw_m = _resolve_bandwidths(rows_m, config)
    grids = _shared_grids(rows_o, rows_m, bw_o, bw_m, config)
    return (
        ActionDistribution(_kde_rows(rows_o, grids, bw_o)),
        ActionDistribution(_kde_rows(rows_m, grids, bw_m)),
    )


def kde_estimate_one(samples: np.ndarray, config: KdeConfig) -> ActionDistribution:
    """One branch's per-dimension KDE: kde_estimate_multi(samples, config,
    samples)[0], without evaluating the copy it would throw away."""
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples per branch")
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite samples in action dimension {int(np.argmin(finite))}")
    rows = np.ascontiguousarray(x.T)
    bw = _resolve_bandwidths(rows, config)
    return ActionDistribution(_kde_rows(rows, _shared_grids(rows, rows, bw, bw, config), bw))


def contrastive_combine(
    p: CategoricalDist, p_masked: CategoricalDist, cfg: DecodeConfig
) -> CategoricalDist:
    """Reweight p by its ratio against the masked-branch distribution.

    Output is proportional to p * (p / max(p_masked, prob_floor))^alpha,
    renormalized. alpha = 0 returns p itself: the exponent kills the ratio
    term exactly, and returning the input keeps downstream records
    bit-identical to a run that never built the masked branch.
    """
    if p.grid != p_masked.grid:
        raise ValueError("contrast branches must share one grid")
    if cfg.alpha == 0.0:
        return p
    with np.errstate(divide="ignore"):  # log(0) -> -inf is the intended limit
        log_w = (1.0 + cfg.alpha) * np.log(p.probs) - cfg.alpha * np.log(
            np.maximum(p_masked.probs, cfg.prob_floor)
        )
    log_w -= log_w.max()
    w = np.exp(log_w)
    return CategoricalDist._trusted(p.grid, w / w.sum())


def contrastive_combine_multi(
    p: ActionDistribution, p_masked: ActionDistribution, cfg: DecodeConfig
) -> ActionDistribution:
    if p.m != p_masked.m:
        raise ValueError(f"dimension count mismatch: {p.m} vs {p_masked.m}")
    return ActionDistribution(
        tuple(
            contrastive_combine(d, dm, cfg) for d, dm in zip(p.dims, p_masked.dims)
        )
    )


def select_index(dist: CategoricalDist, cfg: DecodeConfig, rng: np.random.Generator | None) -> int:
    """Pick one bin: the argmax under greedy, which draws nothing (rng may be
    None), a categorical draw otherwise. np.argmax breaks ties toward the
    lower index, the greedy tie-break."""
    if cfg.selection == "greedy":
        return int(np.argmax(dist.probs))
    cdf = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, dist.grid.count - 1)


def select_action(
    dist: ActionDistribution, cfg: DecodeConfig, rng: np.random.Generator | None
) -> np.ndarray:
    """Return one action vector of bin centers, one entry per dimension."""
    out = np.empty(dist.m)
    for t, d in enumerate(dist.dims):
        out[t] = d.grid.centers()[select_index(d, cfg, rng)]
    return out
