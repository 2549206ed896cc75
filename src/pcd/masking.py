"""Annotate, track, and inpaint target objects to build masked observations.

The pipeline mirrors segmentation-based object removal at raster scale:
an initial prompt (a point, a box, or a noisy detector backed by ground
truth) yields the target mask, a tracker propagates it across steps, and
an inpainting strategy fills the masked cells on every channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

from .raster import FOUR_CONNECTED, Observation, mask_centroid

# Plane-0 values above this count as object mass for component analysis.
OBJECT_MASS_EPS = 1e-6

# NearestMatch gives up when no blob centroid lies within this many cells
# of the previous centroid, and keeps the previous mask instead.
MATCH_RADIUS_CELLS = 6.0

TruthProvider = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class PointPrompt:
    x: int
    y: int


@dataclass(frozen=True)
class BoxPrompt:
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("box must have positive extent")


@dataclass(frozen=True)
class DetectorPrompt:
    """Ground-truth detection corrupted by misses and jitter."""

    label: str
    miss_prob: float = 0.0
    jitter: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ValueError("miss_prob must lie in [0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


AnnotationPrompt = PointPrompt | BoxPrompt | DetectorPrompt


@dataclass(frozen=True)
class ConstantFill:
    value: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("fill value must lie in [0, 1]")


@dataclass(frozen=True)
class BackgroundMeanFill:
    pass


@dataclass(frozen=True)
class NeighborDiffusionFill:
    iterations: int = 25

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


InpaintStrategy = ConstantFill | BackgroundMeanFill | NeighborDiffusionFill


@dataclass(frozen=True, eq=False)
class ObjectMask:
    bitmap: np.ndarray  # (H, W) bool
    object_id: str

    def __post_init__(self) -> None:
        bitmap = np.asarray(self.bitmap, dtype=bool)
        if bitmap.ndim != 2:
            raise ValueError("mask bitmap must be 2-D")
        bitmap = bitmap.copy()
        bitmap.flags.writeable = False
        object.__setattr__(self, "bitmap", bitmap)

    @property
    def cell_count(self) -> int:
        return int(self.bitmap.sum())

    def union(self, other: "ObjectMask") -> "ObjectMask":
        if self.bitmap.shape != other.bitmap.shape:
            raise ValueError("mask dimensions differ")
        return ObjectMask(self.bitmap | other.bitmap, f"{self.object_id}+{other.object_id}")


@dataclass
class TrackerState:
    """Episode-local tracking state; single-owner, mutated by track()."""

    object_id: str
    last_mask: ObjectMask
    mode: str = "exact"  # "exact" | "nearest"

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "nearest"):
            raise ValueError(f"tracker mode must be 'exact' or 'nearest', got {self.mode!r}")


def _object_components(obs: Observation) -> tuple[np.ndarray, int]:
    return ndimage.label(obs.planes[0] > OBJECT_MASS_EPS, FOUR_CONNECTED)


@functools.lru_cache(maxsize=16)
def _half_cell_offsets(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """j + 0.5 and i + 0.5 of every cell of a raster, flattened row-major."""
    rows, cols = (np.indices((height, width)) + 0.5).reshape(2, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return cols, rows


def _shift_bitmap(bitmap: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Translate with zero fill (no wrap-around)."""
    out = np.zeros_like(bitmap)
    h, w = bitmap.shape
    if abs(dx) >= w or abs(dy) >= h:
        return out  # shifted wholly off the raster
    src_y = slice(max(0, -dy), min(h, h - dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out[dst_y, dst_x] = bitmap[src_y, src_x]
    return out


def annotate_initial(
    obs0: Observation,
    prompt: AnnotationPrompt,
    truth: TruthProvider | None = None,
    rng: np.random.Generator | None = None,
    tracker: str = "exact",
) -> tuple[ObjectMask, TrackerState]:
    """Produce the initial target mask and the tracker that will carry it.

    Point prompts flood-fill the plane-0 component under the point (an
    off-object point yields an empty mask, which is valid). Box prompts
    take all plane-0 mass inside the box. Detector prompts corrupt the
    ground-truth mask: dropped entirely with probability miss_prob, else
    translated and dilated by up to jitter cells.
    """
    h, w = obs0.height, obs0.width
    if isinstance(prompt, PointPrompt):
        if not (0 <= prompt.x < w and 0 <= prompt.y < h):
            raise ValueError(f"point ({prompt.x}, {prompt.y}) outside {w}x{h} raster")
        labels, _ = _object_components(obs0)
        component = labels[prompt.y, prompt.x]
        if component == 0:
            bitmap = np.zeros((h, w), dtype=bool)
        else:
            bitmap = labels == component
        mask = ObjectMask(bitmap, f"point@{prompt.x},{prompt.y}")
    elif isinstance(prompt, BoxPrompt):
        if not (0 <= prompt.x0 < prompt.x1 <= w and 0 <= prompt.y0 < prompt.y1 <= h):
            raise ValueError("box outside raster bounds")
        bitmap = np.zeros((h, w), dtype=bool)
        window = obs0.planes[0][prompt.y0 : prompt.y1, prompt.x0 : prompt.x1]
        bitmap[prompt.y0 : prompt.y1, prompt.x0 : prompt.x1] = window > OBJECT_MASS_EPS
        mask = ObjectMask(bitmap, f"box@{prompt.x0},{prompt.y0}")
    elif isinstance(prompt, DetectorPrompt):
        if truth is None:
            raise ValueError("detector prompt requires a ground-truth provider")
        bitmap = np.asarray(truth(prompt.label), dtype=bool)
        if prompt.miss_prob > 0.0 or prompt.jitter > 0:
            if rng is None:
                raise ValueError("noisy detector requires an rng")
            if prompt.miss_prob > 0.0 and rng.random() < prompt.miss_prob:
                bitmap = np.zeros_like(bitmap)
            elif prompt.jitter > 0:
                dx, dy = rng.integers(-prompt.jitter, prompt.jitter + 1, size=2)
                bitmap = _shift_bitmap(bitmap, int(dx), int(dy))
                grow = int(rng.integers(0, prompt.jitter + 1))
                if grow > 0:
                    bitmap = ndimage.binary_dilation(bitmap, iterations=grow)
        mask = ObjectMask(bitmap, prompt.label)
    else:
        raise TypeError(f"unknown prompt type {type(prompt).__name__}")
    return mask, TrackerState(mask.object_id, mask, mode=tracker)


def track(
    state: TrackerState, obs_t: Observation, truth: TruthProvider | None = None
) -> ObjectMask:
    """Propagate the mask to the current observation, updating the state.

    The nearest tracker labels the plane-0 components once and takes every
    component's cell count and its sums of j + 0.5 and i + 0.5 in one pass.
    Those sums are of half-integers, so they are exact in any order, and
    sum / count / w is mask_centroid's value for the component. The
    nearest centroid wins, ties going to the lowest label.
    """
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
    labels, n_components = _object_components(obs_t)
    h, w = labels.shape
    cells = labels.ravel()
    col_half, row_half = _half_cell_offsets(h, w)
    counts = np.bincount(cells, minlength=n_components + 1)[1:]
    cxs = (np.bincount(cells, col_half, n_components + 1)[1:] / counts / w).tolist()
    cys = (np.bincount(cells, row_half, n_components + 1)[1:] / counts / h).tolist()
    best = 0
    best_dist = np.inf
    for comp, (cx, cy) in enumerate(zip(cxs, cys), start=1):
        d_cells = np.hypot((cx - prev_centroid[0]) * w, (cy - prev_centroid[1]) * h)
        if d_cells < best_dist:
            best, best_dist = comp, d_cells
    if best == 0 or best_dist > MATCH_RADIUS_CELLS:
        return state.last_mask  # occlusion fallback: keep the previous mask
    mask = ObjectMask(labels == best, state.object_id)
    state.last_mask = mask
    return mask


def _diffuse(planes: np.ndarray, masked: np.ndarray, iterations: int) -> None:
    """Jacobi 4-neighborhood averaging of the masked cells of every plane, in place.

    Only the masked cells change, and they read only themselves and their
    neighbors, so each pass gathers just those cells' four neighbors from
    a zero-padded copy of the planes, one row per direction, into a
    buffer made once. Summing the rows in order gives each cell the
    full-raster pass's ((up + down) + left) + right, and its division by
    the neighbor count is the same too, so the result is the same.
    """
    n_planes, (h, w) = planes.shape[0], masked.shape
    padded = np.zeros((n_planes, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = planes
    flat = padded.reshape(-1)
    ii, jj = np.nonzero(masked)
    counts = 4.0 - (ii == 0) - (ii == h - 1) - (jj == 0) - (jj == w - 1)
    cells = ((ii + 1) * (w + 2) + jj + 1) + padded[0].size * np.arange(n_planes)[:, None]
    cells = cells.ravel()
    neighbors = cells + np.array([-(w + 2), w + 2, -1, 1])[:, None]  # up, down, left, right
    counts = np.tile(counts, n_planes)
    gathered = np.empty(neighbors.shape)
    total = np.empty(cells.size)
    for _ in range(iterations):
        flat.take(neighbors, out=gathered)
        np.add.reduce(gathered, axis=0, out=total)
        np.divide(total, counts, out=total)
        flat[cells] = total
    planes[:, masked] = total.reshape(n_planes, -1)


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
        for plane in planes:
            plane[masked] = plane[~masked].mean() if not masked.all() else 0.0
        _diffuse(planes, masked, strategy.iterations)
    else:
        raise TypeError(f"unknown inpaint strategy {type(strategy).__name__}")
    return Observation._trusted(planes, obs.step_index)
