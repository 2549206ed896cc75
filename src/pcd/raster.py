"""Raster conventions shared by the world, the policies, and the masker.

Observations are three float planes over a W x H cell grid. Cell (i, j)
covers the world-coordinate square [j/W, (j+1)/W) x [i/H, (i+1)/H); its
center is ((j+0.5)/W, (i+0.5)/H). Plane 0 carries object class
intensities, plane 1 brightness and the light patch, plane 2 the table
texture.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

OBJECT_PLANE = 0
LIGHT_PLANE = 1
TEXTURE_PLANE = 2

# 4-connectivity, the structure ndimage.label builds by default on every
# call; passing it saves rebuilding it.
FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
FOUR_CONNECTED.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Observation:
    """Immutable image the policies and the masker consume."""

    planes: np.ndarray  # (3, H, W), values in [0, 1]
    step_index: int = 0

    def __post_init__(self) -> None:
        planes = np.asarray(self.planes, dtype=np.float64)
        if planes.ndim != 3 or planes.shape[0] != 3:
            raise ValueError(f"expected (3, H, W) planes, got shape {planes.shape}")
        if not np.all(np.isfinite(planes)):
            raise ValueError("observation cells must be finite")
        if planes.min() < 0.0 or planes.max() > 1.0:
            raise ValueError("observation cells must lie in [0, 1]")
        if self.step_index < 0:
            raise ValueError("step_index must be non-negative")
        planes = planes.copy()
        planes.flags.writeable = False
        object.__setattr__(self, "planes", planes)

    @classmethod
    def _trusted(cls, planes: np.ndarray, step_index: int) -> "Observation":
        """An observation on planes this package just computed and owns:
        (3, H, W) float64 in [0, 1]. It skips the checks and the copy and
        marks the array read-only."""
        planes.flags.writeable = False
        obs = object.__new__(cls)
        object.__setattr__(obs, "planes", planes)
        object.__setattr__(obs, "step_index", step_index)
        return obs

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]


@functools.lru_cache(maxsize=16)
def cell_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates (X, Y) of every cell center, each (H, W).

    Cached per size, so the arrays are shared and read-only.
    """
    xs = (np.arange(width) + 0.5) / width
    ys = (np.arange(height) + 0.5) / height
    grids = tuple(np.meshgrid(xs, ys))
    for grid in grids:
        grid.setflags(write=False)
    return grids


def disk_mask(width: int, height: int, cx: float, cy: float, radius: float) -> np.ndarray:
    """Boolean footprint of a disk: cells whose center lies inside it."""
    xg, yg = cell_centers(width, height)
    return (xg - cx) ** 2 + (yg - cy) ** 2 <= radius * radius


def mask_centroid(bitmap: np.ndarray) -> tuple[float, float] | None:
    """World-coordinate centroid of the set cells, or None if empty."""
    ii, jj = np.nonzero(bitmap)
    if ii.size == 0:
        return None
    h, w = bitmap.shape
    return (float((jj + 0.5).mean() / w), float((ii + 0.5).mean() / h))


def observation_rgb(obs: Observation) -> np.ndarray:
    """Map the three planes to RGB bytes for demo frames."""
    rgb = np.transpose(obs.planes, (1, 2, 0))
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def write_ppm(obs: Observation, path: str) -> None:
    """Write the observation as a binary PPM (P6) image."""
    rgb = observation_rgb(obs)
    header = f"P6\n{obs.width} {obs.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())
