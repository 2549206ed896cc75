"""Mock policies with a controllable reliance on the light patch.

Both learned-policy stand-ins blend an object-seeking behavior with a
light-seeking one through a mixture weight. The categorical variant
exposes per-dimension distributions directly; the diffusion variant
exposes only an action sampler, so its distributions must be estimated
from samples. A scripted expert provides the oracle behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

from .dists import BinGrid, CategoricalDist
from .raster import FOUR_CONNECTED, LIGHT_PLANE, OBJECT_PLANE, Observation, cell_centers
from .world import (
    GRASP_RADIUS,
    GRIPPER_INTENSITY,
    STEP_MAX,
    Instruction,
    Scene,
    TaskSpec,
    class_intensity,
)

# Object pixels match a class when within this distance of its palette
# intensity; palette spacing is 0.08 so classes cannot be confused.
INTENSITY_TOL = 0.03
LIGHT_PEAK_TOL = 0.02

Point = tuple[float, float]
# (gripper, target, light) as perceived in one view
Percept = tuple[Point | None, Point | None, Point | None]


@dataclass(frozen=True)
class PrefixContext:
    """Bin indices already committed for earlier action dimensions."""

    committed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "committed", tuple(int(i) for i in self.committed))

    def extended(self, index: int) -> "PrefixContext":
        return PrefixContext(self.committed + (index,))


@dataclass(frozen=True)
class SpuriousMixtureParams:
    """Knobs shared by the mock policies.

    lam is the mixture weight on the light-seeking branch; sharpness
    divides the step budget to set the concentration of the motion
    distributions.
    """

    lam: float
    sharpness: float = 6.0
    action_bins: int = 21
    step_max: float = STEP_MAX
    action_sigma: float = 0.02

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("mixture weight must lie in [0, 1]")
        if not (self.sharpness > 0.0):
            raise ValueError("sharpness must be > 0")
        if self.action_bins < 2:
            raise ValueError("action_bins must be >= 2")
        if not (self.step_max > 0.0):
            raise ValueError("step_max must be > 0")
        if not (self.action_sigma > 0.0):
            raise ValueError("action_sigma must be > 0")


def default_grids(params: SpuriousMixtureParams) -> tuple[BinGrid, BinGrid, BinGrid]:
    motion = BinGrid(-params.step_max, params.step_max, params.action_bins)
    return (motion, motion, BinGrid(0.0, 1.0, 2))


# -- perception helpers ---------------------------------------------------


def find_gripper(obs: Observation) -> tuple[float, float] | None:
    hits = np.abs(obs.planes[OBJECT_PLANE] - GRIPPER_INTENSITY) <= INTENSITY_TOL
    if not hits.any():
        return None
    xs, ys = cell_centers(obs.width, obs.height)
    return float(xs[hits].mean()), float(ys[hits].mean())


def find_class_blob(
    obs: Observation, label: str, near: tuple[float, float] | None = None
) -> tuple[float, float] | None:
    """Centroid of the connected component of `label` pixels nearest to
    `near` (largest component when no reference is given)."""
    hits = np.abs(obs.planes[OBJECT_PLANE] - class_intensity(label)) <= INTENSITY_TOL
    if not hits.any():
        return None
    labeled, n = ndimage.label(hits, FOUR_CONNECTED)
    xs, ys = cell_centers(obs.width, obs.height)
    best: tuple[float, float] | None = None
    best_key = math.inf
    for comp in range(1, n + 1):
        sel = labeled == comp
        cx, cy = float(xs[sel].mean()), float(ys[sel].mean())
        if near is None:
            key = -float(sel.sum())
        else:
            key = math.hypot(cx - near[0], cy - near[1])
        if key < best_key:
            best_key, best = key, (cx, cy)
    return best


def find_light_peak(obs: Observation) -> tuple[float, float]:
    plane = obs.planes[LIGHT_PLANE]
    hits = plane >= plane.max() - LIGHT_PEAK_TOL
    xs, ys = cell_centers(obs.width, obs.height)
    return float(xs[hits].mean()), float(ys[hits].mean())


def perceive(obs: Observation, instruction: Instruction) -> Percept:
    """What the policies read from one view: the gripper, the target blob
    nearest to it and the light peak; all None when no gripper is seen."""
    gripper = find_gripper(obs)
    if gripper is None:
        return None, None, None
    target = find_class_blob(obs, instruction.target_labels[0], near=gripper)
    return gripper, target, find_light_peak(obs)


def _aim(
    origin: tuple[float, float], goal: tuple[float, float], step_max: float
) -> tuple[float, float]:
    vx, vy = goal[0] - origin[0], goal[1] - origin[1]
    norm = math.hypot(vx, vy)
    if norm > step_max:
        scale = step_max / norm
        vx, vy = vx * scale, vy * scale
    return vx, vy


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _gaussian_categorical(grid: BinGrid, mean: float, sigma: float) -> np.ndarray:
    z = (grid.centers() - mean) / sigma
    weights = np.exp(-0.5 * z * z)
    total = weights.sum()
    if total <= 0.0:
        return np.full(grid.count, 1.0 / grid.count)
    return weights / total


class SpuriousMixturePolicy:
    """Autoregressive categorical policy over (dx, dy, grip).

    Each action dimension mixes an object-seeking distribution with a
    light-seeking one. The object branch reads only the object plane, so
    removing the target from that plane collapses it to uniform; the
    light branch reads only the brightness plane and is untouched by
    object masking. Dimensions are conditionally independent given the
    observation: the prefix selects which dimension is predicted next.
    """

    def __init__(self, params: SpuriousMixtureParams) -> None:
        self.params = params
        self.grids = default_grids(params)

    @property
    def m(self) -> int:
        return len(self.grids)

    def predict(
        self, obs: Observation, instruction: Instruction, prefix: PrefixContext
    ) -> CategoricalDist:
        t = len(prefix.committed)
        if t >= self.m:
            raise ValueError(f"prefix already covers all {self.m} action dimensions")
        for dim, idx in enumerate(prefix.committed):
            if not (0 <= idx < self.grids[dim].count):
                raise ValueError(f"prefix index {idx} invalid for dimension {dim}")
        return self.predict_from(self.perceive(obs, instruction), t)

    perceive = staticmethod(perceive)

    def predict_from(self, percept: Percept, t: int) -> CategoricalDist:
        """Dimension t's distribution for a perceived view. It does not
        depend on the prefix, so one percept serves every dimension."""
        gripper, target, light = percept
        obj_probs = self._branch(t, gripper, target)
        spur_probs = self._branch(t, gripper, light)
        lam = self.params.lam
        return CategoricalDist._trusted(self.grids[t], (1.0 - lam) * obj_probs + lam * spur_probs)

    def _branch(
        self,
        t: int,
        gripper: tuple[float, float] | None,
        goal: tuple[float, float] | None,
    ) -> np.ndarray:
        grid = self.grids[t]
        if gripper is None or goal is None:
            return np.full(grid.count, 1.0 / grid.count)
        if t < 2:
            step = _aim(gripper, goal, self.params.step_max)
            sigma = self.params.step_max / self.params.sharpness
            return _gaussian_categorical(grid, step[t], sigma)
        q_close = _sigmoid(
            (GRASP_RADIUS - math.hypot(goal[0] - gripper[0], goal[1] - gripper[1])) / 0.02
        )
        return np.array([1.0 - q_close, q_close])


# -- diffusion-based sampler ----------------------------------------------


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step coefficients of an ancestral denoising chain.

    Index k runs 1..steps; arrays are stored with entry k-1 for step k.
    scale multiplies the denoised bracket, noise_coef multiplies the
    predicted noise inside it, sigma is the additive noise level, and
    signal_frac is the forward-process signal fraction used to convert a
    density's score into a noise prediction.
    """

    steps: int
    scale: np.ndarray
    noise_coef: np.ndarray
    sigma: np.ndarray
    signal_frac: np.ndarray

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")
        for name in ("scale", "noise_coef", "sigma", "signal_frac"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.steps,):
                raise ValueError(f"{name} must have shape ({self.steps},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma must be >= 0")
        if np.any((self.signal_frac <= 0.0) | (self.signal_frac > 1.0)):
            raise ValueError("signal_frac must lie in (0, 1]")

    @classmethod
    def cosine(cls, steps: int, offset: float = 0.008) -> "DiffusionSchedule":
        if steps < 1:
            raise ValueError("schedule needs at least one step")
        t = np.arange(steps + 1, dtype=np.float64)
        f = np.cos(((t / steps + offset) / (1.0 + offset)) * math.pi / 2.0) ** 2
        ratio = f[1:] / f[0]
        betas = np.clip(1.0 - ratio[1:] / ratio[:-1], 1e-4, 0.999)
        betas = np.concatenate([[np.clip(1.0 - ratio[0], 1e-4, 0.999)], betas])
        step_alphas = 1.0 - betas
        signal_frac = np.cumprod(step_alphas)
        sigma = np.sqrt(betas)
        sigma[0] = 0.0  # final denoising step is deterministic
        return cls(
            steps=steps,
            scale=1.0 / np.sqrt(step_alphas),
            noise_coef=betas / np.sqrt(1.0 - signal_frac),
            sigma=sigma,
            signal_frac=signal_frac,
        )


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal Gaussian mixture over action vectors."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        if w.ndim != 1 or m.ndim != 2 or s.shape != m.shape or m.shape[0] != w.size:
            raise ValueError("mixture arrays have inconsistent shapes")
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be a distribution")
        if np.any(s <= 0.0):
            raise ValueError("sigmas must be > 0")
        for name, arr in (("weights", w), ("means", m), ("sigmas", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(
        cls, weights: np.ndarray, means: np.ndarray, sigmas: np.ndarray
    ) -> GaussianMixture:
        """A mixture on valid float64 arrays this package just built and
        owns. It skips the checks and marks the arrays read-only."""
        mix = object.__new__(cls)
        for name, arr in (("weights", weights), ("means", means), ("sigmas", sigmas)):
            arr.flags.writeable = False
            object.__setattr__(mix, name, arr)
        return mix


def _mixture_eps(
    x: np.ndarray,
    log_w: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    half_log_norm: np.ndarray,
    root: float,
) -> np.ndarray:
    """Predicted noise for C batches of actions, one mixture each.

    x is (M, C, n); log_w (B, C, 1); the diffused means and variances
    (B, M, C, 1) and half_log_norm, half the sum over M of
    log(2*pi*variance), (B, C, 1), all at one signal fraction frac; root
    is sqrt(1 - frac). Every op runs along contiguous rows of n draws.
    """
    diff = x - means  # (B, M, C, n)
    sq = np.square(diff)
    sq /= variances
    log_resp = log_w - 0.5 * sq.sum(axis=1)  # (B, C, n)
    log_resp -= half_log_norm
    log_resp -= log_resp.max(axis=0)
    resp = np.exp(log_resp)
    resp /= resp.sum(axis=0)
    # the score is minus this sum, and the noise minus root times the score
    weighted = resp[:, None] * diff
    weighted /= variances
    return root * weighted.sum(axis=0)  # (M, C, n)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    return np.where(weights > 0.0, np.log(np.maximum(weights, 1e-300)), -np.inf)


def sample_mixtures(
    mixes: Sequence[GaussianMixture],
    schedule: DiffusionSchedule,
    n: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """n draws from the ancestral chain of each mixture, as one (C, n, M) array.

    The noise prediction is exact: at noise level k the diffused density
    is again a Gaussian mixture, with means sqrt(signal_frac)*mu and
    variances signal_frac*sigma^2 + (1 - signal_frac), and the predicted
    noise follows from its score. The C chains step together, each drawing
    its noise from its own generator in one call, in the order a
    step-by-step chain would (x0, then one (n, M) block per step with
    sigma > 0, from step `steps` down to 1). Row c does not depend on the
    other chains. The chain runs component-major, on a state of shape
    (M, C, n), so its sums over the B components and the M dimensions add
    whole slabs left to right. Below 8 terms numpy's row sum adds left to
    right too, so for M <= 7 each draw has the one-chain loop's bits.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not mixes or len(mixes) != len(rngs):
        raise ValueError("need at least one view and one generator per view")
    # per-step tables (S, B, M, C, 1) and (S, B, C, 1), indexed by k - 1; log_w (B, C, 1)
    frac = schedule.signal_frac[:, None, None, None, None]
    means = np.sqrt(frac) * np.stack([mix.means for mix in mixes], axis=2)[..., None]
    sigmas = np.stack([mix.sigmas for mix in mixes], axis=2)[..., None]
    variances = frac * sigmas**2 + (1.0 - frac)
    half_log_norm = 0.5 * np.log(2.0 * math.pi * variances).sum(axis=2)
    log_w = _log_weights(np.stack([mix.weights for mix in mixes], axis=1))[..., None]
    draws = (1 + int(np.count_nonzero(schedule.sigma > 0.0)), n, means.shape[2])
    noise = np.stack([rng.standard_normal(draws) for rng in rngs])  # (C, 1 + K, n, M)
    noise = np.ascontiguousarray(noise.transpose(1, 3, 0, 2))  # (1 + K, M, C, n)
    x, later = noise[0], iter(noise[1:])  # no step rereads x, so it is updated in place
    for i, f in reversed(list(enumerate(schedule.signal_frac))):
        if f < 1.0:  # at signal fraction 1 the predicted noise is 0
            eps = _mixture_eps(
                x, log_w, means[i], variances[i], half_log_norm[i], math.sqrt(1.0 - f)
            )
            x = x - schedule.noise_coef[i] * eps
        x *= schedule.scale[i]
        if schedule.sigma[i] > 0.0:
            x += schedule.sigma[i] * next(later)
    return np.ascontiguousarray(x.transpose(1, 2, 0))


class MixtureDiffusionPolicy:
    """Sampler-only policy: actions come from an ancestral denoising
    chain whose target density is a two-component mixture, one component
    aimed at the perceived object and one at the light patch.

    No per-dimension distribution is exposed; downstream consumers must
    estimate densities from batches of samples.
    """

    def __init__(
        self, params: SpuriousMixtureParams, schedule: DiffusionSchedule | None = None
    ) -> None:
        self.params = params
        self.schedule = schedule if schedule is not None else DiffusionSchedule.cosine(120)
        self.grids = default_grids(params)

    @property
    def m(self) -> int:
        return 3

    def target_mixture(self, obs: Observation, instruction: Instruction) -> GaussianMixture:
        gripper, target, light = perceive(obs, instruction)
        lam = self.params.lam
        return GaussianMixture._trusted(
            np.array([1.0 - lam, lam]),
            np.stack(
                [self._component_mean(gripper, target), self._component_mean(gripper, light)]
            ),
            np.stack([self._component_sigma(target), self._component_sigma(light)]),
        )

    def _component_mean(
        self, gripper: tuple[float, float] | None, goal: tuple[float, float] | None
    ) -> np.ndarray:
        if gripper is None or goal is None:
            # nothing perceived: a wide prior centered on staying put
            return np.array([0.0, 0.0, 0.5])
        dx, dy = _aim(gripper, goal, self.params.step_max)
        dist = math.hypot(goal[0] - gripper[0], goal[1] - gripper[1])
        q_close = _sigmoid((GRASP_RADIUS - dist) / 0.02)
        return np.array([dx, dy, 0.25 + 0.5 * q_close])

    def _component_sigma(self, goal: tuple[float, float] | None) -> np.ndarray:
        if goal is None:
            return np.array([0.12, 0.12, 0.30])
        return np.array([self.params.action_sigma, self.params.action_sigma, 0.08])

    def sample(
        self,
        obs: Observation,
        instruction: Instruction,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.sample_many([obs], instruction, n, [rng])[0]

    def sample_many(
        self,
        views: Sequence[Observation],
        instruction: Instruction,
        n: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """n actions from the chain of each view, as one (C, n, 3) array.

        Row c is bit for bit sample(views[c], instruction, n, rngs[c]).
        """
        return sample_mixtures(
            [self.target_mixture(obs, instruction) for obs in views], self.schedule, n, rngs
        )


# -- scripted oracle -------------------------------------------------------


class ScriptedExpert:
    """Deterministic task solver reading privileged scene state."""

    def __init__(self, task: TaskSpec) -> None:
        self.task = task
        self._target_label = task.instruction.target_labels[0]
        self._goal_label = task.goal if isinstance(task.goal, str) else None

    @property
    def m(self) -> int:
        return 3

    def act(self, scene: Scene) -> np.ndarray:
        target_idx = next(
            i for i, o in enumerate(scene.objects) if o.label == self._target_label
        )
        target = scene.objects[target_idx]
        gripper = (scene.gripper_x, scene.gripper_y)

        if self.task.kind == "reach":
            dx, dy = _aim(gripper, (target.x, target.y), STEP_MAX)
            return np.array([dx, dy, 0.0])

        if self._goal_label is not None:
            goal_obj = next(o for o in scene.objects if o.label == self._goal_label)
            goal = (goal_obj.x, goal_obj.y)
        else:
            goal = self.task.goal  # type: ignore[assignment]

        holding_target = scene.held_index == target_idx
        if not holding_target:
            if scene.held_index is not None:
                return np.array([0.0, 0.0, 0.0])  # wrong object: release first
            d = math.hypot(target.x - gripper[0], target.y - gripper[1])
            nearest_other = min(
                (
                    math.hypot(o.x - gripper[0], o.y - gripper[1])
                    for i, o in enumerate(scene.objects)
                    if i != target_idx
                ),
                default=math.inf,
            )
            # close only when the grasp cannot pick up a different object
            if d <= 0.8 * GRASP_RADIUS and d < nearest_other:
                return np.array([0.0, 0.0, 1.0])
            dx, dy = _aim(gripper, (target.x, target.y), STEP_MAX)
            return np.array([dx, dy, 0.0])

        d_goal = math.hypot(goal[0] - gripper[0], goal[1] - gripper[1])
        if d_goal <= 0.8 * self.task.success_radius:
            if self.task.kind == "stack":
                return np.array([0.0, 0.0, 0.0])  # release on top
            return np.array([0.0, 0.0, 1.0])  # hold in place; success is positional
        dx, dy = _aim(gripper, goal, STEP_MAX)
        return np.array([dx, dy, 1.0])
