"""Episode runner and evaluation harness.

One episode couples a policy to a world under either plain decoding or
contrastive decoding against a masked observation branch. Runs are
paired by construction: episode i in any arm uses base_seed + i, and all
randomness flows through named substreams, so two arms that perform the
same draws see the same numbers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Generator, Sequence

import numpy as np

from .config import MaskConfig, PcdRunConfig, PolicyConfig, config_hash, to_dict
from .dists import (
    CategoricalDist,
    DecodeConfig,
    KdeConfig,
    contrastive_combine,
    kde_estimate_multi,
    select_index,
)
from .masking import (
    BackgroundMeanFill,
    BoxPrompt,
    ConstantFill,
    DetectorPrompt,
    NeighborDiffusionFill,
    ObjectMask,
    PointPrompt,
    annotate_initial,
    inpaint,
    track,
)
from .policies import (
    DiffusionSchedule,
    MixtureDiffusionPolicy,
    ScriptedExpert,
    SpuriousMixtureParams,
    SpuriousMixturePolicy,
    default_grids,
)
from .raster import Observation
from .seeding import substream
from .world import Scene, ShiftSpec, StepResult, World, make_task

Observer = Callable[
    [int, Scene, Observation, Observation | None, np.ndarray, StepResult], None
]


# -- records ----------------------------------------------------------------


@dataclass(frozen=True)
class StepLog:
    step: int
    action: tuple[float, ...]
    success_now: bool
    mask_cells: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "action", tuple(float(a) for a in self.action))


@dataclass(frozen=True)
class EpisodeRecord:
    """Everything observable about one episode.

    success_completion is true if any step succeeded; success_maxstep
    reflects only the final executed step. Episodes that raised are
    failures on both metrics regardless of their step logs.
    """

    seed: int
    steps: tuple[StepLog, ...]
    success_completion: bool
    success_maxstep: bool
    total_steps: int
    duration_s: float
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.total_steps != len(self.steps):
            raise ValueError("total_steps must equal the number of logged steps")
        if self.error is None:
            any_success = any(s.success_now for s in self.steps)
            last_success = bool(self.steps) and self.steps[-1].success_now
            if self.success_completion != any_success:
                raise ValueError("success_completion inconsistent with step log")
            if self.success_maxstep != last_success:
                raise ValueError("success_maxstep inconsistent with step log")
        elif self.success_completion or self.success_maxstep:
            raise ValueError("a failed episode cannot count as a success")
        if self.success_maxstep and not self.success_completion:
            raise ValueError("success at the final step implies success at completion")

    def replay_key(self) -> tuple:
        """Identity of the episode with wall-clock timing excluded."""
        return (
            self.seed,
            self.total_steps,
            self.success_completion,
            self.success_maxstep,
            self.error,
            tuple((s.step, s.action, s.success_now, s.mask_cells) for s in self.steps),
        )


@dataclass(frozen=True)
class BatchResult:
    n_trials: int
    rate_completion: float
    rate_maxstep: float
    mean_ms: float
    config_hash: str
    records: tuple[EpisodeRecord, ...] | None = None
    # Episodes that raised; they score as failures. Not part of replay_key.
    n_errors: int = 0

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("a batch needs at least one trial")
        if self.rate_completion < self.rate_maxstep:
            raise ValueError("completion rate cannot be below the final-step rate")
        if not 0 <= self.n_errors <= self.n_trials:
            raise ValueError("n_errors must lie in 0..n_trials")
        if self.records is not None:
            object.__setattr__(self, "records", tuple(self.records))

    def replay_key(self) -> tuple:
        recs = (
            None
            if self.records is None
            else tuple(r.replay_key() for r in self.records)
        )
        return (self.n_trials, self.rate_completion, self.rate_maxstep, self.config_hash, recs)


@dataclass(frozen=True)
class MIReport:
    mi_action_spurious: float
    mi_action_task: float
    n_rollouts: int
    n_samples: int


# -- policy and masking construction ----------------------------------------


def build_policy(cfg: PcdRunConfig, task=None):
    params = SpuriousMixtureParams(
        lam=cfg.policy.lam, sharpness=cfg.policy.sharpness, action_bins=cfg.policy.bins
    )
    if cfg.policy.kind == "mixture":
        return SpuriousMixturePolicy(params)
    if cfg.policy.kind == "diffusion":
        return MixtureDiffusionPolicy(
            params, DiffusionSchedule.cosine(cfg.policy.diffusion_steps)
        )
    if task is None:
        task = make_task(cfg.task_kind, cfg.max_steps)
    return ScriptedExpert(task)


def _fill_strategy(cfg: MaskConfig):
    if cfg.inpaint == "constant":
        return ConstantFill(cfg.constant_value)
    if cfg.inpaint == "mean":
        return BackgroundMeanFill()
    return NeighborDiffusionFill(cfg.diffusion_iterations)


class _MaskPipeline:
    """Per-episode annotate/track/inpaint state for the masked branch."""

    def __init__(self, cfg: MaskConfig, world: World, seed: int) -> None:
        self.cfg = cfg
        self.world = world
        self.seed = seed
        self.labels = world.task.instruction.target_labels
        self.strategy = _fill_strategy(cfg)
        self.trackers: list | None = None

    def _prompt_for(self, label: str, scene: Scene):
        if self.cfg.prompt == "detector":
            return DetectorPrompt(label, self.cfg.miss_prob, self.cfg.jitter)
        bitmap = self.world.ground_truth_mask(scene, label).bitmap
        cells = np.argwhere(bitmap)
        if cells.size == 0:
            raise ValueError(f"cannot place a prompt on invisible object {label!r}")
        if self.cfg.prompt == "point":
            cy, cx = cells.mean(axis=0)
            row, col = min(cells, key=lambda c: (c[0] - cy) ** 2 + (c[1] - cx) ** 2)
            return PointPrompt(int(col), int(row))
        h, w = bitmap.shape
        y0, x0 = cells.min(axis=0)
        y1, x1 = cells.max(axis=0)
        return BoxPrompt(
            max(int(x0) - 1, 0), max(int(y0) - 1, 0), min(int(x1) + 2, w), min(int(y1) + 2, h)
        )

    def masked(self, obs: Observation, scene: Scene) -> tuple[Observation, int]:
        def truth(label: str) -> np.ndarray:
            return self.world.ground_truth_mask(scene, label).bitmap

        masks: list[ObjectMask] = []
        if self.trackers is None:
            self.trackers = []
            for i, label in enumerate(self.labels):
                mask, tracker = annotate_initial(
                    obs,
                    self._prompt_for(label, scene),
                    truth=truth,
                    rng=substream(self.seed, "annotate", i),
                    tracker=self.cfg.tracker,
                )
                # A point or box mask is named after its prompt, but the
                # exact tracker looks its object up by name: follow the
                # label the prompt was placed on.
                tracker.object_id = label
                masks.append(mask)
                self.trackers.append(tracker)
        else:
            masks = [track(tr, obs, truth=truth) for tr in self.trackers]
        union = masks[0]
        for mask in masks[1:]:
            union = union.union(mask)
        return inpaint(obs, union, self.strategy), union.cell_count


# -- decoding ----------------------------------------------------------------


def _decode(
    dims: Sequence[CategoricalDist],
    dims_masked: Sequence[CategoricalDist] | None,
    cfg: DecodeConfig,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """One action from one distribution per dimension, for either policy
    family: dimension by dimension, in order, the contrast against the
    masked view's distribution when there is one, then one selected bin,
    whose center is the action's entry. A sampled selection draws from rng
    once per dimension, in dimension order."""
    if dims_masked is not None and len(dims_masked) != len(dims):
        raise ValueError(f"dimension count mismatch: {len(dims)} vs {len(dims_masked)}")
    action = np.empty(len(dims))
    for t, dist in enumerate(dims):
        if dims_masked is not None:
            dist = contrastive_combine(dist, dims_masked[t], cfg)
        action[t] = dist.grid.centers()[select_index(dist, cfg, rng)]
    return action


# -- episode runner ----------------------------------------------------------

Decide = Callable[[Observation, Observation | None, Scene, int], np.ndarray]
# A sampler request: the step's views, and the substream key of each view's
# generator. Keys rather than generators, so a request can be drawn again.
Request = tuple[list[Observation], list[tuple]]
# Live episodes per lockstep call, so at most 128 chains per sampler call.
# Each chain draws its noise up front (69 KB for a 120-step chain of 24
# draws). On calibrated views the cost per chain falls to about 0.72 ms at
# 64 chains, stays there at 128 and rises at 256. A 500-trial calibrated pcd
# call peaks about 20 MB above the one-episode-at-a-time loop at this cap,
# and about 10 MB at 32, which is 7% slower.
_LIVE_CAP = 64


def _select_rng(seed: int, step: int, decode_cfg: DecodeConfig) -> np.random.Generator | None:
    """The step's selection generator; greedy selection draws nothing."""
    return substream(seed, "select", step) if decode_cfg.selection == "sample" else None


def _decider(policy, instruction, seed: int, decode_cfg: DecodeConfig) -> Decide | None:
    """The inline per-step decision for the policy's kind, picked once per
    episode, or None for a sampler, whose draws the loop requests instead."""
    if isinstance(policy, ScriptedExpert):
        return lambda obs, obs_masked, scene, step: policy.act(scene)
    if isinstance(policy, SpuriousMixturePolicy):

        def dims(view: Observation) -> list[CategoricalDist]:
            # Each view is perceived once; its dimensions are then read off.
            percept = policy.perceive(view, instruction)
            return [policy.predict_from(percept, t) for t in range(policy.m)]

        return lambda obs, obs_masked, scene, step: _decode(
            dims(obs),
            None if obs_masked is None else dims(obs_masked),
            decode_cfg,
            _select_rng(seed, step, decode_cfg),
        )
    return None


def _sampler(policy) -> Callable[..., np.ndarray]:
    """A sampler needs only `sample`; `sample_many` is its optional batched
    form, which must equal stacking one `sample` per view."""
    sample_many = getattr(policy, "sample_many", None)
    if sample_many is not None:
        return sample_many
    return lambda views, instruction, n, rngs: np.stack(
        [policy.sample(view, instruction, n, rng) for view, rng in zip(views, rngs)]
    )


def _play(
    policy,
    world: World,
    cfg: PcdRunConfig,
    seed: int,
    contrast: bool,
    steps: list[StepLog],
    observer: Observer | None,
) -> Generator[Request, np.ndarray, None]:
    """The one step loop: decide and step until the world terminates.

    A sampler's step yields its Request and resumes with the draws for it,
    one (n, m) block per view; the expert and the autoregressive policy
    decide inline and never yield. Each step is appended to steps as it
    completes, so a caller that catches an exception still holds the steps
    before it. The observer sees the scene the action was decided on.
    """
    scene, obs = world.reset(seed)
    decide = _decider(policy, world.task.instruction, seed, cfg.decode)
    pipeline = _MaskPipeline(cfg.mask, world, seed) if contrast else None
    for step in itertools.count():
        obs_masked, mask_cells = (None, 0) if pipeline is None else pipeline.masked(obs, scene)
        if decide is None:
            views, keys = [obs], [(seed, "policy_orig", step)]
            if obs_masked is not None:
                views.append(obs_masked)
                keys.append((seed, "policy_masked", step))
            draws = yield views, keys
            dims = kde_estimate_multi(draws, cfg.kde)
            rng = _select_rng(seed, step, cfg.decode)
            action = _decode(dims[0], dims[1] if contrast else None, cfg.decode, rng)
        else:
            action = decide(obs, obs_masked, scene, step)
        next_scene, result = world.step(scene, action)
        steps.append(StepLog(result.step, tuple(action), result.success_now, mask_cells))
        if observer is not None:
            observer(step, scene, obs, obs_masked, action, result)
        if result.terminated:
            return
        scene, obs = next_scene, result.observation


class _Episode:
    """One episode's step loop in flight: its steps so far, its pending
    request, and its wall time, which includes its share of every sampler
    call that served it."""

    def __init__(
        self,
        policy,
        world: World,
        cfg: PcdRunConfig,
        seed: int,
        contrast: bool,
        observer: Observer | None,
    ) -> None:
        self.seed = seed
        self.steps: list[StepLog] = []
        self.request: Request | None = None
        self.error: Exception | None = None
        self.seconds = 0.0
        self._loop = _play(policy, world, cfg, seed, contrast, self.steps, observer)
        self.advance(None)

    def advance(self, reply: np.ndarray | Exception | None) -> None:
        """Resume the loop with the draws for its request, or raise the
        sampler's error inside it, and run it to its next request."""
        start = time.perf_counter()
        try:
            if isinstance(reply, Exception):
                self.request = self._loop.throw(reply)
            else:
                self.request = self._loop.send(reply)
        except StopIteration:
            self.request = None
        except Exception as exc:  # failed episodes score as failures, never crash a batch
            self.request, self.error = None, exc
        self.seconds += time.perf_counter() - start

    def record(self) -> EpisodeRecord:
        steps = self.steps
        error = None if self.error is None else f"{type(self.error).__name__}: {self.error}"
        scored = error is None and bool(steps)
        return EpisodeRecord(
            seed=self.seed,
            steps=tuple(steps),
            success_completion=scored and any(s.success_now for s in steps),
            success_maxstep=scored and steps[-1].success_now,
            total_steps=len(steps),
            duration_s=self.seconds,
            error=error,
        )


def _draw(sample_many, instruction, n: int, requests: list[Request]) -> np.ndarray | Exception:
    """One sampler call for every view of the requests, on fresh generators."""
    views = [view for request_views, _ in requests for view in request_views]
    rngs = [substream(*key) for _, keys in requests for key in keys]
    try:
        return sample_many(views, instruction, n, rngs)
    except Exception as exc:
        return exc


def _checked(policy, drawn: np.ndarray | Exception, requests: list[Request], n: int):
    """The sampler's reply, unless it is draws of the wrong shape.

    Draws must be (views, n, m): a reply short of a view or of an action
    dimension would otherwise be decoded as some other arm, or as some
    other episode's draws. That is a broken sampler, not a failed episode,
    so it raises out of the whole batch.
    """
    if isinstance(drawn, Exception):
        return drawn
    shape = np.shape(drawn)
    m = getattr(policy, "m", None)
    if m is None and len(shape) == 3:
        m = shape[2]  # a policy that does not declare m may draw any width
    expected = (sum(len(views) for views, _ in requests), n, m)
    if shape != expected:
        raise ValueError(
            f"{type(policy).__name__} sampler returned draws of shape {shape}, "
            f"expected (views, n, m) = {expected}"
        )
    return drawn


def _lockstep(
    policy,
    world: World,
    cfg: PcdRunConfig,
    seeds: Sequence[int],
    contrast: bool,
    observer: Observer | None = None,
) -> list[_Episode]:
    """Run one episode per seed, in seed order, and return them ended.

    Up to _LIVE_CAP episodes are live at once. Each round, one sampler call
    serves the requests of every live episode, and each episode takes an
    equal share of its time. If that call raises, each episode is served
    alone, so the error lands on the episode whose view caused it and its
    call-mates draw what they would have drawn alone. Every episode owns its
    seed and its streams, so the records do not depend on who shared a call.
    Draws of the wrong shape raise a ValueError out of the whole call.
    """
    sample_many = _sampler(policy)
    instruction, n = world.task.instruction, cfg.kde.n_samples
    pending = iter(seeds)
    episodes: list[_Episode] = []
    live: list[_Episode] = []
    while True:
        while len(live) < _LIVE_CAP and (seed := next(pending, None)) is not None:
            episodes.append(_Episode(policy, world, cfg, seed, contrast, observer))
            if episodes[-1].request is not None:
                live.append(episodes[-1])
        if not live:
            return episodes
        start = time.perf_counter()
        requests = [ep.request for ep in live]
        drawn = _checked(policy, _draw(sample_many, instruction, n, requests), requests, n)
        if not isinstance(drawn, Exception):
            ends = itertools.accumulate(len(views) for views, _ in requests)
            replies = [drawn[end - len(views) : end] for (views, _), end in zip(requests, ends)]
        elif len(live) == 1:
            replies = [drawn]
        else:
            replies = [
                _checked(policy, _draw(sample_many, instruction, n, [r]), [r], n) for r in requests
            ]
        share = (time.perf_counter() - start) / len(live)
        for ep, reply in zip(live, replies):
            ep.seconds += share
            ep.advance(reply)
        live = [ep for ep in live if ep.request is not None]


def _contrast(policy, cfg: PcdRunConfig) -> bool:
    """Whether cfg's episodes run the masked branch: only on the pcd arm,
    which the scripted expert cannot run, having nothing to contrast. With
    alpha = 0 the masked branch would change no output, so it is skipped
    and the run follows the baseline's code path and random streams."""
    if cfg.method != "pcd":
        return False
    if isinstance(policy, ScriptedExpert):
        raise ValueError("contrastive decoding cannot run on the scripted expert")
    return cfg.decode.alpha > 0.0


def run_episode(
    policy, world: World, cfg: PcdRunConfig, seed: int, observer: Observer | None = None
) -> EpisodeRecord:
    """One episode of any policy object on world, on the arm cfg.method
    names: the record evaluate_batch gives seed. The observer sees every
    step; an episode that raised is recorded with its error."""
    return _lockstep(policy, world, cfg, [seed], _contrast(policy, cfg), observer)[0].record()


def evaluate_batch(cfg: PcdRunConfig, workers: int = 1) -> BatchResult:
    """Run cfg.trials episodes with seeds base_seed .. base_seed+trials-1.

    The episodes run in lockstep: a sampler policy's chains for every live
    episode go through one `sample_many` call per step. Each episode owns
    its seed and all its state, so the records are those of running each
    episode alone, in seed order. workers is accepted for compatibility
    and changes nothing.
    """
    task = make_task(cfg.task_kind, cfg.max_steps)
    world = World(task, cfg.shift, stop_on_success=not cfg.both_metrics)
    policy = build_policy(cfg, task)
    contrast = _contrast(policy, cfg)
    seeds = [cfg.base_seed + i for i in range(cfg.trials)]
    records = [ep.record() for ep in _lockstep(policy, world, cfg, seeds, contrast)]
    n = len(records)
    return BatchResult(
        n_trials=n,
        rate_completion=sum(r.success_completion for r in records) / n,
        rate_maxstep=sum(r.success_maxstep for r in records) / n,
        mean_ms=float(np.mean([r.duration_s for r in records]) * 1e3),
        config_hash=config_hash(cfg),
        records=tuple(records),
        n_errors=sum(r.error is not None for r in records),
    )


# -- sweeps ------------------------------------------------------------------

SWEEP_AXES = (
    "alpha",
    "n_samples",
    "bandwidth",
    "miss_prob",
    "jitter",
    "inpaint",
    "shift",
    "lambda",
)


def _with_axis_value(cfg: PcdRunConfig, axis: str, value) -> PcdRunConfig:
    if axis == "alpha":
        return replace(cfg, decode=replace(cfg.decode, alpha=float(value)))
    if axis == "n_samples":
        return replace(cfg, kde=replace(cfg.kde, n_samples=int(value)))
    if axis == "bandwidth":
        bw = value if value == "scott" else float(value)
        return replace(cfg, kde=replace(cfg.kde, bandwidth=bw))
    if axis == "miss_prob":
        return replace(cfg, mask=replace(cfg.mask, miss_prob=float(value)))
    if axis == "jitter":
        return replace(cfg, mask=replace(cfg.mask, jitter=int(value)))
    if axis == "inpaint":
        return replace(cfg, mask=replace(cfg.mask, inpaint=str(value)))
    if axis == "shift":
        return replace(cfg, shift=replace(cfg.shift, kind=str(value)))
    if axis == "lambda":
        return replace(cfg, policy=replace(cfg.policy, lam=float(value)))
    raise ValueError(f"unknown sweep axis {axis!r}; choose one of {SWEEP_AXES}")


def sweep(cfg: PcdRunConfig, axis: str, values: Sequence) -> list[tuple[Any, BatchResult]]:
    """Evaluate cfg once per value of one axis; all rows share seeds. Every
    row's config is built, and so checked, before the first row runs."""
    rows = [_with_axis_value(cfg, axis, v) for v in values]
    return [(v, evaluate_batch(row)) for v, row in zip(values, rows)]


def sweep_to_csv(axis: str, rows: Sequence[tuple[Any, BatchResult]], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [axis, "trials", "rate_completion", "rate_maxstep", "mean_ms", "config_hash"]
        )
        for value, result in rows:
            writer.writerow(
                [
                    value,
                    result.n_trials,
                    result.rate_completion,
                    result.rate_maxstep,
                    result.mean_ms,
                    result.config_hash,
                ]
            )


# -- persistence ---------------------------------------------------------------

RESULT_FIELDS = (
    "config_hash",
    "task",
    "shift",
    "method",
    "alpha",
    "n",
    "trials",
    "rate_completion",
    "rate_maxstep",
    "mean_ms",
    "seed",
    "timestamp",
)


def result_row(cfg: PcdRunConfig, result: BatchResult, timestamp: float | None = None) -> dict:
    return {
        "config_hash": result.config_hash,
        "task": cfg.task_kind,
        "shift": cfg.shift.kind,
        "method": cfg.method,
        "alpha": cfg.decode.alpha,
        "n": cfg.kde.n_samples,
        "trials": result.n_trials,
        "rate_completion": result.rate_completion,
        "rate_maxstep": result.rate_maxstep,
        "mean_ms": result.mean_ms,
        "n_errors": result.n_errors,
        "seed": cfg.base_seed,
        "timestamp": time.time() if timestamp is None else timestamp,
    }


def append_results(
    path: str | Path, rows: Sequence[dict] | dict
) -> None:
    """Append result rows to a JSONL file, one object per line."""
    if isinstance(rows, dict):
        rows = [rows]
    for row in rows:
        missing = set(RESULT_FIELDS) - set(row)
        if missing:
            raise ValueError(f"result row is missing fields: {sorted(missing)}")
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# -- statistics ----------------------------------------------------------------


def paired_bootstrap_pvalue(
    treatment: Sequence[float],
    control: Sequence[float],
    n_boot: int = 10000,
    seed: int = 0,
) -> float:
    """One-sided p-value for mean(treatment - control) > 0 on paired outcomes."""
    if len(treatment) != len(control):
        raise ValueError("treatment and control must pair one-to-one")
    diffs = np.asarray(treatment, dtype=np.float64) - np.asarray(control, dtype=np.float64)
    if diffs.size == 0:
        raise ValueError("paired bootstrap needs at least one pair")
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    chunk = 2000
    for start in range(0, n_boot, chunk):
        take = min(chunk, n_boot - start)
        idx = rng.integers(0, diffs.size, size=(take, diffs.size))
        hits += int((diffs[idx].mean(axis=1) <= 0.0).sum())
    return (1 + hits) / (n_boot + 1)


def discrete_mi(xs: Sequence, ys: Sequence) -> float:
    """Plug-in mutual information of two aligned symbol streams, in bits."""
    if len(xs) != len(ys):
        raise ValueError("symbol streams must have equal length")
    n = len(xs)
    if n == 0:
        raise ValueError("mutual information needs at least one sample")
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), c in joint.items():
        p_xy = c / n
        mi += p_xy * math.log2(p_xy * n * n / (px[x] * py[y]))
    return max(mi, 0.0)


def _quadrant(x: float, y: float) -> int:
    return int(x >= 0.5) + 2 * int(y >= 0.5)


def estimate_mi(
    policy,
    world: World,
    n_rollouts: int = 300,
    base_seed: int = 0,
    kde_cfg: KdeConfig | None = None,
    decode_cfg: DecodeConfig | None = None,
) -> MIReport:
    """Mutual information between executed actions and scene factors.

    Rolls out the plain policy (no masking) and quantizes each executed
    action into the policy's bin grids. The spurious factor is the light
    patch position quadrant; the task factor is the quadrant of the
    gripper-to-target direction. Per-step streams follow the standard
    seeding discipline, so reports are reproducible.
    """
    if n_rollouts < 100:
        raise ValueError("mutual information needs at least 100 rollouts")
    cfg = PcdRunConfig(
        kde=kde_cfg if kde_cfg is not None else KdeConfig(),
        decode=decode_cfg if decode_cfg is not None else DecodeConfig(),
    )
    grids = getattr(policy, "grids", None)
    if grids is None:
        grids = default_grids(SpuriousMixtureParams(lam=0.0))
    target_label = world.task.instruction.target_labels[0]

    actions: list[tuple[int, ...]] = []
    spurious: list[int] = []
    task_factor: list[int] = []

    def observe(step, scene, obs, obs_masked, action, result) -> None:
        target = next(o for o in scene.objects if o.label == target_label)
        actions.append(tuple(g.index_of(float(a)) for g, a in zip(grids, action)))
        spurious.append(_quadrant(scene.spurious.light_x, scene.spurious.light_y))
        task_factor.append(
            int(target.x >= scene.gripper_x) + 2 * int(target.y >= scene.gripper_y)
        )

    for i in range(n_rollouts):
        [episode] = _lockstep(policy, world, cfg, [base_seed + i], False, observe)
        if episode.error is not None:
            raise episode.error
    return MIReport(
        mi_action_spurious=discrete_mi(actions, spurious),
        mi_action_task=discrete_mi(actions, task_factor),
        n_rollouts=n_rollouts,
        n_samples=len(actions),
    )


# -- calibration ---------------------------------------------------------------


def benchmark_config(
    lam: float,
    method: str = "baseline",
    alpha: float = 1.0,
    trials: int = 500,
    base_seed: int = 0,
    diffusion_steps: int = 120,
) -> PcdRunConfig:
    """The canonical benchmark: diffusion-sampler policy on the reach task
    under the brightness shift, exact detector, background-mean fill."""
    return PcdRunConfig(
        method=method,
        task_kind="reach",
        shift=ShiftSpec(kind="brightness"),
        decode=DecodeConfig(alpha=alpha),
        kde=KdeConfig(n_samples=24),
        mask=MaskConfig(prompt="detector", tracker="nearest", inpaint="mean"),
        policy=PolicyConfig(kind="diffusion", lam=lam, diffusion_steps=diffusion_steps),
        trials=trials,
        base_seed=base_seed,
    )


def calibrate(
    lambdas: Sequence[float] = (0.5, 0.55, 0.6, 0.65, 0.7),
    coarse_trials: int = 150,
    trials: int = 500,
    target_band: tuple[float, float] = (0.2, 0.5),
    out_path: str | Path | None = None,
) -> dict:
    """Pick the mixture weight that lands the baseline in the target band.

    Coarse pass scores each candidate weight with a small batch; the one
    whose baseline rate is closest to the band center is re-measured at
    full size together with its contrastive counterpart.
    """
    lo, hi = target_band
    center = (lo + hi) / 2.0
    coarse: list[tuple[float, float]] = []
    for lam in lambdas:
        rate = evaluate_batch(benchmark_config(lam, trials=coarse_trials)).rate_completion
        coarse.append((lam, rate))
    lam = min(coarse, key=lambda pair: abs(pair[1] - center))[0]

    base_cfg = benchmark_config(lam, method="baseline", trials=trials)
    pcd_cfg = benchmark_config(lam, method="pcd", alpha=1.0, trials=trials)
    base = evaluate_batch(base_cfg)
    treated = evaluate_batch(pcd_cfg)
    p_value = paired_bootstrap_pvalue(
        [r.success_completion for r in treated.records],
        [r.success_completion for r in base.records],
    )
    report = {
        "lambda": lam,
        "coarse": [{"lambda": l, "rate_completion": r} for l, r in coarse],
        "trials": trials,
        "baseline_rate": base.rate_completion,
        "pcd_rate": treated.rate_completion,
        "p_value": p_value,
        "target_band": [lo, hi],
        "in_band": lo <= base.rate_completion <= hi,
        "baseline_config": to_dict(base_cfg),
        "pcd_config": to_dict(pcd_cfg),
        "timestamp": time.time(),
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
