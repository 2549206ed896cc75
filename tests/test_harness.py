"""Episode driver, batch evaluator, sweeps, persistence, statistics."""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcd.config import (
    INPAINT_KINDS,
    METHODS,
    POLICY_KINDS,
    PROMPT_KINDS,
    TRACKER_KINDS,
    MaskConfig,
    PcdRunConfig,
    PolicyConfig,
    config_hash,
    from_dict,
    load_config,
    merge,
    to_dict,
)
import pcd.harness
from pcd.dists import DecodeConfig, KdeConfig
from pcd.harness import (
    BatchResult,
    EpisodeRecord,
    StepLog,
    _decode_autoregressive,
    append_results,
    batch_from_row,
    build_policy,
    discrete_mi,
    estimate_mi,
    evaluate_batch,
    load_results,
    paired_bootstrap_pvalue,
    result_row,
    run_episode,
    sweep,
    sweep_to_csv,
)
from pcd.masking import ConstantFill, NeighborDiffusionFill, inpaint
from pcd.policies import (
    MixtureDiffusionPolicy,
    PrefixContext,
    ScriptedExpert,
    SpuriousMixtureParams,
    SpuriousMixturePolicy,
    find_gripper,
)
from pcd.raster import Observation
from pcd.seeding import substream
from pcd.world import GRIPPER_INTENSITY, TASK_KINDS, ShiftSpec, World, make_task

import reference_impl as frozen

CALIBRATED = Path(__file__).resolve().parent.parent / "configs" / "calibrated.json"
CALIBRATED_HASHES = {"baseline_config": "eaccef28d0d1afd8", "pcd_config": "f3562d9a59bd18a8"}

ALPHA_ZERO_SEEDS = 20
PURE_SPURIOUS_TRIALS = 200
PURE_SPURIOUS_CEILING = 0.2
NO_SPURIOUS_TRIALS = 200
NO_SPURIOUS_GAP = 0.02


def mixture_cfg(**overrides) -> PcdRunConfig:
    base = dict(
        method="baseline",
        task_kind="reach",
        shift=ShiftSpec(kind="brightness"),
        policy=PolicyConfig(kind="mixture", lam=0.65),
        trials=20,
        base_seed=0,
    )
    base.update(overrides)
    return PcdRunConfig(**base)


def diffusion_cfg(**overrides) -> PcdRunConfig:
    base = dict(
        method="pcd",
        task_kind="reach",
        shift=ShiftSpec(kind="brightness"),
        policy=PolicyConfig(kind="diffusion", lam=0.65, diffusion_steps=40),
        trials=10,
        base_seed=0,
    )
    base.update(overrides)
    return PcdRunConfig(**base)


def make_record(flags: tuple[bool, ...], seed: int = 0, error: str | None = None) -> EpisodeRecord:
    steps = tuple(
        StepLog(step=i + 1, action=(0.0, 0.0, 0.0), success_now=f, mask_cells=0)
        for i, f in enumerate(flags)
    )
    return EpisodeRecord(
        seed=seed,
        steps=steps,
        success_completion=False if error else any(flags),
        success_maxstep=False if error else (bool(flags) and flags[-1]),
        total_steps=len(steps),
        duration_s=0.01,
        error=error,
    )


class BoomPolicy:
    """Sampler stand-in whose very first query explodes."""

    m = 3

    def sample(self, obs, instruction, n, rng):
        raise RuntimeError("boom")


class SampleOnly:
    """A sampler that exposes only `sample`, the plugin contract's minimum."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.m = policy.m

    def sample(self, obs, instruction, n, rng):
        return self.policy.sample(obs, instruction, n, rng)


class RaisesOnMarkedView:
    """A sampler that draws every chain of a call, and then raises if any
    of the call's views is the marked one."""

    def __init__(self, policy, marked: Observation) -> None:
        self.policy = policy
        self.m = policy.m
        self.marked = marked

    def sample_many(self, views, instruction, n, rngs):
        draws = self.policy.sample_many(views, instruction, n, rngs)
        if any(np.array_equal(view.planes, self.marked.planes) for view in views):
            raise RuntimeError("marked view")
        return draws


class ReplyCut:
    """A sampler whose replies lose their last entry along one axis: a view
    of the batched call, a draw, or an action dimension."""

    def __init__(self, policy, axis: int, batched: bool = True) -> None:
        self.policy = policy
        self.m = policy.m
        self.axis = axis
        if not batched:  # only `sample`, which the harness stacks per view
            self.sample_many = None

    def sample_many(self, views, instruction, n, rngs):
        draws = self.policy.sample_many(views, instruction, n, rngs)
        return np.delete(draws, -1, axis=self.axis)

    def sample(self, obs, instruction, n, rng):
        return np.delete(self.policy.sample(obs, instruction, n, rng), -1, axis=self.axis - 1)


# -------------------------------------------------------------- records


def test_episode_record_invariants() -> None:
    ok = make_record((False, False, True))
    assert ok.success_completion and ok.success_maxstep
    with pytest.raises(ValueError, match="success_completion"):
        EpisodeRecord(0, ok.steps, False, True, 3, 0.0)
    with pytest.raises(ValueError, match="success_maxstep"):
        EpisodeRecord(0, make_record((True, False)).steps, True, True, 2, 0.0)
    with pytest.raises(ValueError, match="cannot count"):
        EpisodeRecord(0, (), True, False, 0, 0.0, error="x")
    with pytest.raises(ValueError, match="number of logged steps"):
        EpisodeRecord(0, ok.steps, True, True, 5, 0.0)


def test_error_record_scores_as_failure() -> None:
    rec = make_record((True, True), error="RuntimeError: boom")
    assert not rec.success_completion and not rec.success_maxstep
    assert rec.replay_key()[4] == "RuntimeError: boom"


def test_batch_result_invariants() -> None:
    with pytest.raises(ValueError, match="at least one"):
        BatchResult(0, 0.0, 0.0, 1.0, "h")
    with pytest.raises(ValueError, match="cannot be below"):
        BatchResult(4, 0.25, 0.5, 1.0, "h")
    with pytest.raises(ValueError, match="n_errors"):
        BatchResult(4, 0.5, 0.25, 1.0, "h", n_errors=5)
    # errors are counted beside the records, not in the replay identity
    counted = BatchResult(4, 0.5, 0.25, 1.0, "h", n_errors=2)
    assert counted.replay_key() == BatchResult(4, 0.5, 0.25, 1.0, "h").replay_key()


# ------------------------------------------------------------- episodes


def test_baseline_episode_is_deterministic() -> None:
    cfg = mixture_cfg()
    world = World(make_task("reach"), cfg.shift)
    policy = build_policy(cfg)
    a = run_episode(policy, world, cfg, seed=7)
    b = run_episode(policy, world, cfg, seed=7)
    assert a.replay_key() == b.replay_key()
    c = run_episode(policy, world, cfg, seed=8)
    assert c.replay_key() != a.replay_key()


def test_alpha_zero_episode_matches_baseline_bitwise() -> None:
    """Zero contrast strength takes the exact baseline code path."""
    base = diffusion_cfg(method="baseline", decode=DecodeConfig(alpha=0.0))
    zero = diffusion_cfg(method="pcd", decode=DecodeConfig(alpha=0.0))
    world = World(make_task("reach"), base.shift)
    policy = build_policy(base)
    for seed in range(ALPHA_ZERO_SEEDS):
        a = run_episode(policy, world, base, seed)
        b = run_episode(policy, world, zero, seed)
        assert a.replay_key() == b.replay_key()


def test_alpha_zero_mixture_policy_identity() -> None:
    cfg = mixture_cfg()
    world = World(make_task("reach"), cfg.shift)
    policy = build_policy(cfg)
    zero = replace(cfg, method="pcd", decode=DecodeConfig(alpha=0.0))
    for seed in range(5):
        a = run_episode(policy, world, cfg, seed)
        b = run_episode(policy, world, zero, seed)
        assert a.replay_key() == b.replay_key()


def test_expert_baseline_solves_everything() -> None:
    cfg = mixture_cfg(
        shift=ShiftSpec(kind="none"),
        policy=PolicyConfig(kind="expert"),
        task_kind="pick_place",
        trials=12,
    )
    result = evaluate_batch(cfg)
    assert result.rate_completion == 1.0
    assert result.rate_maxstep == 1.0


def test_expert_cannot_run_contrastively() -> None:
    cfg = mixture_cfg(policy=PolicyConfig(kind="expert"))
    world = World(make_task("reach"), cfg.shift)
    policy = build_policy(cfg)
    assert run_episode(policy, world, cfg, seed=0).success_completion
    message = "^contrastive decoding cannot run on the scripted expert$"
    for alpha in (0.0, 1.0):  # one rule and one message, at any alpha
        pcd = replace(cfg, method="pcd", decode=DecodeConfig(alpha=alpha))
        with pytest.raises(ValueError, match=message):
            run_episode(policy, world, pcd, seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate_batch(pcd)


def test_run_episode_gives_the_batch_record_on_either_arm() -> None:
    for cfg in (mixture_cfg(trials=3), diffusion_cfg(trials=2)):
        world = World(make_task(cfg.task_kind, cfg.max_steps), cfg.shift)
        policy = build_policy(cfg)
        for method in ("baseline", "pcd"):
            arm = replace(cfg, method=method)
            batch = evaluate_batch(arm)
            assert batch.n_errors == 0
            for rec in batch.records:
                assert run_episode(policy, world, arm, rec.seed).replay_key() == rec.replay_key()
            masked = {s.mask_cells > 0 for r in batch.records for s in r.steps}
            assert masked == ({True} if method == "pcd" else {False})


@pytest.mark.parametrize("task_kind", ["reach", "move_near"])
@pytest.mark.parametrize("prompt", ["point", "box"])
def test_exact_tracker_follows_a_point_or_box_prompt(prompt: str, task_kind: str) -> None:
    # the prompt names its mask after itself, not after an object; the
    # exact tracker must still look up the label the prompt was placed on
    cfg = mixture_cfg(
        method="pcd",
        task_kind=task_kind,
        mask=MaskConfig(prompt=prompt, tracker="exact"),
        trials=6,
    )
    result = evaluate_batch(cfg)
    assert result.n_errors == 0
    world = World(make_task(task_kind), cfg.shift)
    labels = world.task.instruction.target_labels
    seen = []

    def observer(step, scene, obs, obs_masked, action, result) -> None:
        if step > 0:  # after the prompt, the mask is the labels' ground truth
            truth = world.ground_truth_mask(scene, labels[0])
            for label in labels[1:]:
                truth = truth.union(world.ground_truth_mask(scene, label))
            seen.append(truth.cell_count)

    rec = run_episode(build_policy(cfg), world, cfg, seed=0, observer=observer)
    assert rec.replay_key() == result.records[0].replay_key()
    assert seen and [s.mask_cells for s in rec.steps[1:]] == seen


def test_component_errors_become_failed_trials() -> None:
    cfg = diffusion_cfg(method="baseline", trials=3)
    world = World(make_task("reach"), cfg.shift)
    rec = run_episode(BoomPolicy(), world, cfg, seed=0)
    assert rec.error == "RuntimeError: boom"
    assert not rec.success_completion and not rec.success_maxstep
    assert rec.total_steps == 0


def test_sample_only_policy_replays_the_batched_sampler() -> None:
    # the sampler seam stacks one `sample` per view when a policy has no
    # `sample_many`; the records must be the batched path's, bit for bit
    report = json.loads(CALIBRATED.read_text())
    for name in ("baseline_config", "pcd_config"):
        cfg = from_dict(report[name])
        world = World(make_task(cfg.task_kind, cfg.max_steps), cfg.shift)
        policy = build_policy(cfg)
        assert hasattr(policy, "sample_many") and not hasattr(SampleOnly(policy), "sample_many")
        for ep_seed in range(3):
            rec = run_episode(policy, world, cfg, seed=ep_seed)
            assert rec.error is None
            plain = run_episode(SampleOnly(policy), world, cfg, seed=ep_seed)
            assert plain.replay_key() == rec.replay_key()


@pytest.mark.parametrize("make_cfg", [mixture_cfg, diffusion_cfg])
@pytest.mark.parametrize("selection", ["greedy", "sample"])
def test_select_streams_are_built_only_for_sampled_selection(make_cfg, selection, monkeypatch):
    # greedy selection draws nothing, so its steps build no "select" stream;
    # the records are those of a loop that builds one on every step
    cfg = make_cfg(method="pcd", trials=2)
    cfg = replace(cfg, decode=replace(cfg.decode, selection=selection))
    with monkeypatch.context() as patch:
        patch.setattr(pcd.harness, "_select_rng", lambda s, step, _: substream(s, "select", step))
        always = evaluate_batch(cfg, workers=1)
    built = []

    def spy(seed, *path):
        if path[0] == "select":
            built.append((seed, *path))
        return substream(seed, *path)

    monkeypatch.setattr(pcd.harness, "substream", spy)
    result = evaluate_batch(cfg, workers=1)
    assert result.n_errors == 0
    assert [r.replay_key() for r in result.records] == [r.replay_key() for r in always.records]
    per_step = [(r.seed, "select", step) for r in result.records for step in range(r.total_steps)]
    assert sorted(built) == (sorted(per_step) if selection == "sample" else [])


# ------------------------------------------------------------- lockstep


@seed(34)
@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(("baseline", "pcd")),
    alpha=st.sampled_from((0.0, 0.5, 1.0)),
    chain=st.integers(5, 20),
    trials=st.integers(1, 9),
    base_seed=st.integers(0, 10_000),
    lam=st.floats(min_value=0.0, max_value=1.0),
    shift=st.sampled_from(("none", "brightness", "distractors")),
    max_steps=st.integers(1, 15),
    kind=st.sampled_from(("sample_many", "sample_only", "raises", "autoregressive")),
    marked=st.tuples(st.integers(0, 8), st.floats(min_value=0.0, max_value=1.0)),
    cap=st.sampled_from((1, 3, 64)),
)
def test_lockstep_batch_equals_the_frozen_serial_loop(
    method, alpha, chain, trials, base_seed, lam, shift, max_steps, kind, marked, cap
) -> None:
    # evaluate_batch runs its episodes in lockstep, one sampler call per
    # round; every record must be the one the serial loop gives that seed
    # alone, also beside an episode whose view makes the sampler raise, and
    # when a small cap on live episodes admits seeds as others end
    cfg = diffusion_cfg(
        method=method,
        decode=DecodeConfig(alpha=alpha),
        policy=PolicyConfig(
            kind="mixture" if kind == "autoregressive" else "diffusion",
            lam=lam,
            diffusion_steps=chain,
        ),
        trials=trials,
        base_seed=base_seed,
        shift=ShiftSpec(kind=shift),
        max_steps=max_steps,
    )
    world = World(make_task(cfg.task_kind, cfg.max_steps), cfg.shift)
    policy = build_policy(cfg)
    contrast = method == "pcd" and alpha > 0.0
    seeds = range(base_seed, base_seed + trials)
    bad = marked[0] % trials
    if kind == "sample_only":
        policy = SampleOnly(policy)
    elif kind == "raises":
        views: list[Observation] = []
        frozen._run_episode(
            policy, world, cfg, seeds[bad], contrast,
            observer=lambda step, scene, obs, *_: views.append(obs),
        )
        policy = RaisesOnMarkedView(policy, views[round(marked[1] * (len(views) - 1))])
    expected = [frozen._run_episode(policy, world, cfg, s, contrast).replay_key() for s in seeds]
    with (
        mock.patch.object(pcd.harness, "build_policy", lambda cfg, task=None: policy),
        mock.patch.object(pcd.harness, "_LIVE_CAP", cap),
    ):
        got = evaluate_batch(cfg)
    assert [r.replay_key() for r in got.records] == expected
    assert got.n_errors == sum(key[4] is not None for key in expected)
    if kind == "raises":
        assert expected[bad][4] == "RuntimeError: marked view"
        assert got.n_errors == 1


def test_lockstep_makes_one_sample_many_call_per_round(monkeypatch) -> None:
    # one call serves every live episode: C = 2 per live episode on the pcd
    # arm and 1 on the baseline arm, and a call of one seed draws alone
    chains: list[int] = []
    sample_many = MixtureDiffusionPolicy.sample_many

    def spy(self, views, instruction, n, rngs):
        chains.append(len(views))
        return sample_many(self, views, instruction, n, rngs)

    monkeypatch.setattr(MixtureDiffusionPolicy, "sample_many", spy)
    report = json.loads(CALIBRATED.read_text())
    for name, per_episode in (("baseline_config", 1), ("pcd_config", 2)):
        cfg = from_dict(report[name])
        for base_seed in (0, 6):
            chains.clear()
            result = evaluate_batch(replace(cfg, trials=2, base_seed=base_seed))
            assert result.n_errors == 0
            short, long = sorted(r.total_steps for r in result.records)
            assert short < long
            assert chains == [2 * per_episode] * short + [per_episode] * (long - short)
        for ep_seed in (0, 1):
            chains.clear()
            result = evaluate_batch(replace(cfg, trials=1, base_seed=ep_seed))
            assert result.n_errors == 0
            assert chains == [per_episode] * result.records[0].total_steps


@pytest.mark.parametrize(
    "axis, batched, got, expected",
    [
        (0, True, "(7, 24, 3)", "(8, 24, 3)"),  # one view short
        (2, True, "(8, 24, 2)", "(8, 24, 3)"),  # one action dimension short
        (2, False, "(8, 24, 2)", "(8, 24, 3)"),  # the stacked `sample` fallback
        (1, False, "(8, 23, 3)", "(8, 24, 3)"),
    ],
)
def test_a_sampler_reply_of_the_wrong_shape_fails_the_whole_batch(
    axis, batched, got, expected
) -> None:
    # a reply one view short used to be sliced so that one episode decoded
    # a single view as the plain arm: records changed, with no error counted
    cfg = from_dict(json.loads(CALIBRATED.read_text())["pcd_config"])
    policy = ReplyCut(build_policy(cfg), axis, batched)
    with mock.patch.object(pcd.harness, "build_policy", lambda cfg, task=None: policy):
        with pytest.raises(ValueError) as raised:
            evaluate_batch(replace(cfg, trials=4))
    message = str(raised.value)
    assert message.startswith("ReplyCut sampler returned draws of shape")
    assert got in message and expected in message
    world = World(make_task(cfg.task_kind, cfg.max_steps), cfg.shift)
    with pytest.raises(ValueError, match="ReplyCut sampler"):
        run_episode(policy, world, replace(cfg, method="baseline"), seed=0)


def without_gripper(obs: Observation) -> Observation:
    planes = obs.planes.copy()
    planes[0][planes[0] == GRIPPER_INTENSITY] = 0.0
    out = Observation(planes, obs.step_index)
    assert find_gripper(out) is None
    return out


@seed(24)
@settings(max_examples=120, deadline=None)
@given(
    task=st.sampled_from(("reach", "move_near")),
    shift=st.sampled_from(("none", "spatial", "brightness", "distractors", "texture")),
    scene_seed=st.integers(0, 10_000),
    moves=st.integers(0, 4),
    view=st.sampled_from(("plain", "no_gripper")),
    masked=st.sampled_from((None, "constant", "diffusion", "no_gripper")),
    alpha=st.sampled_from((0.5, 1.0, 2.0)),
    lam=st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0),
    selection=st.sampled_from(("greedy", "sample")),
    step=st.integers(0, 79),
)
def test_decode_autoregressive_equals_the_frozen_prefix_loop(
    task, shift, scene_seed, moves, view, masked, alpha, lam, selection, step
) -> None:
    # one perception pass per view must give the actions of predicting
    # each dimension from scratch after the prefix, on the same select draws
    world = World(make_task(task), ShiftSpec(kind=shift))
    scene, obs = world.reset(scene_seed)
    rng = np.random.default_rng(scene_seed)
    for _ in range(moves):
        scene, result = world.step(scene, rng.uniform(-0.1, 1.0, size=3))
        obs = result.observation
        if result.terminated:
            break
    labels = world.task.instruction.target_labels
    union = world.ground_truth_mask(scene, labels[0])
    for label in labels[1:]:
        union = union.union(world.ground_truth_mask(scene, label))
    obs_masked = {
        None: None,
        "constant": inpaint(obs, union, ConstantFill(0.0)),
        "diffusion": inpaint(obs, union, NeighborDiffusionFill(25)),
        "no_gripper": without_gripper(obs),
    }[masked]
    if view == "no_gripper":
        obs = without_gripper(obs)
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=lam))
    decode_cfg = DecodeConfig(alpha=alpha, selection=selection)
    instruction = world.task.instruction
    got = _decode_autoregressive(
        policy, obs, obs_masked, instruction, decode_cfg, substream(scene_seed, "select", step)
    )
    expect = frozen.decode_autoregressive(
        policy, obs, obs_masked, instruction, decode_cfg, substream(scene_seed, "select", step)
    )
    assert np.array_equal(got, expect)
    for t in range(policy.m):
        prefix = PrefixContext(tuple(policy.grids[d].index_of(got[d]) for d in range(t)))
        dist = policy.predict(obs, instruction, prefix)
        assert dist.grid == policy.grids[t]
        assert np.array_equal(dist.probs, frozen.predict(policy, obs, instruction, prefix).probs)


def test_observer_receives_the_pre_step_scene() -> None:
    cfg = mixture_cfg()
    world = World(make_task("reach"), cfg.shift)
    policy = build_policy(cfg)
    pcd = replace(cfg, method="pcd")
    for run_cfg in (cfg, pcd):
        seen = []

        def observer(step, scene, obs, obs_masked, action, result) -> None:
            seen.append((step, scene.step, result.step, obs_masked is not None))

        rec = run_episode(policy, world, run_cfg, seed=3, observer=observer)
        assert rec.error is None
        assert [s[0] for s in seen] == list(range(rec.total_steps))
        for step, scene_step, result_step, masked in seen:
            assert scene_step == step
            assert result_step == step + 1
            assert masked == (run_cfg.method == "pcd")


def test_pure_spurious_policy_fails_under_spatial_shift() -> None:
    """A light-chasing policy cannot reach relocated targets."""
    cfg = mixture_cfg(
        shift=ShiftSpec(kind="spatial"),
        policy=PolicyConfig(kind="mixture", lam=1.0),
        trials=PURE_SPURIOUS_TRIALS,
    )
    result = evaluate_batch(cfg)
    assert result.rate_completion <= PURE_SPURIOUS_CEILING


def test_contrast_is_harmless_without_spurious_reliance() -> None:
    """lambda = 0 leaves nothing to correct: PCD stays within 2 points."""
    base = mixture_cfg(
        shift=ShiftSpec(kind="none"),
        policy=PolicyConfig(kind="mixture", lam=0.0),
        trials=NO_SPURIOUS_TRIALS,
    )
    treated = replace(base, method="pcd", decode=DecodeConfig(alpha=1.0))
    rate_base = evaluate_batch(base).rate_completion
    rate_pcd = evaluate_batch(treated).rate_completion
    assert abs(rate_pcd - rate_base) <= NO_SPURIOUS_GAP


def test_pcd_costs_at_least_as_much_wall_clock() -> None:
    # Fixed-length episodes isolate the per-step cost: the contrastive arm
    # pays for masking plus a second policy query every step.
    base = diffusion_cfg(
        method="baseline",
        trials=6,
        max_steps=12,
        both_metrics=True,
        policy=PolicyConfig(kind="diffusion", lam=0.65, diffusion_steps=60),
    )
    treated = replace(base, method="pcd", decode=DecodeConfig(alpha=1.0))
    # The arms are timed in turn, five times each, and their medians
    # compared, so one slow spell of the host cannot flip the order.
    base_ms, pcd_ms = [], []
    for _ in range(5):
        base_ms.append(evaluate_batch(base).mean_ms)
        pcd_ms.append(evaluate_batch(treated).mean_ms)
    assert statistics.median(pcd_ms) >= statistics.median(base_ms)


# --------------------------------------------------------------- batches


def test_batch_rates_are_exact_record_fractions() -> None:
    cfg = mixture_cfg(trials=25)
    result = evaluate_batch(cfg)
    n = result.n_trials
    assert n == 25
    assert result.rate_completion == sum(r.success_completion for r in result.records) / n
    assert result.rate_maxstep == sum(r.success_maxstep for r in result.records) / n
    assert result.rate_completion >= result.rate_maxstep
    assert [r.seed for r in result.records] == list(range(25))


def test_serial_and_parallel_batches_agree() -> None:
    cfg = mixture_cfg(trials=12, base_seed=100)
    serial = evaluate_batch(cfg, workers=1)
    threaded = evaluate_batch(cfg, workers=4)
    assert serial.replay_key() == threaded.replay_key()


def test_both_metrics_mode_runs_to_budget() -> None:
    cfg = mixture_cfg(trials=30, both_metrics=True, max_steps=25)
    result = evaluate_batch(cfg)
    for rec in result.records:
        assert rec.error is None
        assert rec.total_steps == 25  # no early stop
    stop_early = evaluate_batch(replace(cfg, both_metrics=False))
    # the completion metric is invariant to the termination mode: the
    # prefix before the first success is identical stream-for-stream
    assert stop_early.rate_completion == result.rate_completion
    assert result.rate_maxstep <= result.rate_completion


# ---------------------------------------------------------------- sweeps


def test_sweep_alpha_zero_entry_is_the_baseline() -> None:
    cfg = mixture_cfg(trials=15)
    baseline = evaluate_batch(cfg)
    rows = sweep(replace(cfg, method="pcd"), "alpha", [0.0])
    assert len(rows) == 1
    alpha, entry = rows[0]
    assert alpha == 0.0
    assert entry.rate_completion == baseline.rate_completion
    assert entry.rate_maxstep == baseline.rate_maxstep
    assert [r.replay_key() for r in entry.records] == [
        r.replay_key() for r in baseline.records
    ]


def test_sweep_shares_seeds_across_rows() -> None:
    cfg = mixture_cfg(trials=8, base_seed=50)
    rows = sweep(cfg, "shift", ["none", "brightness", "spatial"])
    assert [v for v, _ in rows] == ["none", "brightness", "spatial"]
    for _, entry in rows:
        assert [r.seed for r in entry.records] == list(range(50, 58))


def test_sweep_axis_values_change_the_config() -> None:
    cfg = mixture_cfg()
    rows = sweep(replace(cfg, trials=4), "miss_prob", [0.0, 0.5])
    assert rows[0][1].config_hash != rows[1][1].config_hash
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(cfg, "gravity", [1.0])


def test_sweep_csv_round_trip(tmp_path) -> None:
    cfg = mixture_cfg(trials=5)
    rows = sweep(cfg, "alpha", [0.0, 1.0])
    out = tmp_path / "sweep.csv"
    sweep_to_csv("alpha", rows, out)
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["alpha", "trials", "rate_completion", "rate_maxstep", "mean_ms", "config_hash"]
    assert len(table) == 3
    assert table[1][0] == "0.0" and table[2][0] == "1.0"
    assert float(table[1][2]) == rows[0][1].rate_completion


# ------------------------------------------------------------ persistence


def test_results_round_trip_exactly(tmp_path) -> None:
    cfg = mixture_cfg(trials=9)
    result = evaluate_batch(cfg)
    row = result_row(cfg, result, timestamp=1234.5)
    path = tmp_path / "results.jsonl"
    append_results(path, row)
    append_results(path, [result_row(cfg, result, timestamp=1235.5)])
    rows = load_results(path)
    assert len(rows) == 2
    assert rows[0] == row
    rebuilt = batch_from_row(rows[0])
    assert rebuilt.rate_completion == result.rate_completion
    assert rebuilt.rate_maxstep == result.rate_maxstep
    assert rebuilt.mean_ms == result.mean_ms
    assert rebuilt.config_hash == result.config_hash
    assert rebuilt.records is None
    failed = replace(result, n_errors=3)
    append_results(path, result_row(cfg, failed, timestamp=1236.5))
    row = load_results(path)[2]
    assert batch_from_row(row).n_errors == 3
    # Rows saved before the count was stored still load, with no errors.
    del row["n_errors"]
    assert batch_from_row(row).n_errors == 0


def test_malformed_results_name_the_line(tmp_path) -> None:
    path = tmp_path / "results.jsonl"
    cfg = mixture_cfg(trials=2)
    append_results(path, result_row(cfg, evaluate_batch(cfg), timestamp=0.0))
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError, match=r"results\.jsonl:2"):
        load_results(path)
    missing = tmp_path / "short.jsonl"
    with open(missing, "w") as fh:
        fh.write('{"config_hash": "x"}\n')
    with pytest.raises(ValueError, match=r"short\.jsonl:1"):
        load_results(missing)
    with pytest.raises(ValueError, match="missing fields"):
        append_results(path, {"config_hash": "x"})


def test_config_hash_tracks_every_field() -> None:
    cfg = mixture_cfg()
    assert config_hash(cfg) == config_hash(mixture_cfg())
    variants = [
        replace(cfg, decode=DecodeConfig(alpha=0.5)),
        replace(cfg, kde=KdeConfig(n_samples=8)),
        replace(cfg, mask=MaskConfig(inpaint="constant")),
        replace(cfg, policy=PolicyConfig(kind="mixture", lam=0.2)),
        replace(cfg, base_seed=1),
        replace(cfg, trials=21),
        replace(cfg, shift=ShiftSpec(kind="none")),
    ]
    hashes = {config_hash(v) for v in variants}
    assert len(hashes) == len(variants)
    assert config_hash(cfg) not in hashes


# ---------------------------------------------------------- configuration


def test_config_dict_round_trip() -> None:
    cfg = mixture_cfg(
        decode=DecodeConfig(alpha=0.8, selection="sample"),
        kde=KdeConfig(n_samples=12, bandwidth=0.03),
        mask=MaskConfig(prompt="box", tracker="exact", inpaint="diffusion"),
        trials=77,
        base_seed=11,
        both_metrics=True,
        max_steps=33,
    )
    again = from_dict(to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_rejects_unknown_keys() -> None:
    raw = to_dict(mixture_cfg())
    raw["decode"]["beta"] = 2.0
    with pytest.raises(ValueError, match="beta"):
        from_dict(raw)
    with pytest.raises(ValueError, match="warp"):
        from_dict({"warp": 9})
    with pytest.raises(ValueError, match=r"unknown policy\.diffusion keys: \['eta'\]"):
        from_dict({"policy": {"diffusion": {"steps": 4, "eta": 1}}})
    non_objects = [
        ({"decode": 5}, "decode"),
        ({"decode": "ab"}, "decode"),
        ({"decode": []}, "decode"),
        ({"policy": {"diffusion": 3}}, r"policy\.diffusion"),
    ]
    for bad, section in non_objects:
        with pytest.raises(ValueError, match=rf"^{section} must be a JSON object"):
            from_dict(bad)
    # null is not rejected: it stands for the section's defaults
    assert from_dict({"decode": None, "policy": {"diffusion": None}}) == PcdRunConfig()
    wrong_types = [
        ({"trials": "5"}, "trials"),
        ({"trials": None}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 5.0}, "trials"),
        ({"task": {"max_steps": "9"}}, r"task\.max_steps"),
        ({"kde": {"bandwidth": None}}, r"kde\.bandwidth"),
        ({"policy": {"lambda": "0.6"}}, r"policy\.lambda"),
        ({"policy": {"diffusion": {"steps": 4.5}}}, r"policy\.diffusion\.steps"),
        ({"decode": {"alpha": [1]}}, r"decode\.alpha"),
        ({"both_metrics": 1}, "both_metrics"),
    ]
    for bad, path in wrong_types:
        with pytest.raises(ValueError, match=rf"^{path} must be "):
            from_dict(bad)
    # what JSON allows for each field is still accepted, and never coerced
    ok = from_dict(
        {"task": {"max_steps": None}, "decode": {"alpha": 2}, "kde": {"bandwidth": 1}}
    )
    assert ok.max_steps is None and ok.decode.alpha == 2 and ok.kde.bandwidth == 1
    assert type(ok.decode.alpha) is int and type(ok.kde.bandwidth) is int
    assert from_dict({"kde": {"bandwidth": "scott"}}).kde.bandwidth == "scott"


def test_calibrated_configs_hash_and_round_trip() -> None:
    report = json.loads(CALIBRATED.read_text())
    for name, expected in CALIBRATED_HASHES.items():
        cfg = from_dict(report[name])
        assert config_hash(cfg) == expected
        assert to_dict(cfg) == report[name]


def every_field(cls, **strategies) -> st.SearchStrategy:
    """st.builds that must draw each field of cls, so a new field fails here."""
    assert set(strategies) == {f.name for f in fields(cls)}
    return st.builds(cls, **strategies)


UNIT = st.floats(min_value=0.0, max_value=1.0)
RUN_CONFIGS = every_field(
    PcdRunConfig,
    method=st.sampled_from(METHODS),
    task_kind=st.sampled_from(TASK_KINDS),
    max_steps=st.none() | st.integers(min_value=1, max_value=500),
    shift=every_field(
        ShiftSpec,
        kind=st.sampled_from(("none", "spatial", "brightness", "distractors", "texture")),
        brightness_offset=st.floats(min_value=-0.5, max_value=0.5),
        distractor_count=st.integers(min_value=0, max_value=10),
        distractor_label=st.text(min_size=1, max_size=8),
        texture_id=st.integers(min_value=0, max_value=3),
    ),
    decode=every_field(
        DecodeConfig,
        alpha=st.floats(min_value=0.0, max_value=4.0),
        prob_floor=st.floats(min_value=1e-12, max_value=1e-3),
        selection=st.sampled_from(("greedy", "sample")),
    ),
    kde=every_field(
        KdeConfig,
        n_samples=st.integers(min_value=1, max_value=256),
        bandwidth=st.just("scott") | st.floats(min_value=1e-4, max_value=1.0),
        grid_count=st.integers(min_value=16, max_value=1024),
        support_pad=st.floats(min_value=0.0, max_value=10.0),
    ),
    mask=every_field(
        MaskConfig,
        prompt=st.sampled_from(PROMPT_KINDS),
        tracker=st.sampled_from(TRACKER_KINDS),
        inpaint=st.sampled_from(INPAINT_KINDS),
        miss_prob=UNIT,
        jitter=st.integers(min_value=0, max_value=5),
        constant_value=UNIT,
        diffusion_iterations=st.integers(min_value=1, max_value=100),
    ),
    policy=every_field(
        PolicyConfig,
        kind=st.sampled_from(POLICY_KINDS),
        lam=UNIT,
        sharpness=st.floats(min_value=0.1, max_value=20.0),
        bins=st.integers(min_value=2, max_value=64),
        diffusion_steps=st.integers(min_value=1, max_value=500),
    ),
    trials=st.integers(min_value=1, max_value=1000),
    base_seed=st.integers(min_value=0, max_value=2**31),
    both_metrics=st.booleans(),
)


@seed(4)
@settings(max_examples=200, deadline=None)
@given(cfg=RUN_CONFIGS)
def test_config_round_trips_every_field(cfg: PcdRunConfig) -> None:
    assert from_dict(to_dict(cfg)) == cfg
    again = from_dict(json.loads(json.dumps(to_dict(cfg))))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_merge_is_deep() -> None:
    base = to_dict(mixture_cfg())
    merged = merge(base, {"decode": {"alpha": 0.3}, "trials": 5})
    assert merged["decode"]["alpha"] == 0.3
    assert merged["decode"]["prob_floor"] == base["decode"]["prob_floor"]
    assert merged["trials"] == 5
    assert base["decode"]["alpha"] != 0.3  # merge never mutates its inputs


def test_load_config_file(tmp_path) -> None:
    cfg = mixture_cfg(trials=42)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(to_dict(cfg)))
    assert load_config(path) == cfg


# ------------------------------------------------------------- statistics


def test_bootstrap_pvalue_behaviour() -> None:
    improving = [1.0] * 40
    flat = [0.0] * 40
    p = paired_bootstrap_pvalue(improving, flat, n_boot=2000, seed=1)
    assert p == pytest.approx(1.0 / 2001.0)
    null = paired_bootstrap_pvalue(flat, flat, n_boot=500, seed=1)
    assert null == 1.0
    a = paired_bootstrap_pvalue([1, 0, 1, 1], [0, 0, 1, 0], n_boot=1000, seed=3)
    b = paired_bootstrap_pvalue([1, 0, 1, 1], [0, 0, 1, 0], n_boot=1000, seed=3)
    assert a == b
    with pytest.raises(ValueError, match="pair"):
        paired_bootstrap_pvalue([1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="at least one"):
        paired_bootstrap_pvalue([], [])


def test_discrete_mi_oracles() -> None:
    xs = [0, 1, 2, 3] * 250
    assert discrete_mi(xs, list(xs)) == pytest.approx(2.0, abs=1e-12)
    # balanced product design: exactly independent, MI = 0
    pairs = [(a, b) for a in range(4) for b in range(4)] * 10
    assert discrete_mi([a for a, _ in pairs], [b for _, b in pairs]) == pytest.approx(
        0.0, abs=1e-12
    )
    assert discrete_mi([5] * 100, [7] * 100) == 0.0  # degenerate streams
    rng = np.random.default_rng(0)
    ys = rng.integers(0, 4, size=1000)
    shuffled = rng.permutation(ys)
    assert 0.0 <= discrete_mi(list(ys), list(shuffled)) < 0.05
    with pytest.raises(ValueError, match="equal length"):
        discrete_mi([1], [1, 2])
    with pytest.raises(ValueError, match="at least one"):
        discrete_mi([], [])


def test_estimate_mi_contract() -> None:
    world = World(make_task("reach"), ShiftSpec(kind="brightness"))
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.0))
    with pytest.raises(ValueError, match="100"):
        estimate_mi(policy, world, n_rollouts=50)
    report = estimate_mi(policy, world, n_rollouts=100)
    assert report.n_rollouts == 100
    assert report.n_samples >= 100
    assert 0.0 <= report.mi_action_spurious <= 2.0 + 1e-9  # H(quadrant) caps it
    assert report.mi_action_task >= 0.0
    again = estimate_mi(policy, world, n_rollouts=100)
    assert again == report


@pytest.mark.parametrize(
    "policy, shift, expected",
    [
        (
            SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.6)),
            ShiftSpec(kind="brightness"),
            (0.6919133451533432, 0.631772101027747, 100, 2566),
        ),
        (
            ScriptedExpert(make_task("reach")),
            ShiftSpec(),
            (1.5492700941377242, 1.9084916152895621, 100, 395),
        ),
    ],
    ids=["mixture", "expert"],
)
def test_estimate_mi_reports_are_pinned(policy, shift, expected) -> None:
    report = estimate_mi(policy, World(make_task("reach"), shift), n_rollouts=100)
    spurious, task, n_rollouts, n_samples = expected
    assert report.n_rollouts == n_rollouts
    assert report.n_samples == n_samples
    assert report.mi_action_spurious == pytest.approx(spurious, abs=1e-12)
    assert report.mi_action_task == pytest.approx(task, abs=1e-12)


def test_estimate_mi_propagates_policy_errors() -> None:
    world = World(make_task("reach"), ShiftSpec(kind="brightness"))
    with pytest.raises(RuntimeError, match="^boom$"):
        estimate_mi(BoomPolicy(), world, n_rollouts=100)
