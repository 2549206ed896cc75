"""Mock policy tests: mixture branches, the denoising sampler, the expert.

The mixture policy's masked behaviour is checked against an oracle built
from the policy family itself: the lambda = 1 instance IS the spurious
branch, so the mixed prediction must equal the convex combination of it
with the uniform object fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcd.masking import ConstantFill, inpaint
from pcd.policies import (
    DiffusionSchedule,
    GaussianMixture,
    MixtureDiffusionPolicy,
    PrefixContext,
    ScriptedExpert,
    SpuriousMixtureParams,
    SpuriousMixturePolicy,
    default_grids,
    denoise_step,
    find_class_blob,
    find_gripper,
    find_light_peak,
    mixture_noise_prediction,
)
from pcd.raster import Observation
from pcd.world import STEP_MAX, Scene, ShiftSpec, World, make_task

from reference_impl import mixture_noise_prediction as frozen_noise_prediction
from reference_impl import sample_scalar

EXACT_TOL = 1e-12
MEAN_SAMPLES = 10_000
EXPERT_SEEDS = 100

EMPTY = PrefixContext(committed=())


def reach_setup(seed: int = 3, shift: ShiftSpec | None = None):
    world = World(make_task("reach"), shift)
    scene, obs = world.reset(seed)
    return world, scene, obs


def with_light_at(world: World, scene: Scene, x: float, y: float):
    moved = replace(scene, spurious=replace(scene.spurious, light_x=x, light_y=y))
    return moved, world.render(moved)


def masked_reach(seed: int = 3):
    world, scene, obs = reach_setup(seed)
    mask = world.ground_truth_mask(scene, "red_block")
    return world, scene, obs, inpaint(obs, mask, ConstantFill(0.0))


def full_prediction(policy: SpuriousMixturePolicy, obs, instruction):
    """All three per-dimension distributions along the greedy prefix."""
    dists = []
    prefix = EMPTY
    for _ in range(policy.m):
        d = policy.predict(obs, instruction, prefix)
        dists.append(d)
        prefix = prefix.extended(int(np.argmax(d.probs)))
    return dists


# ----------------------------------------------------- perception helpers


def test_perception_locates_scene_elements() -> None:
    world, scene, obs = reach_setup()
    gx, gy = find_gripper(obs)
    assert math.hypot(gx - scene.gripper_x, gy - scene.gripper_y) <= 2.0 / world.size
    bx, by = find_class_blob(obs, "red_block")
    target = scene.objects[0]
    assert math.hypot(bx - target.x, by - target.y) <= 2.0 / world.size
    lx, ly = find_light_peak(obs)
    assert math.hypot(lx - scene.spurious.light_x, ly - scene.spurious.light_y) <= 3.0 / world.size


def test_class_blob_prefers_component_near_reference() -> None:
    world, scene, obs = reach_setup()
    target = scene.objects[0]
    near = find_class_blob(obs, "red_block", near=(target.x, target.y))
    assert near is not None
    assert find_class_blob(obs, "green_block") is None


# ------------------------------------------------------- mixture policy


def test_lambda_zero_ignores_the_light() -> None:
    world, scene, obs = reach_setup()
    moved, obs_moved = with_light_at(world, scene, 0.15, 0.85)
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.0))
    instruction = world.task.instruction
    for a, b in zip(
        full_prediction(policy, obs, instruction),
        full_prediction(policy, obs_moved, instruction),
    ):
        np.testing.assert_array_equal(a.probs, b.probs)


def test_positive_lambda_tracks_the_light() -> None:
    world, scene, obs = reach_setup()
    _, obs_moved = with_light_at(world, scene, 0.15, 0.85)
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.6))
    instruction = world.task.instruction
    before = policy.predict(obs, instruction, EMPTY)
    after = policy.predict(obs_moved, instruction, EMPTY)
    assert np.max(np.abs(before.probs - after.probs)) > 1e-6


def test_masking_changes_low_lambda_output() -> None:
    world, scene, obs, masked_obs = masked_reach()
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.6))
    instruction = world.task.instruction
    plain = policy.predict(obs, instruction, EMPTY)
    masked = policy.predict(masked_obs, instruction, EMPTY)
    tv = 0.5 * float(np.abs(plain.probs - masked.probs).sum())
    assert tv > 0.0


def test_lambda_one_is_unchanged_by_object_masking() -> None:
    # Needs a shifted scene: without a shift the light rides on the target,
    # so removing the target's footprint would disturb the light peak too.
    world, scene, obs = reach_setup(seed=8, shift=ShiftSpec(kind="brightness"))
    target = scene.objects[0]
    assert math.hypot(
        scene.spurious.light_x - target.x, scene.spurious.light_y - target.y
    ) > 0.25
    mask = world.ground_truth_mask(scene, "red_block")
    masked_obs = inpaint(obs, mask, ConstantFill(0.0))
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=1.0))
    instruction = world.task.instruction
    for a, b in zip(
        full_prediction(policy, obs, instruction),
        full_prediction(policy, masked_obs, instruction),
    ):
        np.testing.assert_array_equal(a.probs, b.probs)


def test_masked_mixture_is_uniform_plus_spurious() -> None:
    """With the object removed, lambda = 0.6 mixes 0.4 uniform, 0.6 light."""
    world, scene, obs, masked_obs = masked_reach()
    instruction = world.task.instruction
    mixed = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.6))
    spurious_only = SpuriousMixturePolicy(SpuriousMixtureParams(lam=1.0))
    prefix = EMPTY
    for t in range(mixed.m):
        got = mixed.predict(masked_obs, instruction, prefix)
        spur = spurious_only.predict(masked_obs, instruction, prefix)
        uniform = np.full(got.grid.count, 1.0 / got.grid.count)
        expect = 0.4 * uniform + 0.6 * spur.probs
        assert np.max(np.abs(got.probs - expect)) <= EXACT_TOL
        prefix = prefix.extended(int(np.argmax(got.probs)))


def test_prediction_is_deterministic() -> None:
    world, scene, obs = reach_setup()
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.35))
    a = policy.predict(obs, world.task.instruction, EMPTY)
    b = policy.predict(obs, world.task.instruction, EMPTY)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_grids_and_grip_dimension() -> None:
    params = SpuriousMixtureParams(lam=0.5)
    grids = default_grids(params)
    assert [g.count for g in grids] == [21, 21, 2]
    assert grids[0].lower == -STEP_MAX and grids[0].upper == STEP_MAX
    assert (grids[2].lower, grids[2].upper) == (0.0, 1.0)
    world, scene, obs = reach_setup()
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.0))
    grip = policy.predict(obs, world.task.instruction, PrefixContext((10, 10)))
    # reset places the target well outside grasp range: the policy keeps
    # the gripper open
    assert int(np.argmax(grip.probs)) == 0


def test_prefix_validation() -> None:
    world, scene, obs = reach_setup()
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.5))
    with pytest.raises(ValueError, match="all 3 action dimensions"):
        policy.predict(obs, world.task.instruction, PrefixContext((0, 0, 0)))
    with pytest.raises(ValueError, match="invalid for dimension"):
        policy.predict(obs, world.task.instruction, PrefixContext((99,)))
    with pytest.raises(ValueError):
        SpuriousMixtureParams(lam=1.2)


# ----------------------------------------------------- schedule and steps


def test_cosine_schedule_shapes_and_limits() -> None:
    sched = DiffusionSchedule.cosine(120)
    assert sched.steps == 120
    for arr in (sched.scale, sched.noise_coef, sched.sigma, sched.signal_frac):
        assert arr.shape == (120,)
    assert sched.sigma[0] == 0.0  # last denoise is deterministic
    assert np.all(sched.sigma >= 0.0)
    assert np.all(np.diff(sched.signal_frac) < 0.0)  # signal decays with noise level
    assert 0.0 < sched.signal_frac[-1] < sched.signal_frac[0] <= 1.0
    assert np.all(sched.scale >= 1.0)
    with pytest.raises(ValueError, match="at least one"):
        DiffusionSchedule.cosine(0)


def test_schedule_field_validation() -> None:
    ones = np.ones(3)
    with pytest.raises(ValueError, match="shape"):
        DiffusionSchedule(3, np.ones(2), ones, ones, ones)
    with pytest.raises(ValueError, match="sigma"):
        DiffusionSchedule(3, ones, ones, -ones, ones)
    with pytest.raises(ValueError, match="signal_frac"):
        DiffusionSchedule(3, ones, ones, ones, np.zeros(3))


def test_denoise_step_zero_noise_is_pure_scaling() -> None:
    sched = DiffusionSchedule.cosine(5)
    x = np.array([0.3, -0.2, 0.7])
    zero_eps = lambda a, k: np.zeros_like(a)
    out = denoise_step(x, 1, sched, zero_eps, np.random.default_rng(0))
    np.testing.assert_allclose(out, sched.scale[0] * x, atol=EXACT_TOL, rtol=0.0)


def test_denoise_step_validates_k_and_shape() -> None:
    sched = DiffusionSchedule.cosine(5)
    x = np.zeros(3)
    eps = lambda a, k: np.zeros_like(a)
    with pytest.raises(ValueError, match="outside"):
        denoise_step(x, 0, sched, eps, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside"):
        denoise_step(x, 6, sched, eps, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        denoise_step(x, 2, sched, lambda a, k: np.zeros(5), np.random.default_rng(0))


def test_single_gaussian_noise_prediction_closed_form() -> None:
    # Unit target: diffused variance is exactly 1 at every level, so the
    # predicted noise reduces to sqrt(1 - frac) * x.
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
    sched = DiffusionSchedule.cosine(40)
    predict = mixture_noise_prediction(mix, sched)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 3))
    for k in (1, 20, 40):
        expect = math.sqrt(1.0 - sched.signal_frac[k - 1]) * x
        np.testing.assert_allclose(predict(x, k), expect, atol=1e-10, rtol=0.0)


def test_gaussian_mixture_validation() -> None:
    with pytest.raises(ValueError, match="distribution"):
        GaussianMixture(np.array([0.6, 0.6]), np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="sigmas"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="shapes"):
        GaussianMixture(np.array([1.0]), np.zeros((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------- sampler


def run_chain(mix: GaussianMixture, n: int, seed: int, steps: int = 120) -> np.ndarray:
    sched = DiffusionSchedule.cosine(steps)
    predict = mixture_noise_prediction(mix, sched)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, mix.means.shape[1]))
    for k in range(steps, 0, -1):
        x = denoise_step(x, k, sched, predict, rng)
    return x


def test_chain_recovers_single_gaussian_mean() -> None:
    mu = np.array([0.02, -0.03, 0.5])
    sigma = np.array([0.02, 0.02, 0.08])
    mix = GaussianMixture(np.array([1.0]), mu[None, :], sigma[None, :])
    samples = run_chain(mix, MEAN_SAMPLES, seed=17)
    bound = 3.0 * sigma / math.sqrt(MEAN_SAMPLES)
    assert np.all(np.abs(samples.mean(axis=0) - mu) <= bound)
    # spread stays on the target's scale
    assert np.all(samples.std(axis=0) <= 2.0 * sigma)


def test_chain_splits_mass_between_modes() -> None:
    mix = GaussianMixture(
        np.array([0.4, 0.6]),
        np.array([[-0.06, -0.06, 0.25], [0.06, 0.06, 0.25]]),
        np.full((2, 3), 0.02),
    )
    samples = run_chain(mix, 3000, seed=23)
    near_second = (np.linalg.norm(samples[:, :2] - 0.06, axis=1) <
                   np.linalg.norm(samples[:, :2] + 0.06, axis=1))
    frac = float(near_second.mean())
    assert 0.55 <= frac <= 0.65  # coarse split check; the tight bound runs elsewhere


def test_chain_is_seed_deterministic() -> None:
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.full((1, 3), 0.05))
    a = run_chain(mix, 16, seed=9, steps=30)
    b = run_chain(mix, 16, seed=9, steps=30)
    np.testing.assert_array_equal(a, b)
    c = run_chain(mix, 16, seed=10, steps=30)
    assert not np.array_equal(a, c)


def test_single_step_schedule_is_affine_in_the_draw() -> None:
    mix = GaussianMixture(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
    a = run_chain(mix, 4, seed=2, steps=1)
    b = run_chain(mix, 4, seed=2, steps=1)
    np.testing.assert_array_equal(a, b)
    sched = DiffusionSchedule.cosine(1)
    draw = np.random.default_rng(2).standard_normal((4, 3))
    expect = sched.scale[0] * (
        draw - sched.noise_coef[0] * math.sqrt(1.0 - sched.signal_frac[0]) * draw
    )
    np.testing.assert_allclose(a, expect, atol=1e-10, rtol=0.0)


def test_sampler_policy_reads_scene_and_masks() -> None:
    # shifted scene: the light peak must survive target removal untouched
    world, scene, obs = reach_setup(seed=8, shift=ShiftSpec(kind="brightness"))
    mask = world.ground_truth_mask(scene, "red_block")
    masked_obs = inpaint(obs, mask, ConstantFill(0.0))
    policy = MixtureDiffusionPolicy(
        SpuriousMixtureParams(lam=0.6), DiffusionSchedule.cosine(40)
    )
    instruction = world.task.instruction
    a = policy.sample(obs, instruction, 64, np.random.default_rng(7))
    b = policy.sample(obs, instruction, 64, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64, 3)
    mix_plain = policy.target_mixture(obs, instruction)
    mix_masked = policy.target_mixture(masked_obs, instruction)
    # masking removes the object component's aim; the spurious one survives
    assert not np.allclose(mix_plain.means[0], mix_masked.means[0])
    np.testing.assert_allclose(mix_plain.means[1], mix_masked.means[1], atol=1e-12)
    with pytest.raises(ValueError, match="at least one"):
        policy.sample(obs, instruction, 0, np.random.default_rng(0))


@functools.cache
def chain_views() -> tuple[tuple, tuple[Observation, ...]]:
    """Original and target-masked views of a few scenes, plus a blank view
    in which nothing is perceived (the wide prior on both components)."""
    world = World(make_task("reach"), ShiftSpec(kind="brightness"))
    views: list[Observation] = [Observation(np.zeros((3, world.size, world.size)))]
    for scene_seed in range(3):
        scene, obs = world.reset(scene_seed)
        mask = world.ground_truth_mask(scene, "red_block")
        views += [obs, inpaint(obs, mask, ConstantFill(0.0))]
    return world.task.instruction, tuple(views)


CHAIN = st.tuples(st.integers(0, 6), st.integers(0, 2**32 - 1))
# up to 4 chains, and the widths of a lockstep call over 4 and 32 pcd episodes
CHAINS = (
    st.lists(CHAIN, min_size=1, max_size=4)
    | st.lists(CHAIN, min_size=8, max_size=8)
    | st.lists(CHAIN, min_size=64, max_size=64)
)
LAMBDAS = st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0)


@seed(19)
@settings(max_examples=90, deadline=None)
@given(
    chains=CHAINS,
    n=st.sampled_from((1, 2, 24)),
    lam=LAMBDAS,
    steps=st.sampled_from((1, 2, 20)),
)
def test_sample_many_equals_the_scalar_chain(chains, n, lam, steps) -> None:
    # lambda 0 or 1 zeroes one weight (log weight -inf); cosine(1) draws no
    # step noise at all, since its only step is the deterministic last one
    instruction, views = chain_views()
    policy = MixtureDiffusionPolicy(
        SpuriousMixtureParams(lam=lam), DiffusionSchedule.cosine(steps)
    )
    picked = [views[v] for v, _ in chains]
    out = policy.sample_many(
        picked, instruction, n, [np.random.default_rng(s) for _, s in chains]
    )
    assert out.shape == (len(chains), n, 3)
    for row, view, (_, s) in zip(out, picked, chains):
        expect = sample_scalar(policy, view, instruction, n, np.random.default_rng(s))
        assert np.array_equal(row, expect)
    first, (_, s) = picked[0], chains[0]
    assert np.array_equal(
        policy.sample(first, instruction, n, np.random.default_rng(s)), out[0]
    )


def test_sample_many_validates_its_arguments() -> None:
    instruction, views = chain_views()
    policy = MixtureDiffusionPolicy(SpuriousMixtureParams(lam=0.6), DiffusionSchedule.cosine(4))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least one sample"):
        policy.sample_many(views[:1], instruction, 0, [rng])
    with pytest.raises(ValueError, match="one generator per view"):
        policy.sample_many(views[:2], instruction, 4, [rng])
    with pytest.raises(ValueError, match="at least one view"):
        policy.sample_many([], instruction, 4, [])


@seed(20)
@settings(max_examples=100, deadline=None)
@given(
    components=st.integers(1, 4),
    dims=st.integers(1, 4),
    n=st.integers(1, 30),
    steps=st.integers(1, 30),
    data=st.data(),
)
def test_noise_prediction_equals_the_frozen_scalar_one(components, dims, n, steps, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(components)
    if components > 1 and data.draw(st.booleans()):
        weights[0] = 0.0  # a zero weight: its log weight is -inf
    mix = GaussianMixture(
        weights / weights.sum(),
        rng.normal(size=(components, dims)),
        rng.random((components, dims)) + 0.01,
    )
    sched = DiffusionSchedule.cosine(steps)
    k = data.draw(st.integers(1, steps))
    x = rng.normal(size=(n, dims))
    ours, frozen = mixture_noise_prediction(mix, sched), frozen_noise_prediction(mix, sched)
    assert np.array_equal(ours(x, k), frozen(x, k))
    assert np.array_equal(ours(x[0], k), frozen(x[0], k))  # one action vector


# ----------------------------------------------------------------- expert


def test_expert_proportional_rule() -> None:
    task = make_task("reach")
    world = World(task)
    scene, _ = world.reset(0)
    target = scene.objects[0]
    # place the gripper straight left of the target, far away
    probe = replace(scene, gripper_x=max(target.x - 0.5, 0.0), gripper_y=target.y)
    act = ScriptedExpert(task).act(probe)
    assert act[0] == pytest.approx(STEP_MAX)
    assert act[1] == pytest.approx(0.0)
    assert act[2] == 0.0
    # gripper exactly on the goal: no displacement
    on_goal = replace(scene, gripper_x=target.x, gripper_y=target.y)
    act = ScriptedExpert(task).act(on_goal)
    assert act[0] == 0.0 and act[1] == 0.0


def test_expert_holds_position_once_target_is_placed() -> None:
    task = make_task("pick_place")
    world = World(task)
    scene, _ = world.reset(1)
    goal = scene.objects[1]
    staged = replace(
        scene,
        gripper_x=goal.x,
        gripper_y=goal.y,
        grip_closed=True,
        held_index=0,
        objects=(replace(scene.objects[0], x=goal.x, y=goal.y), scene.objects[1]),
    )
    act = ScriptedExpert(task).act(staged)
    assert act[0] == 0.0 and act[1] == 0.0 and act[2] == 1.0


def test_expert_completes_reach_on_all_seeds() -> None:
    task = make_task("reach")
    world = World(task)
    expert = ScriptedExpert(task)
    for seed in range(EXPERT_SEEDS):
        scene, _ = world.reset(seed)
        done = False
        for _ in range(task.max_steps):
            scene, result = world.step(scene, expert.act(scene))
            if result.terminated:
                done = result.success_now
                break
        assert done, f"expert failed reach seed {seed}"
