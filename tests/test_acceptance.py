"""Acceptance suite: the numbered end-to-end guarantees this package ships with.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion. The calibrated-benchmark criteria (06..08) replay the
configuration frozen in configs/calibrated.json and dominate the runtime;
everything else is exact-oracle or property-style checking.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from pcd.config import PcdRunConfig, PolicyConfig, from_dict
from pcd.dists import (
    BinGrid,
    CategoricalDist,
    DecodeConfig,
    KdeConfig,
    contrastive_combine,
    kde_estimate,
    kde_grid,
    scott_bandwidth,
)
from pcd.harness import (
    BatchResult,
    estimate_mi,
    evaluate_batch,
    paired_bootstrap_pvalue,
    sweep_alpha,
)
from pcd.policies import (
    DiffusionSchedule,
    GaussianMixture,
    ScriptedExpert,
    SpuriousMixtureParams,
    SpuriousMixturePolicy,
    denoise_step,
    mixture_noise_prediction,
)
from pcd.world import ShiftSpec, World, make_task

CALIBRATION_PATH = Path(__file__).resolve().parent.parent / "configs" / "calibrated.json"

EXACT_TOL = 1e-12
SUM_TOL = 1e-9
WORKED_EXAMPLE_TOL = 5e-6  # five printed decimals

N_ORACLE_CASES = 1000
IDENTITY_SEEDS = 100
SAMPLER_DRAWS = 10_000
MODE_FRACTION_SLACK = 0.02
SHORT_TRIALS = 200
IMPROVEMENT_POINTS = 0.10
ALPHA_DROP_POINTS = 0.02
INPAINT_GAP_POINTS = 0.10
SIGNIFICANCE = 0.01
SPOT_CHECK_CONFIGS = 20
PARALLEL_CONFIGS = 10
MI_ROLLOUTS = 3000
MI_NULL_ROLLOUTS = 8000
MI_NULL_CEILING = 0.05

TASK_KINDS = ("reach", "pick_place", "move_near", "stack")
ALPHA_LADDER = (0.2, 0.4, 0.6, 0.8, 1.0)


def _random_mixture_config(rng: np.random.Generator) -> PcdRunConfig:
    """A small, fast batch config drawn from the full option space."""
    return PcdRunConfig(
        method=str(rng.choice(["baseline", "pcd"])),
        task_kind=str(rng.choice(TASK_KINDS)),
        max_steps=None if rng.random() < 0.5 else int(rng.integers(5, 15)),
        shift=ShiftSpec(kind=str(rng.choice(
            ["none", "spatial", "brightness", "distractors", "texture"]))),
        decode=DecodeConfig(
            alpha=float(rng.choice([0.0, 0.5, 1.0])),
            selection=str(rng.choice(["greedy", "sample"])),
        ),
        policy=PolicyConfig(kind="mixture", lam=float(rng.uniform(0.0, 1.0))),
        trials=int(rng.integers(4, 9)),
        base_seed=int(rng.integers(0, 10_000)),
        both_metrics=bool(rng.random() < 0.5),
    )


# ------------------------------------------------------- calibrated fixtures


@pytest.fixture(scope="module")
def calibration() -> tuple[dict, PcdRunConfig, PcdRunConfig]:
    report = json.loads(CALIBRATION_PATH.read_text())
    baseline_cfg = from_dict(report["baseline_config"])
    pcd_cfg = from_dict(report["pcd_config"])
    # The stored benchmark must be the advertised one before we spend
    # minutes replaying it.
    assert baseline_cfg.method == "baseline" and pcd_cfg.method == "pcd"
    assert pcd_cfg.decode.alpha == 1.0
    assert pcd_cfg.kde.n_samples == 24
    assert pcd_cfg.mask.prompt == "detector" and pcd_cfg.mask.inpaint == "mean"
    assert baseline_cfg.trials == pcd_cfg.trials == report["trials"]
    assert baseline_cfg.base_seed == pcd_cfg.base_seed  # paired seeds
    return report, baseline_cfg, pcd_cfg


@pytest.fixture(scope="module")
def calibrated_arms(calibration) -> tuple[dict, BatchResult, BatchResult, float]:
    report, baseline_cfg, pcd_cfg = calibration
    start = time.perf_counter()
    baseline = evaluate_batch(baseline_cfg)
    pcd = evaluate_batch(pcd_cfg)
    elapsed = time.perf_counter() - start
    # an episode that raised would only show as a lower rate
    assert baseline.n_errors == 0 and pcd.n_errors == 0
    return report, baseline, pcd, elapsed


@pytest.fixture(scope="module")
def short_baseline(calibration) -> BatchResult:
    _, baseline_cfg, _ = calibration
    return evaluate_batch(replace(baseline_cfg, trials=SHORT_TRIALS))


@pytest.fixture(scope="module")
def short_alpha_rows(calibration) -> list[tuple[float, BatchResult]]:
    _, _, pcd_cfg = calibration
    return sweep_alpha(replace(pcd_cfg, trials=SHORT_TRIALS), ALPHA_LADDER)


# ------------------------------------------------------------- the criteria


def test_criterion_01_combine_matches_bruteforce_oracle() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for case in range(N_ORACLE_CASES):
        n = int(rng.integers(2, 17))
        grid = BinGrid(0.0, 1.0, n)
        # Entries bounded away from zero keep every bin above the prob
        # floor, where the brute-force restatement is exact.
        p = rng.uniform(1e-6, 1.0, n)
        p /= p.sum()
        ph = rng.uniform(1e-6, 1.0, n)
        ph /= ph.sum()
        alpha = 0.0 if case % 5 == 0 else float(rng.uniform(0.0, 4.0))
        cfg = DecodeConfig(alpha=alpha)
        out = contrastive_combine(
            CategoricalDist(grid, p), CategoricalDist(grid, ph), cfg
        ).probs
        w = p * (p / np.maximum(ph, cfg.prob_floor)) ** alpha
        assert np.max(np.abs(out - w / w.sum())) <= EXACT_TOL

    grid = BinGrid(0.0, 1.0, 3)
    worked = contrastive_combine(
        CategoricalDist(grid, np.array([0.5, 0.3, 0.2])),
        CategoricalDist(grid, np.array([0.6, 0.3, 0.1])),
        DecodeConfig(alpha=1.0),
    ).probs
    assert np.allclose(worked, [0.37313, 0.26866, 0.35821], atol=WORKED_EXAMPLE_TOL)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_alpha_zero_episodes_recover_baseline() -> None:
    start = time.perf_counter()
    for kind in TASK_KINDS:
        # Identity is a per-step claim, so a fixed 12-step budget loses no
        # coverage and keeps 800 episodes inside the runtime cap.
        base_cfg = PcdRunConfig(
            method="baseline",
            task_kind=kind,
            max_steps=12,
            shift=ShiftSpec(kind="brightness"),
            policy=PolicyConfig(kind="mixture", lam=0.65),
            trials=IDENTITY_SEEDS,
            base_seed=0,
        )
        pcd_cfg = replace(base_cfg, method="pcd", decode=DecodeConfig(alpha=0.0))
        baseline = evaluate_batch(base_cfg)
        contrasted = evaluate_batch(pcd_cfg)
        assert [r.replay_key() for r in contrasted.records] == [
            r.replay_key() for r in baseline.records
        ]
        assert contrasted.rate_completion == baseline.rate_completion
        assert contrasted.rate_maxstep == baseline.rate_maxstep
    assert time.perf_counter() - start < 30.0


def test_criterion_03_kde_matches_closed_form_mixture() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(N_ORACLE_CASES):
        n = int(rng.integers(4, 49))
        samples = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.5), n)
        if case % 2 == 0:
            bandwidth = scott_bandwidth(samples)
            spec: float | str = "scott"
        else:
            bandwidth = float(rng.uniform(0.02, 0.3))
            spec = bandwidth
        grid = kde_grid(samples, samples, KdeConfig(bandwidth=spec))
        probs = kde_estimate(samples, grid, bandwidth).probs
        density = norm.pdf(
            grid.centers()[:, None], loc=samples[None, :], scale=bandwidth
        ).mean(axis=1)
        assert np.max(np.abs(probs - density / density.sum())) <= EXACT_TOL
        assert abs(probs.sum() - 1.0) <= SUM_TOL
    assert time.perf_counter() - start < 5.0


def test_criterion_04_contrast_strength_shifts_odds_monotonically() -> None:
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(N_ORACLE_CASES):
        n = int(rng.integers(2, 17))
        grid = BinGrid(0.0, 1.0, n)
        p = rng.uniform(1e-6, 1.0, n)
        p /= p.sum()
        ph = rng.uniform(1e-6, 1.0, n)
        ph /= ph.sum()
        lo = float(rng.uniform(0.0, 2.0))
        hi = lo + float(rng.uniform(1e-3, 2.0))
        ratio = p / np.maximum(ph, DecodeConfig().prob_floor)
        favored, punished = int(np.argmax(ratio)), int(np.argmin(ratio))
        out_lo = contrastive_combine(
            CategoricalDist(grid, p), CategoricalDist(grid, ph), DecodeConfig(alpha=lo)
        ).probs
        out_hi = contrastive_combine(
            CategoricalDist(grid, p), CategoricalDist(grid, ph), DecodeConfig(alpha=hi)
        ).probs
        if out_hi[favored] < out_lo[favored] - EXACT_TOL:
            violations += 1
        if out_hi[punished] > out_lo[punished] + EXACT_TOL:
            violations += 1
    assert violations == 0


def test_criterion_05_denoising_chain_recovers_target_statistics() -> None:
    start = time.perf_counter()

    def run_chain(mix: GaussianMixture, n: int, seed: int) -> np.ndarray:
        sched = DiffusionSchedule.cosine(120)
        predict = mixture_noise_prediction(mix, sched)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, mix.means.shape[1]))
        for k in range(sched.steps, 0, -1):
            x = denoise_step(x, k, sched, predict, rng)
        return x

    mu = np.array([0.3, -0.2, 0.0])
    sigma = np.array([0.05, 0.1, 0.2])
    single = GaussianMixture(np.array([1.0]), mu[None, :], sigma[None, :])
    samples = run_chain(single, SAMPLER_DRAWS, seed=5)
    bound = 3.0 * sigma / np.sqrt(SAMPLER_DRAWS)
    assert np.all(np.abs(samples.mean(axis=0) - mu) <= bound)

    two_mode = GaussianMixture(
        np.array([0.4, 0.6]),
        np.array([[-1.0], [1.0]]),
        np.array([[0.05], [0.05]]),
    )
    draws = run_chain(two_mode, SAMPLER_DRAWS, seed=6)
    spurious_fraction = float(np.mean(draws[:, 0] > 0.0))
    assert abs(spurious_fraction - 0.6) <= MODE_FRACTION_SLACK
    assert time.perf_counter() - start < 30.0


@pytest.mark.slow
def test_criterion_06_calibrated_benchmark_improvement(calibrated_arms) -> None:
    report, baseline, pcd, elapsed = calibrated_arms
    lo, hi = report["target_band"]
    assert lo <= baseline.rate_completion <= hi
    assert pcd.rate_completion >= baseline.rate_completion + IMPROVEMENT_POINTS
    p_value = paired_bootstrap_pvalue(
        [float(r.success_completion) for r in pcd.records],
        [float(r.success_completion) for r in baseline.records],
    )
    assert p_value < SIGNIFICANCE
    # The frozen report must replay exactly: the whole pipeline is seeded.
    assert abs(baseline.rate_completion - report["baseline_rate"]) <= EXACT_TOL
    assert abs(pcd.rate_completion - report["pcd_rate"]) <= EXACT_TOL
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_07_any_positive_alpha_stays_near_baseline(
    short_baseline, short_alpha_rows
) -> None:
    floor = short_baseline.rate_completion - ALPHA_DROP_POINTS
    for alpha, result in short_alpha_rows:
        assert result.rate_completion >= floor - EXACT_TOL, f"alpha={alpha}"


@pytest.mark.slow
def test_criterion_08_inpaint_strategies_land_close_together(
    calibration, short_alpha_rows
) -> None:
    _, _, pcd_cfg = calibration
    rates = {"mean": short_alpha_rows[-1][1].rate_completion}
    assert short_alpha_rows[-1][0] == 1.0  # reuse the alpha=1 row for "mean"
    for strategy in ("constant", "diffusion"):
        cfg = replace(
            pcd_cfg,
            trials=SHORT_TRIALS,
            mask=replace(pcd_cfg.mask, inpaint=strategy),
        )
        rates[strategy] = evaluate_batch(cfg).rate_completion
    names = sorted(rates)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert abs(rates[a] - rates[b]) <= INPAINT_GAP_POINTS + EXACT_TOL, (a, b)


def test_criterion_09_completion_rate_never_below_final_step_rate() -> None:
    with pytest.raises(ValueError, match="completion rate"):
        BatchResult(
            n_trials=1,
            rate_completion=0.0,
            rate_maxstep=1.0,
            mean_ms=0.0,
            config_hash="deadbeef",
        )
    rng = np.random.default_rng(909)
    for _ in range(SPOT_CHECK_CONFIGS):
        result = evaluate_batch(_random_mixture_config(rng))
        assert result.rate_completion >= result.rate_maxstep


def test_criterion_10_mutual_information_separates_policies() -> None:
    world = World(make_task("reach"))  # no shift: the training distribution
    reliant = estimate_mi(
        SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.6)),
        world,
        n_rollouts=MI_ROLLOUTS,
    )
    expert = estimate_mi(
        ScriptedExpert(make_task("reach")), world, n_rollouts=MI_ROLLOUTS
    )
    assert reliant.mi_action_spurious > expert.mi_action_spurious
    # The independence bound needs the light placed independently of the
    # objects: in the training layout the light rides on the target, so any
    # target-seeking policy inherits its quadrant. The brightness shift is
    # the factor distribution where a light-blind stream is truly independent.
    clean = estimate_mi(
        SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.0)),
        World(make_task("reach"), ShiftSpec(kind="brightness")),
        n_rollouts=MI_NULL_ROLLOUTS,
    )
    assert clean.mi_action_spurious <= MI_NULL_CEILING


def test_criterion_11_parallel_execution_changes_nothing() -> None:
    rng = np.random.default_rng(1111)
    for _ in range(PARALLEL_CONFIGS):
        cfg = _random_mixture_config(rng)
        serial = evaluate_batch(cfg)
        parallel = evaluate_batch(cfg, workers=4)
        assert serial.replay_key() == parallel.replay_key()
