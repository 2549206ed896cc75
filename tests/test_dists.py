"""Oracle and property tests for distribution machinery.

Closed-form oracles here are written against plain arithmetic (direct
ratio products, explicit Gaussian sums) so they cannot share bugs with
the log-space implementations they check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pcd.dists import (
    BANDWIDTH_FLOOR,
    BinGrid,
    CategoricalDist,
    DecodeConfig,
    KdeConfig,
    contrastive_combine,
    _resolve_bandwidths,
    _shared_grids,
    gaussian_kernel,
    kde_estimate_multi,
    select_index,
)
from pcd.harness import _decode
from pcd.policies import SpuriousMixtureParams, SpuriousMixturePolicy

import reference_impl as frozen

EXACT_TOL = 1e-12
SUM_TOL = 1e-9
WORKED_TOL = 5e-6  # five printed decimals

GRID3 = BinGrid(0.0, 3.0, 3)


def combine_oracle(p: np.ndarray, ph: np.ndarray, alpha: float, floor: float = 1e-8) -> np.ndarray:
    # Direct-arithmetic restatement of the contrast rule, no log space.
    w = p * (p / np.maximum(ph, floor)) ** alpha
    return w / w.sum()


def dist3(probs) -> CategoricalDist:
    return CategoricalDist(GRID3, np.asarray(probs, dtype=np.float64))


# Entries are kept well above the 1e-8 ratio floor so the fixed-point and
# oracle identities are exact; at-floor behaviour is covered separately.
def prob_vector(min_size: int = 2, max_size: int = 16) -> st.SearchStrategy[np.ndarray]:
    return (
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=min_size,
            max_size=max_size,
        )
        .map(lambda xs: np.asarray(xs, dtype=np.float64))
        .map(lambda v: v / v.sum())
    )


# ---------------------------------------------------------------- combine


def test_combine_worked_example() -> None:
    p = dist3([0.5, 0.3, 0.2])
    ph = dist3([0.6, 0.3, 0.1])
    out = contrastive_combine(p, ph, DecodeConfig(alpha=1.0))
    np.testing.assert_allclose(
        out.probs, [0.37313, 0.26866, 0.35821], atol=WORKED_TOL, rtol=0.0
    )
    # Same numbers from the unnormalized form [0.41667, 0.3, 0.4].
    raw = np.array([0.5 * 0.5 / 0.6, 0.3, 0.2 * 0.2 / 0.1])
    np.testing.assert_allclose(out.probs, raw / raw.sum(), atol=EXACT_TOL, rtol=0.0)


def test_combine_alpha_zero_returns_input_object() -> None:
    p = dist3([0.5, 0.3, 0.2])
    ph = dist3([0.1, 0.1, 0.8])
    out = contrastive_combine(p, ph, DecodeConfig(alpha=0.0))
    assert out is p  # bit-identical downstream records depend on this


def test_combine_equal_branches_untouched() -> None:
    p = dist3([0.5, 0.3, 0.2])
    out = contrastive_combine(p, dist3([0.5, 0.3, 0.2]), DecodeConfig(alpha=0.7))
    np.testing.assert_allclose(out.probs, p.probs, atol=EXACT_TOL, rtol=0.0)


@seed(1)
@given(pair=prob_vector().flatmap(lambda v: st.tuples(st.just(v), prob_vector(len(v), len(v)))))
def test_combine_alpha_zero_identity(pair: tuple[np.ndarray, np.ndarray]) -> None:
    pv, phv = pair
    grid = BinGrid(0.0, 1.0, len(pv))
    out = contrastive_combine(
        CategoricalDist(grid, pv), CategoricalDist(grid, phv), DecodeConfig(alpha=0.0)
    )
    assert np.max(np.abs(out.probs - pv)) <= EXACT_TOL


@seed(2)
@given(pv=prob_vector(), alpha=st.floats(min_value=0.0, max_value=4.0))
def test_combine_fixed_point(pv: np.ndarray, alpha: float) -> None:
    grid = BinGrid(0.0, 1.0, len(pv))
    p = CategoricalDist(grid, pv)
    out = contrastive_combine(p, CategoricalDist(grid, pv.copy()), DecodeConfig(alpha=alpha))
    assert np.max(np.abs(out.probs - pv)) <= EXACT_TOL


@seed(3)
@given(
    pair=prob_vector().flatmap(lambda v: st.tuples(st.just(v), prob_vector(len(v), len(v)))),
    alphas=st.tuples(
        st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=1e-3, max_value=1.0)
    ),
)
def test_combine_odds_monotonic_in_alpha(
    pair: tuple[np.ndarray, np.ndarray], alphas: tuple[float, float]
) -> None:
    """Bins with a larger floored ratio gain odds as alpha grows."""
    pv, phv = pair
    floor = 1e-8
    ratio = pv / np.maximum(phv, floor)
    i = int(np.argmax(ratio))
    j = int(np.argmin(ratio))
    if ratio[i] <= ratio[j] * (1.0 + 1e-9):
        return  # degenerate draw: all ratios equal, nothing to order
    grid = BinGrid(0.0, 1.0, len(pv))
    p = CategoricalDist(grid, pv)
    ph = CategoricalDist(grid, phv)
    a_lo, step = alphas
    lo = contrastive_combine(p, ph, DecodeConfig(alpha=a_lo))
    hi = contrastive_combine(p, ph, DecodeConfig(alpha=a_lo + step))
    assert hi.probs[i] / hi.probs[j] > lo.probs[i] / lo.probs[j]


@seed(4)
@given(
    pair=prob_vector().flatmap(lambda v: st.tuples(st.just(v), prob_vector(len(v), len(v)))),
    alpha=st.floats(min_value=0.0, max_value=4.0),
)
def test_combine_matches_direct_arithmetic(
    pair: tuple[np.ndarray, np.ndarray], alpha: float
) -> None:
    pv, phv = pair
    grid = BinGrid(0.0, 1.0, len(pv))
    out = contrastive_combine(
        CategoricalDist(grid, pv), CategoricalDist(grid, phv), DecodeConfig(alpha=alpha)
    )
    assert np.max(np.abs(out.probs - combine_oracle(pv, phv, alpha))) <= EXACT_TOL
    assert abs(float(out.probs.sum()) - 1.0) <= SUM_TOL


def test_combine_floored_masked_branch() -> None:
    # A masked-branch zero must amplify, not blow up: the ratio uses the floor.
    p = dist3([0.5, 0.3, 0.2])
    ph = dist3([0.8, 0.2, 0.0])
    out = contrastive_combine(p, ph, DecodeConfig(alpha=1.0))
    expect = combine_oracle(p.probs, ph.probs, 1.0)
    np.testing.assert_allclose(out.probs, expect, atol=EXACT_TOL, rtol=0.0)
    assert int(np.argmax(out.probs)) == 2


def test_combine_rejects_mismatched_grids() -> None:
    p = dist3([0.5, 0.3, 0.2])
    other = CategoricalDist(BinGrid(0.0, 1.0, 3), np.array([0.5, 0.3, 0.2]))
    with pytest.raises(ValueError, match="grid"):
        contrastive_combine(p, other, DecodeConfig(alpha=1.0))


def test_negative_alpha_rejected_at_config() -> None:
    with pytest.raises(ValueError, match="alpha"):
        DecodeConfig(alpha=-0.1)


def test_combine_multi_dimensionwise() -> None:
    # the decode contrasts each dimension with its own masked counterpart
    grid = BinGrid(-1.0, 1.0, 4)
    p = (
        CategoricalDist(grid, np.array([0.4, 0.3, 0.2, 0.1])),
        CategoricalDist(grid, np.array([0.1, 0.2, 0.3, 0.4])),
    )
    ph = (
        CategoricalDist(grid, np.array([0.25, 0.25, 0.25, 0.25])),
        CategoricalDist(grid, np.array([0.05, 0.1, 0.15, 0.7])),
    )
    for selection in ("greedy", "sample"):
        cfg = DecodeConfig(alpha=1.5, selection=selection)
        got = _decode(p, ph, cfg, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        singles = [contrastive_combine(d, dh, cfg) for d, dh in zip(p, ph)]
        want = [d.grid.centers()[select_index(d, cfg, rng)] for d in singles]
        assert got.shape == (2,) and got.tolist() == want
    # the contrast moves dimension 1's mode down one bin, and dimension 0's
    # not at all, as its masked counterpart is uniform
    greedy = DecodeConfig(alpha=1.5)
    assert _decode(p, None, greedy, None).tolist() == [-0.75, 0.75]
    assert _decode(p, ph, greedy, None).tolist() == [-0.75, 0.25]


def test_combine_multi_alpha_zero_and_mismatch() -> None:
    grid = BinGrid(-1.0, 1.0, 4)
    p = (CategoricalDist(grid, np.array([0.1, 0.3, 0.4, 0.2])),)
    ph = (CategoricalDist(grid, np.array([0.1, 0.1, 0.7, 0.1])),)
    for selection in ("greedy", "sample"):
        cfg = DecodeConfig(alpha=0.0, selection=selection)
        got = _decode(p, ph, cfg, np.random.default_rng(2))
        assert np.array_equal(got, _decode(p, None, cfg, np.random.default_rng(2)))
    two = (CategoricalDist.uniform(grid), CategoricalDist.uniform(grid))
    with pytest.raises(ValueError, match="dimension count"):
        _decode(p, two, DecodeConfig(alpha=1.0), None)


# ------------------------------------------------------------------- kde


def test_kernel_value_at_zero() -> None:
    assert abs(float(gaussian_kernel(np.array([0.0]))[0]) - 0.39894) < 5e-6
    assert abs(float(gaussian_kernel(np.array([0.0]))[0]) - 1.0 / math.sqrt(2 * math.pi)) <= EXACT_TOL


def scott(samples: np.ndarray) -> float:
    """The scott-rule bandwidth of one sample set, as the KDE resolves it."""
    return float(_resolve_bandwidths(samples[None], KdeConfig())[0])


def kde1(samples, bandwidth: float, **grid) -> CategoricalDist:
    """One dimension's KDE, on the grid kde_estimate_multi builds for one view."""
    x = np.asarray(samples, dtype=np.float64)[:, None]
    [[dist]] = kde_estimate_multi([x], KdeConfig(bandwidth=bandwidth, **grid))
    return dist


def test_scott_bandwidth_examples() -> None:
    pm_one = np.array([1.0] * 16 + [-1.0] * 16)  # sigma exactly 1, N = 32 = 2^5
    assert scott(pm_one) == 0.5
    assert scott(np.full(10, 3.0)) == 1e-6  # the floor
    rng = np.random.default_rng(7)
    x = rng.standard_normal(100)
    sigma = math.sqrt(sum((v - x.mean()) ** 2 for v in x) / 100.0)
    assert abs(scott(x) - sigma * 100 ** (-0.2)) <= EXACT_TOL
    fixed = _resolve_bandwidths(np.zeros((3, 5)), KdeConfig(bandwidth=0.25))
    assert fixed.tolist() == [0.25, 0.25, 0.25]


def test_scott_bandwidth_rejects_empty() -> None:
    # the KDE refuses a branch too small to estimate before any bandwidth
    with pytest.raises(ValueError, match="at least 2"):
        kde_estimate_multi([np.array([])], KdeConfig())


def test_kde_symmetry() -> None:
    out = kde1([-1.0, 1.0], 0.3, grid_count=64)
    assert (out.grid.lower, out.grid.upper) == (-2.2, 2.2)
    np.testing.assert_allclose(out.probs, out.probs[::-1], atol=EXACT_TOL, rtol=0.0)


def test_kde_matches_mixture_oracle() -> None:
    """KDE at bin centers is exactly a normalized equal-weight Gaussian mixture."""
    rng = np.random.default_rng(11)
    samples = 0.3 + 0.05 * rng.standard_normal(24)
    b = 0.05
    out = kde1(samples, b)
    assert out.grid.count == 256
    density = norm.pdf(out.grid.centers()[:, None], loc=samples[None, :], scale=b).sum(axis=1)
    np.testing.assert_allclose(out.probs, density / density.sum(), atol=EXACT_TOL, rtol=0.0)


@seed(5)
@given(
    samples=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=24),
    bandwidth=st.floats(min_value=0.05, max_value=2.0),
)
def test_kde_oracle_property(samples: list[float], bandwidth: float) -> None:
    # Bandwidth floor keeps the oracle's own kernel sums from underflowing;
    # the zero-mass fallback is exercised by the dedicated test below.
    x = np.asarray(samples)
    out = kde1(x, bandwidth, grid_count=64)
    density = norm.pdf(out.grid.centers()[:, None], loc=x[None, :], scale=bandwidth).sum(axis=1)
    assert np.max(np.abs(out.probs - density / density.sum())) <= EXACT_TOL
    assert abs(float(out.probs.sum()) - 1.0) <= SUM_TOL


def test_kde_input_validation() -> None:
    with pytest.raises(ValueError, match="at least 2"):
        kde_estimate_multi([np.zeros((0, 1))], KdeConfig(bandwidth=0.1))
    with pytest.raises(ValueError, match="non-finite"):
        kde_estimate_multi([np.array([[0.1], [math.nan]])], KdeConfig(bandwidth=0.1))
    with pytest.raises(ValueError, match="non-finite"):
        kde_estimate_multi([np.array([[0.1], [-math.inf]])], KdeConfig())


def test_kde_far_grid_degrades_to_uniform() -> None:
    # Every kernel value underflows; the estimate falls back to uniform
    # rather than dividing by zero.
    out = kde1([0.0, 1.0], 1e-6, grid_count=16, support_pad=0.0)
    assert (out.grid.lower, out.grid.upper) == (0.0, 1.0)
    np.testing.assert_allclose(out.probs, np.full(16, 1.0 / 16.0), atol=EXACT_TOL, rtol=0.0)


def test_kde_grid_examples() -> None:
    cfg = KdeConfig(bandwidth=1.0, support_pad=4.0, grid_count=256)
    [[dist]] = kde_estimate_multi([np.zeros((2, 1))], cfg)
    assert (dist.grid.lower, dist.grid.upper) == (-4.0, 4.0)
    dist_o, dist_m = kde_estimate_multi([np.zeros((2, 1)), np.full((2, 1), 10.0)], cfg)
    g = dist_o[0].grid
    assert (g.lower, g.upper) == (-4.0, 14.0)
    assert g.count == 256 and dist_m[0].grid == g


@seed(6)
@given(
    a=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=12),
    b=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=12),
    bw=st.floats(min_value=1e-3, max_value=3.0) | st.just("scott"),
)
def test_kde_grid_margin_property(a: list[float], b: list[float], bw) -> None:
    cfg = KdeConfig(bandwidth=bw, support_pad=4.0)
    rows_a, rows_b = np.asarray(a)[None], np.asarray(b)[None]
    bw_a, bw_b = _resolve_bandwidths(rows_a, cfg), _resolve_bandwidths(rows_b, cfg)
    [g] = _shared_grids([rows_a, rows_b], [bw_a, bw_b], cfg)
    pad = 4.0 * float(max(bw_a[0], bw_b[0]))  # either branch's margin holds
    both = np.asarray(a + b)
    slack = pad * 1e-9 + 1e-12  # float tolerance on the pad arithmetic
    assert g.lower <= both.min() - pad + slack
    assert g.upper >= both.max() + pad - slack


def test_kde_multi_single_dim_reduces() -> None:
    rng = np.random.default_rng(3)
    orig = rng.normal(0.0, 1.0, size=(24, 1))
    masked = rng.normal(0.5, 1.0, size=(24, 1))
    cfg = KdeConfig(bandwidth=0.2)
    dist_o, dist_m = kde_estimate_multi([orig, masked], cfg)
    assert len(dist_o) == len(dist_m) == 1
    grid = frozen.kde_grid(orig[:, 0], masked[:, 0], cfg)
    assert dist_o[0].grid == grid == dist_m[0].grid
    single = frozen.kde_estimate(orig[:, 0], grid, 0.2)
    np.testing.assert_allclose(dist_o[0].probs, single.probs, atol=EXACT_TOL, rtol=0.0)


def test_kde_multi_seven_dims_and_permutation() -> None:
    rng = np.random.default_rng(4)
    orig = rng.normal(size=(24, 7))
    masked = rng.normal(size=(24, 7))
    cfg = KdeConfig()
    dist_o, dist_m = kde_estimate_multi([orig, masked], cfg)
    assert len(dist_o) == 7 and len(dist_m) == 7
    perm = rng.permutation(24)
    dist_o2, dist_m2 = kde_estimate_multi([orig[perm], masked[perm[::-1]]], cfg)
    # the views' order moves no grid: min and max are exact
    dist_m3, dist_o3 = kde_estimate_multi([masked, orig], cfg)
    for t in range(7):
        np.testing.assert_allclose(dist_o[t].probs, dist_o2[t].probs, atol=EXACT_TOL, rtol=0.0)
        np.testing.assert_allclose(dist_m[t].probs, dist_m2[t].probs, atol=EXACT_TOL, rtol=0.0)
        for got, want in ((dist_o3[t], dist_o[t]), (dist_m3[t], dist_m[t])):
            assert got.grid == want.grid and np.array_equal(got.probs, want.probs)


def test_kde_multi_validation() -> None:
    cfg = KdeConfig()
    with pytest.raises(ValueError, match="dimension mismatch"):
        kde_estimate_multi([np.zeros((4, 2)), np.zeros((4, 3))], cfg)
    with pytest.raises(ValueError, match="at least 2"):
        kde_estimate_multi([np.zeros((1, 2)), np.zeros((4, 2))], cfg)
    with pytest.raises(ValueError, match="at least 2"):
        kde_estimate_multi([np.zeros((4, 2)), np.zeros((1, 2))], cfg)
    bad = np.zeros((4, 2))
    bad[2, 1] = math.inf
    with pytest.raises(ValueError, match="dimension 1"):
        kde_estimate_multi([bad, np.zeros((4, 2))], cfg)
    with pytest.raises(ValueError, match="dimension 1"):
        kde_estimate_multi([np.zeros((4, 2)), bad], cfg)


def assert_same_as_frozen(samples, cfg: KdeConfig, samples_masked) -> None:
    """kde_estimate_multi gives the frozen per-column copy's grids, its
    bandwidths and its bits."""
    ours = kde_estimate_multi([samples, samples_masked], cfg)
    want = frozen.kde_estimate_multi_columns(samples, cfg, samples_masked)
    assert len(ours) == 2
    for got, expect in zip(ours, want):
        assert len(got) == len(expect)
        for g, w in zip(got, expect):
            assert g.grid == w.grid
            assert np.array_equal(g.probs, w.probs)
    for rows in (samples.T, samples_masked.T):
        bws = _resolve_bandwidths(np.ascontiguousarray(rows), cfg)
        assert bws.tolist() == [frozen._resolve_bandwidth(col, cfg) for col in rows]


@seed(21)
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    n_masked=st.none() | st.integers(min_value=2, max_value=300),
    dims=st.integers(min_value=1, max_value=4),
    log_spread=st.floats(min_value=-8.0, max_value=1.0),
    constant=st.lists(st.booleans(), min_size=4, max_size=4),
    bandwidth=st.just("scott") | st.floats(min_value=1e-6, max_value=1.0),
    support_pad=st.sampled_from((0.0, 4.0)) | st.floats(min_value=0.0, max_value=10.0),
    grid_count=st.integers(min_value=16, max_value=300),
    stream=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kde_multi_equals_the_frozen_per_column_copy(
    n, n_masked, dims, log_spread, constant, bandwidth, support_pad, grid_count, stream
) -> None:
    # n_masked None: both branches draw the same count, as the harness does
    rng = np.random.default_rng(stream)
    spread = 10.0**log_spread
    orig = rng.normal(0.0, spread, size=(n, dims))
    masked = rng.normal(rng.normal(), spread, size=(n if n_masked is None else n_masked, dims))
    for t in range(dims):
        if constant[t]:  # zero spread: the scott rule hits BANDWIDTH_FLOOR
            orig[:, t] = 0.25
    cfg = KdeConfig(bandwidth=bandwidth, grid_count=grid_count, support_pad=support_pad)
    assert_same_as_frozen(orig, cfg, masked)


def test_kde_multi_edge_cases_match_the_frozen_copy() -> None:
    rng = np.random.default_rng(8)
    # constant and near-constant columns in both branches: floor bandwidths
    flat = np.full((24, 3), 0.1)
    flat[:, 1] += rng.normal(0.0, 1e-12, size=24)
    assert_same_as_frozen(flat, KdeConfig(), flat[::-1] + 0.0)
    # identical samples, a fixed bandwidth and no pad: the hi <= lo widening
    cfg = KdeConfig(bandwidth=0.1, support_pad=0.0)
    same = np.full((5, 2), 0.3)
    assert_same_as_frozen(same, cfg, same)
    dist_o, _ = kde_estimate_multi([same, same], cfg)
    assert dist_o[0].grid.upper - dist_o[0].grid.lower == pytest.approx(
        2 * BANDWIDTH_FLOOR
    )
    # a bandwidth so small that every kernel underflows: the uniform fallback
    cfg = KdeConfig(bandwidth=1e-6, support_pad=0.0)
    spread = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert_same_as_frozen(spread, cfg, spread)
    dist_o, dist_m = kde_estimate_multi([spread, spread], cfg)
    for d in dist_o + dist_m:
        assert np.array_equal(d.probs, CategoricalDist.uniform(d.grid).probs)


@seed(26)
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    dims=st.integers(min_value=1, max_value=4),
    log_spread=st.floats(min_value=-8.0, max_value=1.0),
    constant=st.lists(st.booleans(), min_size=4, max_size=4),
    bandwidth=st.just("scott") | st.floats(min_value=1e-6, max_value=1.0),
    support_pad=st.sampled_from((0.0, 4.0)) | st.floats(min_value=0.0, max_value=10.0),
    grid_count=st.integers(min_value=16, max_value=300),
    stream=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kde_one_equals_the_first_branch_of_the_frozen_copy(
    n, dims, log_spread, constant, bandwidth, support_pad, grid_count, stream
) -> None:
    # the baseline arm's KDE, of one view: the first branch of the frozen
    # copy on (x, cfg, x), and of the KDE of two copies of the view
    rng = np.random.default_rng(stream)
    samples = rng.normal(rng.normal(), 10.0**log_spread, size=(n, dims))
    for t in range(dims):
        if constant[t]:  # zero spread: the scott rule hits BANDWIDTH_FLOOR
            samples[:, t] = 0.25
    cfg = KdeConfig(bandwidth=bandwidth, grid_count=grid_count, support_pad=support_pad)
    [got] = kde_estimate_multi([samples], cfg)
    want, _ = frozen.kde_estimate_multi_columns(samples, cfg, samples)
    both, _ = kde_estimate_multi([samples, samples], cfg)
    assert len(got) == len(want) == len(both) == dims
    for g, w, b in zip(got, want, both):
        assert g.grid == w.grid == b.grid
        assert np.array_equal(g.probs, w.probs) and np.array_equal(g.probs, b.probs)


def test_kde_one_edge_cases_and_validation() -> None:
    cases = [
        (np.full((5, 2), 0.3), KdeConfig(bandwidth=0.1, support_pad=0.0)),  # hi <= lo
        (np.array([[0.0, 0.0], [1.0, 2.0]]), KdeConfig(bandwidth=1e-6, support_pad=0.0)),
        (np.random.default_rng(9).normal(size=(24, 3)), KdeConfig()),
    ]
    for samples, cfg in cases:
        want, _ = frozen.kde_estimate_multi_columns(samples, cfg, samples)
        [got] = kde_estimate_multi([samples], cfg)
        for g, w in zip(got, want):
            assert g.grid == w.grid and np.array_equal(g.probs, w.probs)
    with pytest.raises(ValueError, match="at least 2"):
        kde_estimate_multi([np.zeros((1, 2))], KdeConfig())
    bad = np.zeros((4, 3))
    bad[2, 1] = math.nan
    with pytest.raises(ValueError, match="dimension 1"):
        kde_estimate_multi([bad], KdeConfig())


@seed(7)
@settings(max_examples=25, deadline=None)
@given(
    shift=st.floats(min_value=-2.0, max_value=2.0),
    alpha=st.floats(min_value=0.0, max_value=2.0),
    n=st.integers(min_value=2, max_value=24),
)
def test_grid_sharing_never_trips_combine(shift: float, alpha: float, n: int) -> None:
    """Contrast on kde_estimate_multi outputs can never hit a grid mismatch."""
    rng = np.random.default_rng(max(2, n))
    orig = rng.normal(0.0, 0.3, size=(n, 3))
    masked = rng.normal(shift, 0.3, size=(n, 3))
    dist_o, dist_m = kde_estimate_multi([orig, masked], KdeConfig())
    for d, dm in zip(dist_o, dist_m):
        out = contrastive_combine(d, dm, DecodeConfig(alpha=alpha))
        assert abs(float(out.probs.sum()) - 1.0) <= SUM_TOL


# ------------------------------------------------------------- selection


def test_greedy_picks_prob_one_center() -> None:
    grid = BinGrid(0.0, 1.0, 2)  # centers 0.25 and 0.75
    dist = CategoricalDist(grid, np.array([1.0, 0.0]))
    act = _decode((dist,), None, DecodeConfig(selection="greedy"), None)
    assert act.shape == (1,)
    assert act[0] == 0.25


def test_greedy_tie_breaks_low() -> None:
    grid = BinGrid(0.0, 3.0, 3)
    dist = CategoricalDist(grid, np.array([0.4, 0.4, 0.2]))
    greedy = DecodeConfig(selection="greedy")
    assert select_index(dist, greedy, np.random.default_rng(0)) == 0
    assert _decode((dist,), None, greedy, None)[0] == 0.5


def test_sample_selection_reproducible_and_calibrated() -> None:
    grid = BinGrid(0.0, 4.0, 4)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    dist = CategoricalDist(grid, probs)
    cfg = DecodeConfig(selection="sample")
    first = [select_index(dist, cfg, np.random.default_rng(123)) for _ in range(5)]
    second = [select_index(dist, cfg, np.random.default_rng(123)) for _ in range(5)]
    assert first == second
    n = 100_000
    rng = np.random.default_rng(2024)
    counts = np.bincount([select_index(dist, cfg, rng) for _ in range(n)], minlength=4)
    for k in range(4):
        bound = 3.0 * math.sqrt(probs[k] * (1.0 - probs[k]) / n)
        assert abs(counts[k] / n - probs[k]) <= bound


# ----------------------------------------------------------- value types


def test_bin_grid_geometry() -> None:
    grid = BinGrid(-0.08, 0.08, 21)
    centers = grid.centers()
    assert len(centers) == 21
    assert abs(grid.width - 0.16 / 21) <= EXACT_TOL
    np.testing.assert_allclose(centers[0], -0.08 + 0.5 * grid.width, atol=EXACT_TOL)
    for k in (0, 10, 20):
        assert grid.index_of(float(centers[k])) == k
    assert grid.index_of(-5.0) == 0
    assert grid.index_of(5.0) == 20


def test_bin_grid_validation() -> None:
    with pytest.raises(ValueError, match="exceed"):
        BinGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="at least 2"):
        BinGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="finite"):
        BinGrid(0.0, math.inf, 4)


def test_categorical_validation() -> None:
    grid = BinGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="shape"):
        CategoricalDist(grid, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="non-negative"):
        CategoricalDist(grid, np.array([0.7, 0.5, -0.2]))
    with pytest.raises(ValueError, match="sum"):
        CategoricalDist(grid, np.array([0.5, 0.3, 0.1]))
    with pytest.raises(ValueError, match="finite"):
        CategoricalDist(grid, np.array([0.5, 0.5, math.nan]))
    dist = CategoricalDist.uniform(grid)
    with pytest.raises(ValueError):
        dist.probs[0] = 0.9  # stored read-only


def test_bin_grid_centers_are_cached_read_only_and_not_a_field() -> None:
    grid = BinGrid(-0.08, 0.08, 21)
    centers = grid.centers()
    assert centers is grid.centers()
    assert np.array_equal(centers, grid.lower + (np.arange(grid.count) + 0.5) * grid.width)
    with pytest.raises(ValueError, match="read-only"):
        centers[0] = 0.0
    twin = BinGrid(-0.08, 0.08, 21)
    assert twin == grid and hash(twin) == hash(grid)
    assert hash(grid) == hash((grid.lower, grid.upper, grid.count))
    assert BinGrid(-0.08, 0.08, 22) != grid
    assert repr(grid) == "BinGrid(lower=-0.08, upper=0.08, count=21)"


def package_dists() -> list[CategoricalDist]:
    """Distributions the package built through its trusted constructor."""
    rng = np.random.default_rng(31)
    orig, masked = kde_estimate_multi(
        [rng.normal(size=(24, 3)), rng.normal(0.3, 1.5, size=(24, 3))], KdeConfig()
    )
    cfg = DecodeConfig(alpha=1.5)
    combined = [contrastive_combine(d, dm, cfg) for d, dm in zip(orig, masked)]
    far = kde1([0.0, 1.0], 1e-6, grid_count=16, support_pad=0.0)  # underflow: uniform
    policy = SpuriousMixturePolicy(SpuriousMixtureParams(lam=0.4))
    percepts = [((0.2, 0.3), (0.6, 0.5), (0.1, 0.9)), ((0.5, 0.5), None, (0.52, 0.5))]
    predicted = [policy.predict_from(p, t) for p in percepts for t in range(policy.m)]
    return [*orig, *masked, *combined, far, *predicted]


def test_trusted_categorical_equals_the_checked_constructor() -> None:
    for dist in package_dists():
        checked = CategoricalDist(dist.grid, dist.probs)
        assert checked.grid == dist.grid
        assert np.array_equal(checked.probs, dist.probs)
        assert checked.probs.dtype == dist.probs.dtype == np.float64
        assert not dist.probs.flags.writeable
        fresh = np.array(dist.probs)
        trusted = CategoricalDist._trusted(dist.grid, fresh)
        assert trusted.probs is fresh and not fresh.flags.writeable
        assert np.array_equal(trusted.probs, CategoricalDist(dist.grid, fresh).probs)
        with pytest.raises(ValueError, match="read-only"):
            dist.probs[0] = 0.5


def test_kde_needs_a_view_and_an_action_dimension() -> None:
    with pytest.raises(ValueError, match="at least one view"):
        kde_estimate_multi([], KdeConfig())
    with pytest.raises(ValueError, match="at least one action dimension"):
        kde_estimate_multi([np.zeros((4, 0)), np.zeros((4, 0))], KdeConfig())


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="bandwidth rule"):
        KdeConfig(bandwidth="silverman")
    with pytest.raises(ValueError, match="> 0"):
        KdeConfig(bandwidth=0.0)
    with pytest.raises(ValueError, match="grid_count"):
        KdeConfig(grid_count=8)
    with pytest.raises(ValueError, match="prob_floor"):
        DecodeConfig(prob_floor=0.0)
    with pytest.raises(ValueError, match="selection"):
        DecodeConfig(selection="argmax")
