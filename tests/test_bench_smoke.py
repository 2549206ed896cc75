"""Runs of every benchmark workload through the benchmark's entry point.

The smoke run catches a renamed library function, a config key
`from_dict` rejects, an errored episode or a rerun that disagrees with
the timed records. The seed-0 reference digests hold only for the full
blocks, and only on hosts whose numpy picks the reference host's SIMD
kernels. On such a host one full-block run per workload serves both
tests: its block starts with the two seeds a `--block 2` run covers, and
it makes the same checks on them. Elsewhere the smoke test runs
`--block 2` and the digest test is skipped.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("calibrated", "single_episode", "mixture_masking")
# numpy's SIMD dispatch list on the host that made bench/reference.json; the
# exact digests depend on which exp/log kernels numpy picks
REFERENCE_DISPATCH = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


def numpy_dispatch() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, *extra: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0",
            "--trace", "0",
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_clean(workload: str) -> None:
    if numpy_dispatch() == REFERENCE_DISPATCH:
        run_bench(workload)  # the full block, shared with the digest test
    else:
        run_bench(workload, "--block", "2")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_matches_reference_digests(workload: str) -> None:
    dispatch = numpy_dispatch()
    if dispatch != REFERENCE_DISPATCH:
        reason = f"exact digest not checked: numpy dispatches {dispatch}, not {REFERENCE_DISPATCH}"
        print(reason)
        pytest.skip(reason)
    proc = run_bench(workload)
    assert "reference checked" in proc.stdout.splitlines()
