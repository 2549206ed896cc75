"""What the benchmark calls in the package, on one seed per arm.

`bench/run.py` builds each workload through `bench/workloads.build` and
times `evaluate_batch(cfg, workers=1)` on every arm. A name it needs that
was renamed, a config key `from_dict` rejects, or an episode that raises
makes the benchmark exit 1. The subprocess runs in `test_bench_smoke.py`
catch that too, but only in the slow lane; this test runs in the fast one.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pcd.harness import evaluate_batch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = bench_workloads()


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_every_bench_workload_runs_one_seed_per_arm(name: str) -> None:
    workload = WORKLOADS.build(name, 1)
    assert [arm.name for arm in workload.arms] == ["baseline", "pcd"]
    for arm in workload.arms:
        result = evaluate_batch(replace(arm.cfg, trials=1), workers=1)
        assert result.n_errors == 0
        [record] = result.records
        assert record.error is None and record.total_steps > 0
        assert record.replay_key()[0] == arm.cfg.base_seed
