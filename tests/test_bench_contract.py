"""What the benchmark calls in the package, and the records it checks.

`bench/run.py` builds each workload through `bench/workloads.build` and
times `evaluate_batch(cfg, workers=1)` on every arm. A name it needs that
was renamed, a config key `from_dict` rejects, or an episode that raises
makes the benchmark exit 1, and so does a seed-0 `calibrated` block whose
records hash to another digest than `bench/reference.json`'s. The
subprocess runs in `test_bench_smoke.py` catch both, but only in the slow
lane; these tests run in the fast one and only read `bench/`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pcd.harness import evaluate_batch

from test_bench_smoke import REFERENCE_DISPATCH, numpy_dispatch

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


def test_calibrated_block_replays_the_reference_digests() -> None:
    # bench/run.py's seed-0 check, in process: the block's calls in order,
    # each arm hashed over one repr(replay_key()) line per record
    dispatch = numpy_dispatch()
    if dispatch != REFERENCE_DISPATCH:
        reason = f"exact digest not checked: numpy dispatches {dispatch}, not {REFERENCE_DISPATCH}"
        print(reason)
        pytest.skip(reason)
    workload = WORKLOADS.build("calibrated")
    seeds = range(workload.block)
    digests = {}
    for arm in workload.arms:
        h = hashlib.sha256()
        for start in seeds[:: workload.chunk]:
            trials = len(seeds[start : start + workload.chunk])
            result = evaluate_batch(replace(arm.cfg, trials=trials, base_seed=start), workers=1)
            assert result.n_errors == 0
            for record in result.records:
                h.update(repr(record.replay_key()).encode("utf-8"))
                h.update(b"\n")
        digests[arm.name] = h.hexdigest()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    assert digests == reference["calibrated"]
