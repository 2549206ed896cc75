"""Smoke run of every benchmark workload on a two-seed block.

Each run goes through the same entry point as the full benchmark, so a
renamed library function, a config key `from_dict` rejects, an errored
episode or a rerun that disagrees with the timed records fails here.
The seed-0 reference digests hold only for the full blocks, so this
smoke run checks the records against themselves, not the reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("calibrated", "single_episode", "mixture_masking")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_clean(workload: str) -> None:
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0",
            "--block", "2",
            "--trace", "0",
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
