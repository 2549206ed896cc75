"""The pcd benchmark's workloads and their timed set-up.

Every workload is a closed loop with one client in one thread: the next
``evaluate_batch(..., workers=1)`` call starts when the previous one has
returned. A workload runs two arms over the same block of paired seeds,
``baseline`` (plain decoding) and then ``pcd`` (contrastive decoding), as
the paper's experiment does. The block is ``block`` consecutive base seeds
starting at ``seed * block``, so the benchmark's ``--seed`` picks the block
and seed 0 replays the first seeds of the frozen calibrated benchmark.
Each call covers ``chunk`` consecutive seeds of the block. Calls of a
second or less let the host speed be probed close to each (``speed.py``),
and give ``step_ms_p90`` enough calls to rest on.

- ``calibrated``: the frozen benchmark of ``configs/calibrated.json``
  (diffusion policy, 120-step chain, 24 samples per branch). Each call
  covers two seeds, so a lockstep-batched harness can batch them.
  Short pcd episodes are mixed with baseline failures that run 40 steps.
- ``single_episode``: the same two configs, one ``evaluate_batch(trials=1)``
  call per seed and arm, as a robot deciding one episode at a time sees
  the system. There is nothing to batch across episodes here. The pcd arm
  runs every seed; the baseline arm runs every fourth, which keeps the
  run's time on the pcd arm the workload is about.
- ``mixture_masking``: the autoregressive mixture policy on ``move_near``
  (two target labels, so two trackers and a mask union) under the
  distractor shift, with a noisy detector, the nearest tracker and
  diffusion inpainting. ``both_metrics`` makes every episode run its full
  80 steps. No sampler and no KDE run here: the mask pipeline and
  perception carry the pcd arm. Each call covers one seed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
CALIBRATED = ROOT / "configs" / "calibrated.json"

MIXTURE_MASKING = {
    "method": "pcd",
    "task": {"kind": "move_near"},
    "shift": {"variant": "distractors"},
    "decode": {"alpha": 1.0},
    "mask": {
        "prompt": "detector",
        "miss_prob": 0.1,
        "jitter": 1,
        "tracker": "nearest",
        "inpaint": "diffusion",
    },
    "policy": {"kind": "mixture"},
    "both_metrics": True,
}

# Paired seeds per pass. A pass takes 15 to 30 seconds, so the block's mix
# of short and long episodes varies little from one --seed to the next.
# single_episode's 100 pcd episodes put 10 samples beyond step_ms_p90.
BLOCKS = {"calibrated": 36, "single_episode": 100, "mixture_masking": 24}
# Seeds per evaluate_batch call.
CHUNKS = {"calibrated": 2, "single_episode": 1, "mixture_masking": 1}
NAMES = tuple(BLOCKS)


@dataclass(frozen=True)
class Arm:
    name: str  # "baseline" or "pcd"
    cfg: Any  # pcd.config.PcdRunConfig
    stride: int = 1  # the arm runs on every stride-th seed of the block


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    block: int
    chunk: int  # seeds per evaluate_batch call; 1 is one trials=1 call per seed

    def __post_init__(self) -> None:
        if self.block < 1 or self.chunk < 1:
            raise ValueError("a block and a call need at least one seed")
        if self.chunk > 1 and any(arm.stride != 1 for arm in self.arms):
            raise ValueError("a batched arm covers every seed of its block")


def build(name: str, block: int | None = None) -> Workload:
    """Import pcd and build the workload's configs, worlds and policies.

    This is the set-up that ``setup_s`` times. evaluate_batch builds its
    own world and policy per call; they are built here too so that work a
    change moves into construction (schedules, caches, tables) shows up in
    set-up time.
    """
    if name not in BLOCKS:
        raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")
    from pcd.config import from_dict
    from pcd.harness import build_policy
    from pcd.world import World, make_task

    if name == "mixture_masking":
        pcd_cfg = from_dict(MIXTURE_MASKING)
        base_cfg = replace(pcd_cfg, method="baseline")
    else:
        report = json.loads(CALIBRATED.read_text(encoding="utf-8"))
        base_cfg = from_dict(report["baseline_config"])
        pcd_cfg = from_dict(report["pcd_config"])
    for cfg in (base_cfg, pcd_cfg):
        task = make_task(cfg.task_kind, cfg.max_steps)
        World(task, cfg.shift, stop_on_success=not cfg.both_metrics)
        build_policy(cfg, task)

    block = BLOCKS[name] if block is None else block
    chunk = min(CHUNKS[name], block)
    return Workload(
        name=name,
        arms=(Arm("baseline", base_cfg, 4 if name == "single_episode" else 1), Arm("pcd", pcd_cfg)),
        block=block,
        chunk=chunk,
    )


if __name__ == "__main__":
    # A fresh interpreter prints the set-up time of the workload it is given.
    sys.path.insert(0, str(SOURCE))
    start = time.perf_counter()
    build(sys.argv[1])
    print(repr(time.perf_counter() - start))
