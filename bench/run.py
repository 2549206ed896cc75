"""Benchmark of the pcd package: end-to-end metrics, or per-layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload calibrated --seed 0 --seconds 10 --trace 0

The workloads are described in ``bench/workloads.py``. The run imports
``pcd`` from the checkout's ``src/`` and times only from outside, around
calls into the package's public functions. After the timed loop it checks
the episode records: every pass over the block must replay the first, the
block's first seeds run again in one call per arm must give the same
records, each arm's ``replay_digest`` (a hash of every record's
``replay_key()`` in seed order) must match ``bench/reference.json`` on
seed 0, and any record with ``error`` set is printed and counted as
failed. A failed check prints the result with ``"correct": false`` and
exits with code 1.

Every call is timed in wall seconds and in reference seconds: wall time
scaled by the host's speed around the call, which ``bench/speed.py``
probes. The metrics are reference times; the wall times are printed too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
timed loop, then one more pass with the tracer installed, reports the
per-layer metrics and writes every span to ``.bench_out/``. The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# One client in one thread: keep numpy's BLAS pool from spinning on a
# second core, unless the environment already chose a thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import Clock  # noqa: E402
from tracer import LAYERS, SPAN_NAMES, Tracer  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = workloads.ROOT / ".bench_out"
SETUP_SAMPLES = 7
# Seeds of the block run again after the timed loop, to check the records.
REPLAY_SEEDS = 2


@dataclass
class Call:
    """One evaluate_batch call as seen from outside."""

    arm: str
    records: tuple
    start: float  # perf_counter
    end: float
    counts: dict | None = None  # tracer call counts the call added
    ref_s: float = 0.0  # wall_s at the reference host speed, set after the loop

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def steps(self) -> int:
        return sum(r.total_steps for r in self.records)


@dataclass
class Loop:
    passes: list[list[Call]] = field(default_factory=list)
    wall_s: float = 0.0  # the whole loop, probes included

    def calls(self):
        return [call for calls in self.passes for call in calls]

    def ref_s(self) -> float:
        return sum(c.ref_s for c in self.calls())

    def records(self):
        return [r for call in self.calls() for r in call.records]


def run_pass(workload, seeds: range, clock: Clock, tracer: Tracer | None = None) -> list[Call]:
    from pcd.harness import evaluate_batch

    def call(arm, base_seed: int, trials: int) -> Call:
        cfg = replace(arm.cfg, trials=trials, base_seed=base_seed)
        before = tracer.counts() if tracer is not None else None
        result, start, end = clock.time(lambda: evaluate_batch(cfg, workers=1))
        counts = None
        if tracer is not None:
            counts = {k: v - before[k] for k, v in tracer.counts().items()}
        return Call(arm.name, result.records, start, end, counts)

    return [
        call(arm, seeds[i], len(seeds[i : i + workload.chunk]))
        for arm in workload.arms
        for i in range(0, len(seeds), workload.chunk)
        if i % arm.stride == 0
    ]


def run_loop(workload, seeds: range, seconds: float = 0.0, tracer=None) -> Loop:
    """Whole passes over the block until `seconds` have passed."""
    loop = Loop()
    clock = Clock()
    start = time.perf_counter()
    while True:
        loop.passes.append(run_pass(workload, seeds, clock, tracer))
        loop.wall_s = time.perf_counter() - start
        if loop.wall_s >= seconds:
            for call in loop.calls():
                call.ref_s = clock.reference_s(call.start, call.end)
            return loop


# -- correctness ---------------------------------------------------------------


def arm_digests(workload, calls: list[Call]) -> dict[str, str]:
    digests = {}
    for arm in workload.arms:
        h = hashlib.sha256()
        for call in calls:
            if call.arm == arm.name:
                for record in call.records:
                    h.update(repr(record.replay_key()).encode("utf-8"))
                    h.update(b"\n")
        digests[arm.name] = h.hexdigest()
    return digests


def replay(workload, seeds: range) -> list[tuple[str, object]]:
    """(arm, record) for the block's first seeds, run again in one call per arm.

    The records must equal the timed pass's, which ran these seeds in calls
    of another size, so this also checks that batching does not change them.
    """
    from pcd.harness import evaluate_batch

    out = []
    for arm in workload.arms:
        cfg = replace(arm.cfg, trials=min(REPLAY_SEEDS, len(seeds)), base_seed=seeds[0])
        out += [(arm.name, r) for r in evaluate_batch(cfg, workers=1).records]
    return out


def check(
    workload, seeds: range, loops: list[Loop], replayed: list, use_reference: bool
) -> tuple[dict, list[str]]:
    """The replay digest of the first pass, and every problem found."""
    problems: list[str] = []
    first = loops[0].passes[0]
    for arm in workload.arms:
        got = [r.seed for call in first if call.arm == arm.name for r in call.records]
        if got != list(seeds[:: arm.stride]):
            problems.append(f"{arm.name} arm returned seeds {got[:5]}... out of order")
    digests = arm_digests(workload, first)
    for loop in loops:
        for i, calls in enumerate(loop.passes):
            if arm_digests(workload, calls) != digests:
                problems.append(f"pass {i} did not replay the first pass")
    keys = {(c.arm, r.seed): r.replay_key() for c in first for r in c.records}
    for arm, r in replayed:
        if keys.get((arm, r.seed), r.replay_key()) != r.replay_key():
            problems.append(f"{arm} seed {r.seed} run again gave another record")
    if use_reference:
        expected = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
        if expected != digests:
            problems.append(f"replay_digest {digests} differs from the reference {expected}")
    records = [r for loop in loops for r in loop.records()] + [r for _, r in replayed]
    for r in records:
        if r.error is not None:
            problems.append(f"episode seed {r.seed} failed: {r.error}")
    return digests, problems


# -- metrics -------------------------------------------------------------------


def ms_per_step(calls: list[Call], time_of=lambda c: c.ref_s) -> float:
    steps = sum(c.steps for c in calls)
    return 1e3 * sum(time_of(c) for c in calls) / steps


def step_ms_samples(calls: list[Call]) -> list[float]:
    """Per pcd episode: the wall time per step of the call that returned it.

    With one episode per call this is the episode's own time per step. A
    batched call shows one time for all of its episodes, which is what a
    client of that call sees.
    """
    out = []
    for c in calls:
        if c.arm == "pcd":
            out.extend([1e3 * c.ref_s / c.steps] * len(c.records))
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, loop: Loop, setup: list[tuple[float, float]]) -> dict:
    calls = loop.calls()
    samples = step_ms_samples(calls)
    by_arm = {arm.name: [c for c in calls if c.arm == arm.name] for arm in workload.arms}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "ms_per_step": (ms_per_step(calls), "ms"),
        "baseline_ms_per_step": (ms_per_step(by_arm["baseline"]), "ms"),
        "pcd_ms_per_step": (ms_per_step(by_arm["pcd"]), "ms"),
        "step_ms_p50": (statistics.median(samples), "ms"),
        "step_ms_p90": (percentile(samples, 90), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(untraced: Loop, traced: Loop, tracer: Tracer) -> dict:
    metrics = {}
    traced_wall_s = sum(c.wall_s for c in traced.calls())
    for name, calls, self_s in zip(SPAN_NAMES, tracer.calls, tracer.self_s):
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for layer in LAYERS:
        self_s = sum(s for n, s in zip(SPAN_NAMES, tracer.self_s) if n.startswith(layer + "."))
        metrics[f"{layer}.share"] = (self_s / traced_wall_s, "ratio")

    pcd_calls = [c for c in traced.calls() if c.arm == "pcd"]
    pcd_steps = sum(c.steps for c in pcd_calls)
    counts = {k: sum(c.counts[k] for c in pcd_calls) for k in tracer.counts()}
    metrics["policies.chain_calls_per_env_step"] = (
        counts["policies.sample"] / pcd_steps, "calls/step"
    )
    metrics["policies.perception_calls_per_env_step"] = (
        counts["policies.find_gripper"] / pcd_steps, "calls/step"
    )
    metrics["raster.cell_centers.calls_per_env_step"] = (
        counts["raster.cell_centers"] / pcd_steps, "calls/step"
    )
    nearest = counts["track.nearest"]
    metrics["masking.track.fallback_ratio"] = (
        counts["track.fallback"] / nearest if nearest else 0.0, "ratio"
    )
    empty = sum(s.mask_cells == 0 for c in pcd_calls for r in c.records for s in r.steps)
    metrics["masking.empty_mask_ratio"] = (empty / pcd_steps, "ratio")
    per_pass = [loop.ref_s() / len(loop.passes) for loop in (traced, untraced)]
    metrics["trace_overhead_ratio"] = (per_pass[0] / per_pass[1], "ratio")
    return metrics


# -- environment -----------------------------------------------------------------


def machine_record() -> dict:
    threads = {
        k: v
        for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k.startswith("OMP_") or k == "VECLIB_MAXIMUM_THREADS"
    }
    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "scipy": getattr(scipy, "__version__", None),
        "platform": platform.platform(),
        "thread_env": threads,
    }


def setup_samples(name: str) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, so imports are paid every time.

    Each sample is (wall, reference) seconds; the host speed probed around
    the interpreter scales the set-up time it reports.
    """
    clock = Clock()
    command = [sys.executable, workloads.__file__, name]
    runs = [
        clock.time(
            lambda: subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        )
        for _ in range(SETUP_SAMPLES)
    ]
    samples = []
    for done, start, end in runs:
        setup = float(done.stdout.split()[-1])
        samples.append((setup, setup * clock.reference_s(start, end) / (end - start)))
    return samples


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="picks the block of base seeds")
    parser.add_argument("--seconds", type=float, default=10.0, help="least timed-loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--block", type=int, default=None, help="seeds per pass (default: the workload's own)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.block is not None and args.block < 1:
        parser.error("--block must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SOURCE / "pcd" / "__init__.py").is_file():
        print(f"error: no pcd package under {workloads.SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SOURCE))

    workload = workloads.build(args.workload, args.block)
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    setup = setup_samples(args.workload) if args.trace == 0 else []
    start = args.seed * workload.block
    seeds = range(start, start + workload.block)

    # warm-up: one episode per arm, outside the timed loop
    for arm in workload.arms:
        run_pass(replace(workload, arms=(arm,), chunk=1), seeds[:1], Clock())

    loop = run_loop(workload, seeds, seconds=args.seconds)
    loops = [loop]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, seeds, tracer=tracer)
        finally:
            tracer.uninstall()
        loops.append(traced)
        metrics = per_layer(loop, traced, tracer)
    else:
        metrics = end_to_end(workload, loop, setup)

    use_reference = args.seed == 0 and workload.block == workloads.BLOCKS[workload.name]
    replayed = replay(workload, seeds)
    digests, problems = check(workload, seeds, loops, replayed, use_reference)
    records = [r for lp in loops for r in lp.records()] + [r for _, r in replayed]
    attempted = len(records)
    failed = sum(r.error is not None for r in records)
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()

    print(
        f"workload {workload.name} seed={args.seed} seeds={seeds.start}..{seeds.stop - 1} "
        f"passes={len(loop.passes)} timed_s={loop.wall_s:.3f}"
    )
    for arm, digest in digests.items():
        print(f"replay_digest.{arm} {digest}")
    print(f"replay_digest {combined}")
    print("reference " + ("checked" if use_reference else "not checked (it holds seed 0)"))
    print(f"episodes attempted={attempted} failed={failed} error_rate={failed / attempted!r}")
    if not args.trace:
        print(f"step_ms samples={len(step_ms_samples(loop.calls()))} (pcd-arm episodes)")
        print("setup_s samples (wall s) " + " ".join(f"{wall:.4f}" for wall, _ in setup))
        calls = loop.calls()
        print(
            f"wall ms_per_step={ms_per_step(calls, lambda c: c.wall_s):.4f} "
            f"reference/wall={loop.ref_s() / sum(c.wall_s for c in calls):.4f}"
        )
    if tracer is not None:
        print("missing_bindings " + json.dumps(tracer.missing))
        print("missing_spans " + json.dumps(tracer.missing_spans()))
        path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(
            path,
            {
                "workload": workload.name,
                "seed": args.seed,
                "machine": machine,
                "missing_bindings": tracer.missing,
                "metrics": {k: v for k, (v, _) in metrics.items()},
            },
        )
        print(f"spans written to {path.relative_to(workloads.ROOT)}")
    for problem in problems:
        print("FAILED CHECK " + problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!r} {unit}")

    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
