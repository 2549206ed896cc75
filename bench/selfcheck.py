"""Self-check of the benchmark on a minimal block of every workload.

    python3 bench/selfcheck.py

For each workload in BENCHMARK.json it runs the benchmark twice untraced
and once traced, on a block of two seeds, and checks that:

- each end-to-end metric appears with the unit BENCHMARK.json gives it;
- both untraced invocations, and the traced one, print the same
  replay_digest;
- the traced run reports every per-layer metric with its unit, or lists
  the span behind it as a missing binding.

Exits with code 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ["--seed", "0", "--seconds", "0", "--block", "2"]


def invoke(spec: dict, workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--trace", str(trace)] + SMOKE,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    return lines, json.loads(lines[-1])


def line_value(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix)).split(" ", 1)[1]


def units_problems(metrics: dict, specs: list[dict], missing: list[str]) -> list[str]:
    problems = []
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            if not any(spec["name"].startswith(span + ".") for span in missing):
                problems.append(f"metric {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit {got['unit']}, not {spec['unit']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, result = invoke(spec, workload, 0)
        second, _ = invoke(spec, workload, 0)
        traced, traced_result = invoke(spec, workload, 1)
        found = units_problems(result["metrics"], spec["end_to_end"], [])
        digests = {line_value(out, "replay_digest ") for out in (first, second, traced)}
        if len(digests) != 1:
            found.append(f"replay_digest differs between invocations: {sorted(digests)}")
        missing = json.loads(line_value(traced, "missing_spans "))
        found += units_problems(traced_result["metrics"], spec["per_layer"], missing)
        for out in (result, traced_result):
            if not out["correct"] or out["failed"]:
                found.append("a run reported incorrect output or failed episodes")
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += [f"{workload}: {p}" for p in found]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
