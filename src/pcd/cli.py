"""Command-line interface.

Commands compose the same pieces the library exposes: `run` evaluates
one configuration, `sweep` varies one axis, `mi` reports the
action/factor dependence diagnostic, `demo` renders a single episode,
and `calibrate` searches the mixture weight for the benchmark band.
Flags override config-file values; unset flags leave them untouched.
The exit code is 2 for bad input, and 1 when `run`, `sweep` or `demo`
had episodes that raised; those episodes score as failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfgmod
from .harness import (
    SWEEP_AXES,
    append_results,
    build_policy,
    calibrate,
    estimate_mi,
    evaluate_batch,
    result_row,
    run_episode,
    sweep,
    sweep_to_csv,
)
from .raster import write_ppm
from .world import World, make_task

DEFAULT_SWEEP_VALUES = {
    "alpha": "0.2,0.4,0.6,0.8,1.0",
    "n_samples": "8,16,24,48",
    "bandwidth": "scott,0.005,0.01,0.02",
    "miss_prob": "0,0.1,0.2,0.4",
    "jitter": "0,1,2,4",
    "inpaint": "constant,mean,diffusion",
    "shift": "none,spatial,brightness,distractors,texture",
    "lambda": "0,0.2,0.4,0.6,0.8,1.0",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--method", choices=cfgmod.METHODS, default=None)
    parser.add_argument("--task", choices=("reach", "pick_place", "move_near", "stack"),
                        default=None)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--shift", choices=("none", "spatial", "brightness",
                        "distractors", "texture"), default=None)
    parser.add_argument("--alpha", type=float, default=None, help="contrast strength")
    parser.add_argument("--selection", choices=("greedy", "sample"), default=None)
    parser.add_argument("--n-samples", type=int, default=None,
                        help="action samples per branch for sampler policies")
    parser.add_argument("--bandwidth", type=str, default=None,
                        help="'scott' or a fixed kernel bandwidth")
    parser.add_argument("--prompt", choices=cfgmod.PROMPT_KINDS, default=None)
    parser.add_argument("--tracker", choices=cfgmod.TRACKER_KINDS, default=None)
    parser.add_argument("--inpaint", choices=cfgmod.INPAINT_KINDS, default=None)
    parser.add_argument("--miss-prob", type=float, default=None)
    parser.add_argument("--jitter", type=int, default=None)
    parser.add_argument("--policy", choices=cfgmod.POLICY_KINDS, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="weight of the light-seeking branch")
    parser.add_argument("--diffusion-steps", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--both-metrics", action="store_true", default=None,
                        help="run every episode to the step budget and report both rates")


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}

    def put(path: tuple[str, ...], value) -> None:
        if value is None:
            return
        node = over
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value

    put(("method",), args.method)
    put(("task", "kind"), args.task)
    put(("task", "max_steps"), args.max_steps)
    put(("shift", "variant"), args.shift)
    put(("decode", "alpha"), args.alpha)
    put(("decode", "selection"), args.selection)
    put(("kde", "n_samples"), args.n_samples)
    if args.bandwidth is not None:
        put(("kde", "bandwidth"),
            args.bandwidth if args.bandwidth == "scott" else float(args.bandwidth))
    put(("mask", "prompt"), args.prompt)
    put(("mask", "tracker"), args.tracker)
    put(("mask", "inpaint"), args.inpaint)
    put(("mask", "miss_prob"), args.miss_prob)
    put(("mask", "jitter"), args.jitter)
    put(("policy", "kind"), args.policy)
    put(("policy", "lambda"), args.lam)
    if args.diffusion_steps is not None:
        put(("policy", "diffusion", "steps"), args.diffusion_steps)
    put(("trials",), args.trials)
    put(("seed",), args.seed)
    put(("both_metrics",), args.both_metrics)
    return over


def _config_from_args(args: argparse.Namespace) -> cfgmod.PcdRunConfig:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    else:
        base = {}
    return cfgmod.from_dict(cfgmod.merge(base, _overrides(args)))


def _print_result(cfg: cfgmod.PcdRunConfig, result) -> None:
    print(
        f"method={cfg.method} task={cfg.task_kind} shift={cfg.shift.kind} "
        f"alpha={cfg.decode.alpha} policy={cfg.policy.kind} lambda={cfg.policy.lam} "
        f"trials={result.n_trials}"
    )
    print(
        f"rate_completion={result.rate_completion:.4f} "
        f"rate_maxstep={result.rate_maxstep:.4f} "
        f"mean_ms={result.mean_ms:.2f} n_errors={result.n_errors} "
        f"config={result.config_hash}"
    )


def _errors_exit(results) -> int:
    """1, with a line on stderr, when any batch had episodes that raised."""
    failed = sum(r.n_errors for r in results)
    if not failed:
        return 0
    total = sum(r.n_trials for r in results)
    print(f"error: {failed} of {total} episodes raised; they score as failures", file=sys.stderr)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = evaluate_batch(cfg)
    _print_result(cfg, result)
    if args.out:
        append_results(args.out, result_row(cfg, result))
        print(f"appended to {args.out}")
    return _errors_exit([result])


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    raw = args.values if args.values else DEFAULT_SWEEP_VALUES[args.axis]
    values = [v.strip() for v in raw.split(",") if v.strip()]
    rows = sweep(cfg, args.axis, values)
    header = f"{args.axis:>12}  trials  rate_completion  rate_maxstep  mean_ms  n_errors"
    print(header)
    for value, result in rows:
        print(
            f"{str(value):>12}  {result.n_trials:6d}  "
            f"{result.rate_completion:15.4f}  {result.rate_maxstep:12.4f}  "
            f"{result.mean_ms:7.1f}  {result.n_errors:8d}"
        )
    if args.csv:
        sweep_to_csv(args.axis, rows, args.csv)
        print(f"wrote {args.csv}")
    if args.out:
        for value, result in rows:
            append_results(args.out, result_row(_row_cfg(cfg, args.axis, value), result))
        print(f"appended to {args.out}")
    return _errors_exit([result for _, result in rows])


def _row_cfg(cfg: cfgmod.PcdRunConfig, axis: str, value) -> cfgmod.PcdRunConfig:
    from .harness import _with_axis_value

    return _with_axis_value(cfg, axis, value)


def _cmd_mi(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    task = make_task(cfg.task_kind, cfg.max_steps)
    world = World(task, cfg.shift, stop_on_success=True)
    policy = build_policy(cfg, task)
    report = estimate_mi(
        policy, world, n_rollouts=args.rollouts, base_seed=cfg.base_seed,
        kde_cfg=cfg.kde, decode_cfg=cfg.decode,
    )
    print(
        f"policy={cfg.policy.kind} lambda={cfg.policy.lam} task={cfg.task_kind} "
        f"shift={cfg.shift.kind} rollouts={report.n_rollouts} samples={report.n_samples}"
    )
    print(f"mi_action_spurious={report.mi_action_spurious:.4f} bits")
    print(f"mi_action_task={report.mi_action_task:.4f} bits")
    if args.compare_expert:
        expert_cfg = cfgmod.from_dict(
            cfgmod.merge(cfgmod.to_dict(cfg), {"policy": {"kind": "expert"}, "method": "baseline"})
        )
        expert = build_policy(expert_cfg, task)
        exp_report = estimate_mi(
            expert, world, n_rollouts=args.rollouts, base_seed=cfg.base_seed
        )
        print(f"expert mi_action_spurious={exp_report.mi_action_spurious:.4f} bits")
        print(f"expert mi_action_task={exp_report.mi_action_task:.4f} bits")
        gap = report.mi_action_spurious - exp_report.mi_action_spurious
        print(f"spurious gap over expert={gap:+.4f} bits")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    task = make_task(cfg.task_kind, cfg.max_steps)
    world = World(task, cfg.shift, stop_on_success=not cfg.both_metrics)
    policy = build_policy(cfg, task)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def observer(step, scene, obs, obs_masked, action, result) -> None:
        write_ppm(obs, out_dir / f"step_{step:04d}.ppm")
        if obs_masked is not None:
            write_ppm(obs_masked, out_dir / f"step_{step:04d}_masked.ppm")
        vec = ",".join(f"{a:+.3f}" for a in action)
        mask_info = "" if obs_masked is None else " masked"
        print(
            f"step {step:04d} action=({vec}) success={result.success_now}{mask_info}"
        )

    seed = cfg.base_seed
    record = run_episode(policy, world, cfg, seed, observer=observer)
    print(
        f"episode seed={seed} steps={record.total_steps} "
        f"success_completion={record.success_completion} "
        f"success_maxstep={record.success_maxstep}"
    )
    print(f"frames in {out_dir}")
    if record.error is not None:
        print(f"error: episode raised {record.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    lambdas = [float(v) for v in args.lambdas.split(",") if v.strip()]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    report = calibrate(
        lambdas=lambdas,
        coarse_trials=args.coarse_trials,
        trials=args.trials,
        out_path=out_path,
    )
    for row in report["coarse"]:
        print(f"lambda={row['lambda']:.2f} baseline rate={row['rate_completion']:.3f}")
    print(
        f"chosen lambda={report['lambda']} baseline={report['baseline_rate']:.3f} "
        f"pcd={report['pcd_rate']:.3f} p={report['p_value']:.5f} "
        f"in_band={report['in_band']}"
    )
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcd",
        description="Contrastive action decoding on a synthetic manipulation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one configuration")
    _add_run_flags(p_run)
    p_run.add_argument("--out", type=str, default=None, help="append a JSONL result row")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate a configuration along one axis")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, default="alpha")
    p_sweep.add_argument("--values", type=str, default=None,
                         help="comma-separated axis values")
    p_sweep.add_argument("--csv", type=str, default=None, help="write rows as CSV")
    p_sweep.add_argument("--out", type=str, default=None, help="append JSONL result rows")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mi = sub.add_parser("mi", help="action/factor mutual-information diagnostic")
    _add_run_flags(p_mi)
    p_mi.add_argument("--rollouts", type=int, default=300)
    p_mi.add_argument("--compare-expert", action="store_true")
    p_mi.set_defaults(func=_cmd_mi)

    p_demo = sub.add_parser("demo", help="render one episode to PPM frames")
    _add_run_flags(p_demo)
    p_demo.add_argument("--out-dir", type=str, default="frames")
    p_demo.set_defaults(func=_cmd_demo)

    p_cal = sub.add_parser("calibrate", help="fit the benchmark mixture weight")
    p_cal.add_argument("--lambdas", type=str, default="0.5,0.55,0.6,0.65,0.7")
    p_cal.add_argument("--coarse-trials", type=int, default=150)
    p_cal.add_argument("--trials", type=int, default=500)
    p_cal.add_argument("--out", type=str, default="configs/calibrated.json")
    p_cal.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
