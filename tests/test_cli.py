"""CLI behaviour, exercised in-process through main()."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import pcd.cli
import pcd.harness
from pcd.cli import main
from pcd.config import from_dict
from pcd.harness import evaluate_batch, load_results


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    assert code == 0, capsys.readouterr().err
    return capsys.readouterr().out


FAST_RUN = (
    "run",
    "--task", "reach",
    "--shift", "brightness",
    "--policy", "mixture",
    "--lambda", "0.65",
    "--trials", "6",
    "--seed", "0",
)


class Boom:
    """A sampler policy whose every query raises."""

    m = 3

    def sample(self, obs, instruction, n, rng):
        raise RuntimeError("boom")


@pytest.fixture
def failing_policy(monkeypatch) -> None:
    def build(cfg, task=None):
        return Boom()

    monkeypatch.setattr(pcd.harness, "build_policy", build)
    monkeypatch.setattr(pcd.cli, "build_policy", build)


def test_run_prints_rates(capsys) -> None:
    out = run_cli(capsys, *FAST_RUN)
    assert "n_errors=0" in out
    assert "rate_completion=" in out
    assert "rate_maxstep=" in out
    assert "task=reach" in out
    assert "lambda=0.65" in out


def test_run_appends_results(capsys, tmp_path) -> None:
    out_file = tmp_path / "rows.jsonl"
    run_cli(capsys, *FAST_RUN, "--method", "baseline", "--out", str(out_file))
    run_cli(capsys, *FAST_RUN, "--method", "pcd", "--alpha", "1.0", "--out", str(out_file))
    rows = load_results(out_file)
    assert len(rows) == 2
    assert rows[0]["method"] == "baseline" and rows[1]["method"] == "pcd"
    assert rows[0]["task"] == "reach"
    assert rows[0]["trials"] == 6


def test_config_file_with_flag_overrides(capsys, tmp_path) -> None:
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "task": {"kind": "reach"},
                "shift": {"variant": "brightness"},
                "policy": {"kind": "mixture", "lambda": 0.65},
                "trials": 40,
            }
        )
    )
    out = run_cli(capsys, "run", "--config", str(cfg_path), "--trials", "5")
    assert "trials=5" in out  # the flag wins over the file
    assert "shift=brightness" in out  # the file fills what flags leave unset


def test_cli_matches_library_rates(capsys) -> None:
    out = run_cli(capsys, *FAST_RUN)
    cfg = from_dict(
        {
            "task": {"kind": "reach"},
            "shift": {"variant": "brightness"},
            "policy": {"kind": "mixture", "lambda": 0.65},
            "trials": 6,
            "seed": 0,
        }
    )
    result = evaluate_batch(cfg)
    assert f"rate_completion={result.rate_completion:.4f}" in out
    assert result.config_hash in out


def test_sweep_prints_table_and_writes_csv(capsys, tmp_path) -> None:
    csv_path = tmp_path / "alpha.csv"
    out = run_cli(
        capsys,
        "sweep",
        "--task", "reach",
        "--shift", "brightness",
        "--policy", "mixture",
        "--lambda", "0.65",
        "--method", "pcd",
        "--trials", "4",
        "--axis", "alpha",
        "--values", "0,1.0",
        "--csv", str(csv_path),
    )
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split() == [
        "alpha", "trials", "rate_completion", "rate_maxstep", "mean_ms", "n_errors"
    ]
    rows = [ln for ln in lines if ln.lstrip().startswith(("0", "1"))]
    assert len(rows) == 2 and all(row.split()[-1] == "0" for row in rows)
    content = csv_path.read_text().splitlines()
    assert len(content) == 3  # header + two rows


def test_sweep_appends_rows_with_axis_configs(capsys, tmp_path) -> None:
    out_file = tmp_path / "sweep.jsonl"
    run_cli(
        capsys,
        "sweep",
        "--task", "reach",
        "--shift", "none",
        "--policy", "mixture",
        "--lambda", "0.65",
        "--trials", "3",
        "--axis", "shift",
        "--values", "none,brightness",
        "--out", str(out_file),
    )
    rows = load_results(out_file)
    assert [r["shift"] for r in rows] == ["none", "brightness"]
    assert rows[0]["config_hash"] != rows[1]["config_hash"]


def test_mi_command_reports_bits(capsys) -> None:
    out = run_cli(
        capsys,
        "mi",
        "--task", "reach",
        "--shift", "brightness",
        "--policy", "mixture",
        "--lambda", "0",
        "--rollouts", "100",
    )
    assert "mi_action_spurious=" in out
    assert "bits" in out


def test_mi_compare_expert(capsys) -> None:
    out = run_cli(
        capsys,
        "mi",
        "--task", "reach",
        "--shift", "none",
        "--policy", "mixture",
        "--lambda", "0.65",
        "--rollouts", "100",
        "--compare-expert",
    )
    assert "expert mi_action_spurious=" in out
    assert "spurious gap over expert=" in out


def test_demo_writes_frames(capsys, tmp_path) -> None:
    frames = tmp_path / "frames"
    out = run_cli(
        capsys,
        "demo",
        "--task", "reach",
        "--shift", "brightness",
        "--policy", "mixture",
        "--lambda", "0.65",
        "--method", "pcd",
        "--alpha", "1.0",
        "--seed", "3",
        "--out-dir", str(frames),
    )
    plain = sorted(frames.glob("step_*[0-9].ppm"))
    masked = sorted(frames.glob("step_*_masked.ppm"))
    assert plain and masked
    assert len(plain) == len(masked)  # every step renders both branches
    header = plain[0].read_bytes()[:2]
    assert header == b"P6"
    assert "step 0000 action=(" in out
    assert "success_completion=" in out


def test_demo_baseline_has_no_masked_frames(capsys, tmp_path) -> None:
    frames = tmp_path / "frames"
    run_cli(
        capsys,
        "demo",
        "--task", "reach",
        "--shift", "none",
        "--policy", "mixture",
        "--lambda", "0",
        "--method", "baseline",
        "--seed", "1",
        "--out-dir", str(frames),
    )
    assert sorted(frames.glob("step_*[0-9].ppm"))
    assert not list(frames.glob("step_*_masked.ppm"))


def test_bad_inputs_exit_with_error(capsys, tmp_path) -> None:
    code = main(["run", "--task", "reach", "--trials", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    code = main(["run", "--config", str(missing)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    bad_sections = [
        ({"decode": 5}, "decode"),
        ({"decode": "ab"}, "decode"),
        ({"policy": {"diffusion": 3}}, "policy.diffusion"),
        ({"policy": {"diffusion": {"eta": 1}}}, "policy.diffusion"),
        ({"kde": {"n_samples": "24"}}, "kde.n_samples"),
        ({"task": {"max_steps": "9"}}, "task.max_steps"),
        ({"policy": {"lambda": None}}, "policy.lambda"),
    ]
    for raw, section in bad_sections:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(path), "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and section in err
    # a wrong-typed leaf that no flag overrides
    for raw in ({"trials": "5"}, {"trials": None}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials must be an integer")


def test_errored_episodes_are_counted_and_exit_1(capsys, tmp_path, failing_policy) -> None:
    assert main(list(FAST_RUN)) == 1
    out, err = capsys.readouterr()
    assert "n_errors=6" in out
    assert err == "error: 6 of 6 episodes raised; they score as failures\n"

    sweep = ["sweep", *FAST_RUN[1:], "--axis", "alpha", "--values", "0,1"]
    assert main(sweep) == 1
    out, err = capsys.readouterr()
    assert "n_errors" in out.splitlines()[0]
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["6", "6"]
    assert err.startswith("error: 12 of 12 episodes raised")

    demo = ["demo", "--policy", "diffusion", "--out-dir", str(tmp_path / "frames")]
    assert main(demo) == 1
    out, err = capsys.readouterr()
    assert "steps=0" in out
    assert err == "error: episode raised RuntimeError: boom\n"


def test_exact_tracker_with_a_point_prompt_runs_clean(capsys) -> None:
    # every pcd episode past step 0 used to raise, and the run exited 0
    out = run_cli(
        capsys, *FAST_RUN, "--method", "pcd", "--prompt", "point", "--tracker", "exact"
    )
    assert "n_errors=0" in out


def test_unknown_flag_value_rejected_by_argparse() -> None:
    with pytest.raises(SystemExit):
        main(["run", "--task", "juggle"])


def test_module_entry_point_help() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pcd.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for command in ("run", "sweep", "mi", "demo", "calibrate"):
        assert command in proc.stdout
