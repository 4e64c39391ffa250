import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    """script_process, checked for its exit code; returns its stdout lines."""
    out = script_process(name, *args)
    assert out.returncode == returncode, out.stderr
    return out.stdout.splitlines()


def script_process(name, *args):
    """Run scripts/<name> with src/ on the path; RuntimeWarnings are errors."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_tune_hyperparams_smoke():
    lines = run_script("tune_hyperparams.py", "--p", "20", "--n", "200", "--seeds", "1")
    assert lines[0].split() == ["alpha", "beta", "F1", "iters"]
    grid = lines[1:50]
    assert all(re.fullmatch(r"\s+\S+\s+\S+\s+[01]\.\d{3}\s+\d+\.\d", row) for row in grid)
    assert lines[50] == ""
    assert lines[51].startswith("best recovery overall:     alpha=")
    assert lines[52].startswith(("best within iter budget:   alpha=", "no grid point meets"))
    assert len(lines) == 53


def test_tune_hyperparams_budget_pick_needs_converged_runs():
    # at alpha 1e300 and beta 1e-300, f overflows and the run stops
    # non_finite after 1 iteration: cheap, but no pick; every point that
    # converges takes more than 15 iterations
    lines = run_script("tune_hyperparams.py", "--p", "20", "--n", "200", "--seeds", "1",
                       "--alphas", "1e300", "10", "--betas", "1e-300", "1")
    row = lines[1].split()
    assert (row[0], row[1], row[3]) == ("1e+300", "1e-300", "1.0")
    assert lines[-1] == "no grid point meets the 15-iteration budget"


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_tune_hyperparams_refuses_no_seeds(seeds):
    # no instance to score would print a grid of nan; the spec refuses it,
    # naming the flag typed
    out = script_process("tune_hyperparams.py", "--p", "20", "--seeds", seeds)
    assert (out.returncode, out.stdout) == (2, "")
    assert f"error: need --seeds >= 1, got {seeds}" in out.stderr, out.stderr


def test_tune_hyperparams_refuses_a_negative_base_seed():
    out = script_process("tune_hyperparams.py", "--p", "20", "--seeds", "1", "--base-seed", "-1")
    assert (out.returncode, out.stdout) == (2, "")
    assert "error: need --base-seed >= 0, got -1" in out.stderr, out.stderr


@pytest.mark.parametrize("flags", [
    ["--alphas", "1", "-1"], ["--betas", "10", "0"], ["--betas", "nan"],
    # a budget no mean can meet once ran the whole grid for nothing
    ["--iter-budget", "nan"], ["--iter-budget", "-1"],
])
def test_tune_hyperparams_refuses_grid_values_before_any_row(flags):
    # check_reals, run on every grid value and the budget before the grid
    # prints; the refusal names the flag and the value
    out = script_process("tune_hyperparams.py", "--p", "20", "--n", "200", "--seeds", "1", *flags)
    assert (out.returncode, out.stdout) == (2, "")
    value = float(flags[-1])
    rule = {"--alphas": "alpha > 0", "--betas": "beta > 0", "--iter-budget": "iter_budget >= 0"}[flags[0]]
    assert f"error: {flags[0]} {value}: need finite {rule}, got {value}" in out.stderr, out.stderr
