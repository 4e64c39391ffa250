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


def test_run_er_benchmark_smoke(tmp_path):
    lines = run_script("run_er_benchmark.py", "--runs", "2", "--sizes", "20", "--seed", "1",
                       "--out", str(tmp_path))
    assert lines[0].split() == ["setting", "solver", "mean", "median", "time[s]"]
    assert len(lines) == 2
    assert re.fullmatch(r"\s+er p=20\s+mm\s+\d+\.\d\d\s+\d+\.\d\s+\d+\.\d{4}", lines[1])
    assert (tmp_path / "er20-mm" / "summary.csv").exists()
    assert sorted(q.name for q in (tmp_path / "er20-mm").glob("edges_run*.csv")) == [
        "edges_run0.csv", "edges_run1.csv"]


def test_run_er_benchmark_names_stop_reasons(tmp_path):
    # the oracle meets its default tol after 35, 35 and 46 steps on seeds
    # 5, 6 and 7, and MM converges within the cap, so a cap of 40 on both
    # stops only the oracle's third run
    lines = run_script("run_er_benchmark.py", "--sizes", "30", "--runs", "3", "--seed", "5",
                       "--alpha", "10", "--beta", "10", "--with-oracle", "--max-iters", "40",
                       "--out", str(tmp_path))
    assert len(lines) == 3
    assert lines[2].split()[2] == "newton-oracle"
    assert lines[2].endswith("  (stop reasons: converged 2, max_iters 1)")
    assert not any("cap" in line for line in lines)


def test_tune_hyperparams_smoke():
    lines = run_script("tune_hyperparams.py", "--p", "20", "--n", "200", "--seeds", "1")
    assert lines[0].split() == ["alpha", "beta", "F1", "iters"]
    grid = lines[1:50]
    assert all(re.fullmatch(r"\s+\S+\s+\S+\s+[01]\.\d{3}\s+\d+\.\d", row) for row in grid)
    assert lines[50] == ""
    assert lines[51].startswith("best recovery overall:     alpha=")
    assert lines[52].startswith(("best within iter budget:   alpha=", "no grid point meets"))
    assert len(lines) == 53


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_tune_hyperparams_refuses_no_seeds(seeds):
    # no instance to score would print a grid of nan; the spec refuses it,
    # naming the flag typed
    out = script_process("tune_hyperparams.py", "--p", "20", "--seeds", seeds)
    assert (out.returncode, out.stdout) == (2, "")
    assert f"error: need --seeds >= 1, got {seeds}" in out.stderr, out.stderr
