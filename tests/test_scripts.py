import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmgl import bench
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

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


def script_module(name):
    """scripts/<name>, imported as a module; its main() does not run."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# seed (or mean), k, alpha = beta, MM's iterations and exact F1, the oracle's
# support F1, gap and stop reason (none on the row of means)
ROW = r"\s+(\d+|mean)\s+[\d.]+\s+\S+\s+[\d.]+\s+[01]\.\d{3}\s+[01]\.\d{3}\s+\S+\s*(converged|stationary|max_iters|non_finite)?"


def test_tune_hyperparams_smoke():
    # at sigma 0, two isolated nodes of seed 1000 have all-zero signals: a
    # zero distance, so the k or k + 1 nearest distances of these and of a
    # third node tie, and their intervals are unbounded and left out
    lines = run_script("tune_hyperparams.py", "--p", "20", "--n", "200", "--seeds", "2", "--sigma", "0")
    assert lines[0].split() == ["seed", "k", "alpha=beta", "iters", "F1", "oracle", "F1", "gap", "oracle", "stop"]
    assert [line.split()[0] for line in lines[1:]] == ["1000", "1001", "mean"]
    assert all(re.fullmatch(ROW, line) for line in lines[1:]), lines
    # one rule picks both weights, and k is held to [2, p - 2]
    assert all(2 <= float(line.split()[1]) <= 18 for line in lines[1:])
    # six nodes of seed 1000 lie 1e-32 to 1e-28 from another, with midpoints
    # of 1e27 to 2.4e30, which a mean over the nodes follows down to
    # alpha = beta = 3.4e-30; the median of the 17 midpoints gives 58.3
    assert float(lines[1].split()[2]) > 1e-20
    # with no edge in the truth every node's distances tie: the seed is
    # refused, naming it, after the header
    out = script_process("tune_hyperparams.py", "--p", "20", "--prob-edge", "0", "--sigma", "0", "--seeds", "1")
    assert out.returncode == 1 and len(out.stdout.splitlines()) == 1
    assert out.stderr == "seed 1000: every node's 2 or 3 nearest distances tie, so the rule gives no theta\n"


@pytest.mark.parametrize("p", ["2", "3"])
def test_tune_hyperparams_refuses_fewer_than_4_nodes(p):
    # k is held to [2, p - 2], and the rule reads the k + 1 nearest distances
    out = script_process("tune_hyperparams.py", "--p", p, "--seeds", "1")
    assert (out.returncode, out.stdout) == (2, "")
    assert f"error: need --p >= 4, got {p}" in out.stderr, out.stderr


def test_tune_hyperparams_rule_at_10_edges_per_node():
    # ER p=100, n=1200, sigma 0.1 at seeds 1000-1002 (true mean degrees 10.2,
    # 9.9 and 9.2): the rule's alpha = beta for k = 10, and the mean degree
    # of the certified optimum there
    kp_theta = script_module("tune_hyperparams.py").kp_theta
    picks, degrees = [], []
    spec = bench.ExperimentSpec(p=100, n=1200, monte_carlo_runs=3, seed=1000)
    for g, X in bench.run_data(spec):
        d = gm.pairwise_distances(X)
        alpha = 1 / kp_theta(d, 100, 10)
        res = ms.newton_solve(gm.ProblemInstance(p=100, d=d, alpha=alpha, beta=alpha), ms.SolverConfig(tol=1e-9))
        assert res.converged
        picks.append(round(alpha, 1))
        degrees.append(round(2 * np.count_nonzero(res.w_star) / 100, 1))
    assert (picks, degrees) == ([147.8, 164.2, 176.3], [10.6, 11.0, 10.6])


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


def test_mutation_score_prints_the_kill_matrix_of_a_toy_tree(tmp_path):
    # one site that test_add kills, one that no test kills and one that
    # loops forever; the tool scores a copy, so the toy tree is left as it was
    files = {
        "src/mmgl/__init__.py": "",
        "src/mmgl/toy.py": "def add(a, b):\n    return a + b\n\n\ndef smaller(a, b):\n    return a < b\n\n\n"
                           "def spin(n):\n    while n:\n        n = n - 1\n    return n\n",
        "tests/test_toy.py": "from mmgl.toy import add, smaller, spin\n\n\n"
                             "def test_add():\n    assert add(2, 3) == 5\n\n\n"
                             "def test_smaller():\n    assert smaller(1, 2)\n\n\n"
                             "def test_spin():\n    assert spin(3) == 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    lines = run_script("mutation_score.py", str(tmp_path))
    assert re.fullmatch(r"src/mmgl/toy\.py:2:13 \+ -> - \([\d.]+ s\): tests/test_toy\.py::test_add", lines[1]), lines
    assert re.fullmatch(r"src/mmgl/toy\.py:6:13 < -> <= \([\d.]+ s\): survived", lines[2]), lines
    assert re.fullmatch(r"src/mmgl/toy\.py:11:14 - -> \+ \([\d.]+ s\): timeout", lines[3]), lines
    assert (len(lines), lines[-1]) == (5, "score: 2 of 3 killed (66.7%)")
    assert {str(f.relative_to(tmp_path)): f.read_text(encoding="utf-8")
            for f in tmp_path.rglob("*") if f.is_file()} == files
    # a failing unmutated run scores nothing
    (tmp_path / "tests/test_toy.py").write_text("def test_fails():\n    assert False\n", encoding="utf-8")
    out = script_process("mutation_score.py", str(tmp_path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "the unmutated tests fail, so no mutant is scored: tests/test_toy.py::test_fails\n"


def test_every_test_the_workflow_names_exists():
    # CI names tests by id: a renamed or folded test fails here, not only on
    # the hosted runner
    workflow = (ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    defined = {path.name: {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                           if isinstance(node, ast.FunctionDef)} for path in (ROOT / "tests").glob("test_*.py")}
    qualified = re.findall(r"tests/(test_\w+\.py)::(test_\w+)", workflow)
    named = re.findall(r"\btest_\w+\b(?!\.py)", workflow)
    assert (len(qualified), len(named)) == (5, 12)
    assert [f"{file}::{name}" for file, name in qualified if name not in defined.get(file, ())] == []
    assert [name for name in named if not any(name in names for names in defined.values())] == []
