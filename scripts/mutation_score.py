#!/usr/bin/env python3
"""Mutation score of the tier-1 tests: which tests fail on each one-token
flip of src/mmgl.

A site is one operator token in src/mmgl/*.py, outside f-strings, that
flips to its partner: + and -, * and /, < and <=, > and >=, == and !=, and
and or. A flip that does not compile is dropped. Each mutant runs the
tier-1 command, without -x, under -p no:cacheprovider and
--hypothesis-seed=0, in a copy of the checkout that holds no .hypothesis/
directory and no bytecode, so one mutant's run cannot change another's. A mutant is killed when the run
fails; one that runs past TIMEOUT_FACTOR times the clean run's time is
killed too, labelled "timeout". The script refuses to start when the
unmutated tests fail, and never writes inside the checkout it scores.

It prints one row per site as it runs (the site, then the failing test ids,
or "survived"), and then the score. Runs are serial: some tests measure
time and memory. At about 300 sites and 24 s a run, a full run takes about
two hours on two cores.

Example:
    python3 scripts/mutation_score.py [CHECKOUT]
"""

import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

FLIPS = {"+": "-", "*": "/", "<": "<=", ">": ">=", "==": "!=", "and": "or"}
FLIPS.update({new: old for old, new in FLIPS.items()})
FSTRING_START, FSTRING_END = (getattr(tokenize, name, None) for name in ("FSTRING_START", "FSTRING_END"))
TIMEOUT_FACTOR = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "-rfE"]


def sites(root):
    """(path relative to root, line, column, token, flip) of every flip in
    src/mmgl/*.py that compiles."""
    found = []
    for path in sorted((root / "src" / "mmgl").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        depth = 0  # inside an f-string, which Python 3.12 tokenizes into parts
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
            if tok.string in FLIPS and tok.type in (tokenize.OP, tokenize.NAME) and not depth:
                (row, col), flip = tok.start, FLIPS[tok.string]
                try:
                    compile(mutate(lines, row, col, tok.string, flip), str(path), "exec")
                except SyntaxError:
                    continue
                found.append((path.relative_to(root).as_posix(), row, col, tok.string, flip))
    return found


def mutate(lines, row, col, old, new):
    line = lines[row - 1]
    return "".join(lines[:row - 1] + [line[:col] + new + line[col + len(old):]] + lines[row:])


def run_tests(tree, timeout=None):
    """(failing test ids, seconds) of one tier-1 run in tree; the ids are
    ["timeout"] for a run killed at the timeout."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *TIER1], cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the tests' own child processes too
        proc.communicate()
        return ["timeout"], time.perf_counter() - start
    failed = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode and not failed:
        failed = [f"exit {proc.returncode}"]
    return failed, time.perf_counter() - start


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="mmgl-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        failed, clean = run_tests(tree)
        if failed:
            print(f"the unmutated tests fail, so no mutant is scored: {' '.join(failed)}", file=sys.stderr)
            return 1
        todo = sites(tree)
        print(f"{len(todo)} sites; clean run {clean:.1f} s; timeout {TIMEOUT_FACTOR * clean:.1f} s", flush=True)
        killed = 0
        for rel, row, col, old, new in todo:
            path = tree / rel
            text = path.read_text(encoding="utf-8")
            path.write_text(mutate(text.splitlines(keepends=True), row, col, old, new), encoding="utf-8")
            try:
                failed, seconds = run_tests(tree, TIMEOUT_FACTOR * clean)
            finally:
                path.write_text(text, encoding="utf-8")
            killed += bool(failed)
            print(f"{rel}:{row}:{col} {old} -> {new} ({seconds:.1f} s): {' '.join(failed) or 'survived'}",
                  flush=True)
        print(f"score: {killed} of {len(todo)} killed ({killed / max(len(todo), 1):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
