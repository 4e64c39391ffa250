#!/usr/bin/env python3
"""Mutation score of the tier-1 tests: which tests fail on each one-token
flip of src/mmgl.

A site is one operator token in src/mmgl/*.py, outside f-strings, that
flips to its partner: + and -, * and /, < and <=, > and >=, == and !=, and
and or. A flip that does not compile is dropped. Each mutant runs the
tier-1 command, without -x, under -p no:cacheprovider and
--hypothesis-seed=0, in a copy of the checkout that holds no .hypothesis/
directory and no bytecode, so one mutant's run cannot change another's. A
mutant is killed when the run fails. One that runs past TIMEOUT_FACTOR
times the clean run's time is run once more against TIMEOUT_FACTOR times a
fresh clean run's time, and is killed, labelled "timeout", only if it runs
past that too: a run slowed by a busy host is not a kill. The script
refuses to start when the unmutated tests fail, and never writes inside
the checkout it scores.

It prints one row per site as it runs (the site, then the failing test ids,
or "survived"), and then the score. Runs are serial: some tests measure
time and memory. At 297 sites and a 27 s clean run, a full run took 2 h 23
min on a 2-core host. --sites PATH:FIRST-LAST scores only the sites on
lines FIRST to LAST of PATH (relative to the checkout), such as the lines
a change touches.

Example:
    python3 scripts/mutation_score.py [CHECKOUT] [--sites src/mmgl/graph_model.py:370-545]
"""

import argparse
import io
import os
import re
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


def line_range(text):
    """The value of --sites, PATH:FIRST-LAST, as (PATH, FIRST, LAST)."""
    match = re.fullmatch(r"(.+):(\d+)-(\d+)", text)
    if not match or int(match[2]) > int(match[3]):
        raise argparse.ArgumentTypeError(f"need PATH:FIRST-LAST with FIRST <= LAST, got {text!r}")
    return Path(match[1]).as_posix(), int(match[2]), int(match[3])


def sites(root, only=None):
    """(path relative to root, line, column, token, flip) of every flip in
    src/mmgl/*.py that compiles; given only, a line_range, just those on
    its lines."""
    found = []
    for path in sorted((root / "src" / "mmgl").glob("*.py")):
        if only and path.relative_to(root).as_posix() != only[0]:
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        depth = 0  # inside an f-string, which Python 3.12 tokenizes into parts
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
            if tok.string in FLIPS and tok.type in (tokenize.OP, tokenize.NAME) and not depth and (
                    not only or only[1] <= tok.start[0] <= only[2]):
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


def run_mutant(tree, path, mutant, timeout):
    """run_tests with path's text replaced by mutant, then restored."""
    text = path.read_text(encoding="utf-8")
    path.write_text(mutant, encoding="utf-8")
    try:
        return run_tests(tree, timeout)
    finally:
        path.write_text(text, encoding="utf-8")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--sites", metavar="PATH:FIRST-LAST", type=line_range,
                        help="score only the sites on these lines of PATH")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    todo = sites(root, args.sites)
    if args.sites and not todo:
        parser.error(f"no site on lines {args.sites[1]}-{args.sites[2]} of {args.sites[0]}")
    with tempfile.TemporaryDirectory(prefix="mmgl-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        failed, clean = run_tests(tree)
        if failed:
            print(f"the unmutated tests fail, so no mutant is scored: {' '.join(failed)}", file=sys.stderr)
            return 1
        print(f"{len(todo)} sites; clean run {clean:.1f} s; timeout {TIMEOUT_FACTOR * clean:.1f} s", flush=True)
        killed = 0
        for rel, row, col, old, new in todo:
            path = tree / rel
            mutant = mutate(path.read_text(encoding="utf-8").splitlines(keepends=True), row, col, old, new)
            failed, seconds = run_mutant(tree, path, mutant, TIMEOUT_FACTOR * clean)
            if failed == ["timeout"]:  # a busy host slows every run: time it afresh and try once more
                failed, seconds = run_mutant(tree, path, mutant, TIMEOUT_FACTOR * run_tests(tree)[1])
            killed += bool(failed)
            print(f"{rel}:{row}:{col} {old} -> {new} ({seconds:.1f} s): {' '.join(failed) or 'survived'}",
                  flush=True)
        print(f"score: {killed} of {len(todo)} killed ({killed / max(len(todo), 1):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
