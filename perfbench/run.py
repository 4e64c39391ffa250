"""mmgl benchmark: three workloads driven through mmgl.cli.main in-process.

    python3 perfbench/run.py --workload er100-mc --seed 1 --seconds 20 --trace 0

Set-up imports mmgl from the checkout's src/, makes the inputs and runs one
untimed warm-up instance; each step is done three times and the medians
count. The timed part repeats one round, a fixed CLI call on fixed inputs,
until --seconds have passed. Every round after the first must write the
same bytes as the first; after the timed part, the first round's outputs
are checked against the benchmark's own arithmetic (perfbench/checks.py).
The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (which
alternates plain and traced rounds, see perfbench/tracing.py).
"""

import argparse
import contextlib
import dataclasses
import filecmp
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import CheckFailure, check_instance, check_signal_model, check_summary, read_edges, read_signals
from tracing import SELF_TIMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # "bench" (a bundle of `runs` instances) or "solve"
    family: str               # ground-truth family of the generated instances
    p: int
    graph: tuple              # generator parameters besides p, as (name, value)
    runs: int = 1             # instances per round
    n: int = 1200
    sigma: float = 0.1
    alpha: float = 100.0
    beta: float = 1e4
    epsilon: float = 1e-4
    max_iters: int | None = None      # None: the program's default cap
    gap: float = 1e-2                 # allowed relative f gap above the L-BFGS-B optimum
    retired_tol: float | None = None  # first-order check on retired edges, if set


ER = (("prob_edge", 0.1),)
SBM = (("p_in", 0.3), ("p_out", 0.05))

WORKLOADS = {
    wl.name: wl for wl in (
        # The acceptance criterion-7 bundle; generation and writing dominate.
        Workload("er100-mc", "bench", "er", 100, ER, runs=100, gap=5e-3),
        # One large graph from a signals file; reading and writing dominate.
        Workload("signals1000-solve", "solve", "er", 1000, ER, gap=2e-3),
        # A tight tolerance where the MM loop dominates and edges retire.
        Workload("sbm200-tight", "bench", "sbm", 200, SBM, runs=2, beta=100.0,
                 epsilon=1e-10, max_iters=100000, gap=1e-6, retired_tol=1e-6),
    )
}

# Tiny sizes for --quick: the same paths and checks in well under a second.
QUICK = {
    "er100-mc": {"p": 20, "runs": 5},
    "signals1000-solve": {"p": 40, "n": 200},
    "sbm200-tight": {"p": 30},
}


def _flag(value):
    return repr(value) if isinstance(value, float) else str(value)


class Runner:
    """One workload at one seed: its inputs, its CLI calls, its outputs."""

    def __init__(self, wl, seed, work, mods):
        self.wl = wl
        self.work = work
        self.mods = mods
        # Instances of one seed never overlap those of another.
        self.base_seed = 10_000 * seed
        self.input_dir = work / "input"

    def gen_args(self):
        wl = self.wl
        args = ["--family", wl.family, "--p", str(wl.p)]
        for key, value in wl.graph:
            args += ["--" + key.replace("_", "-"), _flag(value)]
        return args + ["--n", str(wl.n), "--sigma", _flag(wl.sigma)]

    def argv(self, out, seed=None, runs=None):
        wl = self.wl
        solver = ["--alpha", _flag(wl.alpha), "--beta", _flag(wl.beta),
                  "--epsilon", _flag(wl.epsilon)]
        if wl.max_iters:
            solver += ["--max-iters", str(wl.max_iters)]
        if wl.command == "solve":
            return ["solve", "--signals", str(self.input_dir / "signals.csv"),
                    *solver, "--out", str(out)]
        return ["bench", *self.gen_args(), *solver,
                "--runs", str(runs or wl.runs),
                "--seed", str(self.base_seed if seed is None else seed),
                "--out", str(out)]

    def call(self, argv, main=None):
        """One CLI call, stdout captured. Returns (exit code, wall seconds)."""
        main = main or self.mods["cli"].main
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        return rc, time.perf_counter() - t0

    def setup_once(self, rep):
        """Make the inputs and run one warm-up instance; returns seconds.

        `mmgl gen` runs in its own process, as a user would run it, so its
        memory stays out of this process's peak RSS.
        """
        t0 = time.perf_counter()
        if self.wl.command == "solve":
            subprocess.run([sys.executable, "-m", "mmgl.cli", "gen", *self.gen_args(),
                            "--seed", str(self.base_seed), "--out", str(self.input_dir)],
                           env=child_env(), cwd=ROOT, capture_output=True, check=True, timeout=150)
            warm = self.argv(self.work / f"warmup{rep}")
        else:
            # A seed outside the timed bundle's instances.
            warm = self.argv(self.work / f"warmup{rep}", seed=self.base_seed + self.wl.runs, runs=1)
        rc, _ = self.call(warm)
        if rc != 0:
            raise RuntimeError(f"warm-up instance exited with {rc}")
        elapsed = time.perf_counter() - t0
        shutil.rmtree(self.work / f"warmup{rep}")
        return elapsed


@dataclass
class Round:
    out: Path
    rc: int
    wall: float
    traced: bool = False
    same: list = None       # per instance: byte-identical to the first round
    bundle_bytes: int = 0   # all files the round wrote
    edge_bytes: int = 0     # its edges_run*.csv files
    edge_rows: int = 0
    peak_rss_mb: float = 0.0  # the process's peak RSS when the round ended


def run_rounds(runner, seconds, tracer=None):
    """Repeat the round until `seconds` have passed. With a tracer, rounds
    alternate plain and traced, starting plain, and end on a traced one."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        out = runner.work / f"round{len(rounds)}"
        argv = runner.argv(out)
        try:
            if traced:
                with tracer.install(runner.mods):
                    rc, wall = runner.call(argv, tracer.span("cli.main", runner.mods["cli"].main))
            else:
                rc, wall = runner.call(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc, wall = -1, float("nan")
        rounds.append(finish_round(runner.wl, rounds, Round(out, rc, wall, traced)))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or traced):
            return rounds


def finish_round(wl, rounds, r):
    """Untimed work after a round: peak RSS and sizes, then for every round
    but the first the byte comparison with the first and removal, so that
    outputs do not pile up on disk while later rounds are timed."""
    r.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if r.out.is_dir():
        files = list(r.out.iterdir())
        r.bundle_bytes = sum(q.stat().st_size for q in files)
        edges = [q for q in files if q.name.startswith("edges_run")]
        r.edge_bytes = sum(q.stat().st_size for q in edges)
        if r.traced:
            r.edge_rows = sum(q.read_bytes().count(b"\n") - 1 for q in edges)
    if rounds:
        r.same = same_instances(wl, rounds[0], r)
        shutil.rmtree(r.out, ignore_errors=True)
    return r


def instance_files(k):
    return (f"edges_run{k}.csv", f"trace_run{k}.csv")


def same_instances(wl, ref, r):
    """Per instance, whether round r wrote the same bytes as round ref."""
    shared = wl.command != "bench" or _same(ref.out / "summary.csv", r.out / "summary.csv")
    return [r.rc == 0 and shared and all(_same(ref.out / name, r.out / name) for name in instance_files(k))
            for k in range(wl.runs)]


def evaluate(runner, rounds):
    """Check every instance of every round. Returns (failed, F1 values,
    gap to the L-BFGS-B optimum)."""
    wl = runner.wl
    mods = runner.mods
    data_gen = mods["data_gen"]
    ref = rounds[0]
    ok = [False] * wl.runs
    f1s = []
    gap = None
    iteration_counts = []
    if ref.rc == 0:
        for k in range(wl.runs):
            try:
                if wl.command == "solve":
                    X = read_signals(runner.input_dir / "signals.csv")
                    truth = np.zeros(wl.p * (wl.p - 1) // 2, dtype=bool)
                    truth[read_edges(runner.input_dir / "edges_true.csv", wl.p)[0]] = True
                else:
                    seed = runner.base_seed + k
                    gen = data_gen.gen_er if wl.family == "er" else data_gen.gen_sbm
                    g = gen(wl.p, *(v for _, v in wl.graph), seed)
                    X = data_gen.gen_signals(g, data_gen.SignalModel(sigma=wl.sigma, n=wl.n), seed)
                    truth = g.w_true > 0
                check_signal_model(X, wl.sigma)
                edges, trace = instance_files(k)
                iters, f1, g_k = check_instance(
                    ref.out / edges, ref.out / trace, X, mods["graph_model"].pairwise_distances(X),
                    wl.alpha, wl.beta, wl.epsilon, truth,
                    retired_tol=wl.retired_tol,
                    gap=wl.gap if k == 0 else None)
                ok[k] = True
                f1s.append(f1)
                iteration_counts.append(iters)
                if k == 0:
                    gap = g_k
            except (CheckFailure, OSError, ValueError) as exc:
                print(f"{wl.name}: instance {k} of {ref.out.name} failed: {exc}", file=sys.stderr)
        if wl.command == "bench" and all(ok):
            try:
                check_summary(ref.out / "summary.csv", iteration_counts, wl.runs)
            except (CheckFailure, OSError, ValueError) as exc:
                print(f"{wl.name}: {ref.out.name}/summary.csv failed: {exc}", file=sys.stderr)
                ok = [False] * wl.runs
    failed = ok.count(False)
    for r in rounds[1:]:
        for k in range(wl.runs):
            if not (ok[k] and r.same[k]):
                failed += 1
                print(f"{wl.name}: instance {k} of {r.out.name} differs from {ref.out.name} "
                      f"or its reference failed", file=sys.stderr)
    return failed, f1s, gap


def _same(a, b):
    try:
        return filecmp.cmp(a, b, shallow=False)
    except OSError:
        return False


def trace_metrics(runner, rounds, tracer):
    """Per-layer metrics, per instance, from the traced rounds."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    count = len(traced) * runner.wl.runs
    self_times = tracer.self_times()
    metrics = {}
    for name, spans in SELF_TIMES.items():
        metrics[name] = (sum(self_times.get(s, 0.0) for s in spans) / count, "s")
    metrics["trace.wall_s"] = (sum(r.wall for r in traced) / count, "s")
    traced_ok = [r.wall for r in traced if r.rc == 0]
    plain_ok = [r.wall for r in plain if r.rc == 0]
    overhead = statistics.median(traced_ok) - statistics.median(plain_ok) if traced_ok and plain_ok else 0.0
    metrics["tracing_overhead_s"] = (overhead / runner.wl.runs, "s")
    iters = [t.iterations.size - 1 for t in tracer.traces]
    updates = sum(int(t.active_count[:-1].sum()) for t in tracer.traces)
    solve_s = self_times.get("mm_solver.solve", 0.0)
    walls = np.concatenate([t.wall_time[1:] for t in tracer.traces] or [np.zeros(0)])
    metrics["mm_solver.iters"] = (sum(iters) / count, "count")
    metrics["mm_solver.edge_updates"] = (updates / count, "count")
    metrics["mm_solver.edge_updates_per_s"] = (updates / solve_s if solve_s else 0.0, "1/s")
    metrics["mm_solver.iter_s_p50"] = (float(np.median(walls)) if walls.size else 0.0, "s")
    metrics["mm_solver.final_active_edges"] = (
        sum(int(t.active_count[-1]) for t in tracer.traces) / count, "count")
    metrics["graph_model.save_edges_bytes"] = (sum(r.edge_bytes for r in traced) / count, "B")
    metrics["graph_model.save_edges_rows"] = (sum(r.edge_rows for r in traced) / count, "count")
    metrics["bench.bundle_bytes"] = (sum(r.bundle_bytes for r in traced) / count, "B")
    if runner.wl.command != "solve":
        # Only a solve from a signals file reads one.
        del metrics["graph_model.load_signals_s"]
        return metrics
    metrics["graph_model.load_signals_bytes"] = (
        sum(Path(q).stat().st_size for q in tracer.loaded_paths) / count, "B")
    return metrics


def import_mmgl():
    """Import mmgl from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("mmgl.cli")
    except ImportError as exc:
        raise SystemExit(f"cannot import mmgl from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mmgl was imported from {cli.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"mmgl.{name}")
            for name in ("cli", "bench", "data_gen", "graph_model", "mm_solver")}


IMPORT_PROBE = "import time; t = time.perf_counter(); import mmgl.cli; print(repr(time.perf_counter() - t))"


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds():
    """Median time of `import mmgl.cli` in fresh interpreters: an import
    happens once per process, so it is repeated in children."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def run(wl, seed, seconds, trace, work):
    """Set up, time, check. Returns the result object."""
    mods = import_mmgl()
    import_s = import_seconds()

    runner = Runner(wl, seed, work, mods)
    work.mkdir(parents=True, exist_ok=True)
    setup = [runner.setup_once(rep) for rep in range(SETUP_REPEATS)]
    tracer = Tracer() if trace else None
    rounds = run_rounds(runner, seconds, tracer)
    t_check = time.perf_counter()
    failed, f1s, gap = evaluate(runner, rounds)
    print(f"{wl.name}: round walls {[round(r.wall, 3) for r in rounds]}; checks took "
          f"{time.perf_counter() - t_check:.1f} s; relative gap to the L-BFGS-B optimum {gap}",
          file=sys.stderr)
    if trace:
        metrics = trace_metrics(runner, rounds, tracer)
    else:
        done = [r for r in rounds if r.rc == 0]
        metrics = {
            "setup_s": (import_s + statistics.median(setup), "s"),
            "instances_per_s": (wl.runs * len(done) / sum(r.wall for r in done) if done else 0.0, "1/s"),
            # After the first round: the peak creeps up with more rounds of
            # the same work, and how many rounds fit depends on speed.
            "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
            "edge_f1": (statistics.fmean(f1s) if f1s else 0.0, "1"),
        }
    attempted = len(rounds) * wl.runs
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for a smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]
    if args.quick:
        wl = dataclasses.replace(wl, **QUICK[wl.name])
    work = WORK / f"{wl.name}-{os.getpid()}"
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
