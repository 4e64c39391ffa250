"""Self-tests of the benchmark's checks, on --quick sizes.

    python3 perfbench/selftest.py

Each test corrupts one output of a real quick round and shows the check
reports it as a failed operation, not as a crash.
"""

import dataclasses
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import SELF_TIMES, WRAPPED, Tracer  # noqa: E402

MODS = run.import_mmgl()


def quick(name):
    return dataclasses.replace(run.WORKLOADS[name], **run.QUICK[name])


class QuickRounds(unittest.TestCase):
    """Plain rounds of one quick workload in a temporary directory, kept on
    disk so that a test can corrupt any of them before they are compared."""

    workload = "er100-mc"
    n_rounds = 2

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.runner = run.Runner(quick(self.workload), 3, Path(tmp.name), MODS)
        self.runner.setup_once(0)
        self.rounds = []
        for r in range(self.n_rounds):
            out = self.runner.work / f"round{r}"
            rc, wall = self.runner.call(self.runner.argv(out))
            self.rounds.append(run.Round(out, rc, wall))

    def failed(self):
        for r in self.rounds[1:]:
            r.same = run.same_instances(self.runner.wl, self.rounds[0], r)
        failed, _, _ = run.evaluate(self.runner, self.rounds)
        return failed

    def rewrite(self, path, edit):
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)
        path.write_text("".join(lines))


class BundleChecks(QuickRounds):
    def test_clean_outputs_pass(self):
        self.assertEqual(self.failed(), 0)

    def test_one_changed_weight_fails(self):
        def bump(lines):
            i, j, w = lines[1].rstrip("\n").split(",")
            lines[1] = f"{i},{j},{float(w) * 1.001!r}\n"
        self.rewrite(self.rounds[0].out / "edges_run1.csv", bump)
        # Instance 1 fails in the checked round and in the round compared to it.
        self.assertEqual(self.failed(), 2)

    def test_trace_row_where_f_rises_fails(self):
        def rise(lines):
            k, f, a = lines[2].split(",")
            f0 = float(lines[1].split(",")[1])
            lines[2] = f"{k},{f0 + abs(f0)!r},{a}"
        self.rewrite(self.rounds[0].out / "trace_run0.csv", rise)
        self.assertEqual(self.failed(), 2)

    def test_missing_file_fails(self):
        (self.rounds[1].out / "edges_run2.csv").unlink()
        self.assertEqual(self.failed(), 1)
        (self.rounds[0].out / "trace_run3.csv").unlink()
        self.assertEqual(self.failed(), 3)

    def test_summary_disagreeing_with_traces_fails_the_bundle(self):
        def mean(lines):
            cells = lines[1].split(",")
            cells[4] = repr(float(cells[4]) + 1.0)
            lines[1] = ",".join(cells)
        self.rewrite(self.rounds[0].out / "summary.csv", mean)
        self.assertEqual(self.failed(), 2 * self.runner.wl.runs)

    def test_nonzero_exit_fails_its_round(self):
        self.rounds[1].rc = 3
        self.assertEqual(self.failed(), self.runner.wl.runs)


class SolveChecks(QuickRounds):
    workload = "signals1000-solve"

    def test_clean_outputs_pass(self):
        self.assertEqual(self.failed(), 0)

    def test_one_changed_weight_fails(self):
        def bump(lines):
            i, j, w = lines[-1].rstrip("\n").split(",")
            lines[-1] = f"{i},{j},{float(w) * 0.999!r}\n"
        self.rewrite(self.rounds[0].out / "edges_run0.csv", bump)
        self.assertEqual(self.failed(), 2)

    def test_rounds_that_differ_fail(self):
        self.rewrite(self.rounds[1].out / "trace_run0.csv", lambda lines: lines.pop())
        self.assertEqual(self.failed(), 1)


class TightChecks(QuickRounds):
    workload = "sbm200-tight"
    n_rounds = 1

    def test_clean_outputs_pass(self):
        self.assertEqual(self.failed(), 0)

    def test_dropped_edge_fails(self):
        # Retiring a live edge breaks the edge count and f.
        self.rewrite(self.rounds[0].out / "edges_run0.csv", lambda lines: lines.pop(1))
        self.assertEqual(self.failed(), 1)


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def run_quick(self, name, trace):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        return run.run(quick(name), 5, 0.2, trace, Path(tmp.name))

    def test_end_to_end_metrics_match_the_spec(self):
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertLessEqual({wl["name"] for wl in self.spec["workloads"]}, set(run.WORKLOADS))
        for name in run.WORKLOADS:
            result = self.run_quick(name, False)
            self.assertEqual(result["failed"], 0)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)

    def test_per_layer_metrics_match_the_spec_and_account_for_the_wall(self):
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        reading = {"graph_model.load_signals_s": "s", "graph_model.load_signals_bytes": "B"}
        for name, wl in run.WORKLOADS.items():
            result = self.run_quick(name, True)
            self.assertEqual(result["failed"], 0)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            names = dict(listed, **reading) if wl.command == "solve" else listed
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
            self_total = sum(metrics.get(k, 0.0) for k in SELF_TIMES)
            # The rest of the wall is the benchmark's own call overhead.
            self.assertAlmostEqual(self_total, metrics["trace.wall_s"], delta=0.01 * metrics["trace.wall_s"])


class TracerRestores(unittest.TestCase):
    def test_install_puts_the_originals_back(self):
        before = {(m, a): getattr(MODS[m], a) for m, a, _ in WRAPPED}
        with Tracer().install(MODS):
            self.assertNotEqual(MODS["mm_solver"].solve, before[("mm_solver", "solve")])
        for (m, a), fn in before.items():
            self.assertIs(getattr(MODS[m], a), fn)


if __name__ == "__main__":
    unittest.main()
