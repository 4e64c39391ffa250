"""Spans around mmgl's public layer functions, installed from outside.

Tracer.install() replaces module attributes with timing wrappers and puts
the originals back on exit, so the traced path is the untraced path plus
one perf_counter pair per call. Spans (name, start, end, parent) are held
in memory; counts that need a file or a result are taken after the round,
outside every span.
"""

import contextlib
import functools
import time

# (module name, attribute, span name). data_gen imports pairwise_distances
# by name, so both bindings are wrapped under one span name.
WRAPPED = (
    ("bench", "run_montecarlo", "bench.run_montecarlo"),
    ("bench", "run_single", "bench.run_single"),
    ("bench", "write_trace_csv", "bench.write_trace_csv"),
    ("data_gen", "gen_er", "data_gen.gen_er"),
    ("data_gen", "gen_sbm", "data_gen.gen_sbm"),
    ("data_gen", "gen_signals", "data_gen.gen_signals"),
    ("data_gen", "assemble", "data_gen.assemble"),
    ("data_gen", "pairwise_distances", "graph_model.pairwise_distances"),
    ("graph_model", "pairwise_distances", "graph_model.pairwise_distances"),
    ("graph_model", "load_signals_csv", "graph_model.load_signals_csv"),
    ("graph_model", "save_edges_csv", "graph_model.save_edges_csv"),
    ("mm_solver", "solve", "mm_solver.solve"),
)

# Per-layer self-time metrics: metric name -> span names it sums.
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "bench.self_s": ("bench.run_montecarlo", "bench.run_single"),
    "bench.write_trace_s": ("bench.write_trace_csv",),
    "data_gen.gen_graph_s": ("data_gen.gen_er", "data_gen.gen_sbm"),
    "data_gen.gen_signals_s": ("data_gen.gen_signals",),
    "data_gen.assemble_self_s": ("data_gen.assemble",),
    "graph_model.pairwise_distances_s": ("graph_model.pairwise_distances",),
    "graph_model.load_signals_s": ("graph_model.load_signals_csv",),
    "graph_model.save_edges_s": ("graph_model.save_edges_csv",),
    "mm_solver.solve_s": ("mm_solver.solve",),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []
        self.loaded_paths = []  # signal files read
        self.traces = []       # ConvergenceTrace of every solve

    def span(self, name, fn):
        """Wrap fn so each call records one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    @contextlib.contextmanager
    def install(self, modules):
        """Wrap every function in WRAPPED; `modules` maps module names to
        the imported mmgl modules."""
        originals = []
        try:
            for mod_name, attr, span_name in WRAPPED:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self.span(span_name, self._recording(span_name, fn)))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def _recording(self, span_name, fn):
        """Keep the arguments or results that counts are taken from later."""
        if span_name == "graph_model.load_signals_csv":
            def load(path, *args, **kwargs):
                self.loaded_paths.append(path)
                return fn(path, *args, **kwargs)
            return load
        if span_name == "mm_solver.solve":
            def solve(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.traces.append(result.trace)
                return result
            return solve
        return fn

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _), c in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - c
        return totals
