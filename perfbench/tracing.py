"""Layer spans recorded from outside the package.

`Tracer.install` rebinds the package's public functions, wherever a
module of the package binds them by name (``graphon_lqr.sim`` imports
``apply_poly_matrix`` and ``feedback_controller`` by name, for example),
to wrappers that record one span per call: name, start, end, parent span
and scenario id.  Controller closures returned by ``feedback_controller``
and ``oracle_controller`` are wrapped too.  Spans stay in memory until
`Tracer.write`; `Tracer.layer_metrics` derives self times (span minus
child spans) and counts per layer.
"""
from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from graphon_lqr import cli, graphon, lqr, poly, riccati, sim

# The benchmark's own spans; their self time is reported as bench.self_s.
BENCH_SPANS = ("bench.pass", "bench.scenario")

# Counts of calls reported per layer, keyed by span name.
CALL_COUNTS = {
    "sim.simulate": "sim.simulate_calls",
    "riccati.matrix": "riccati.matrix_calls",
    "lqr.synthesize": "lqr.synthesize_calls",
    "lqr.controller": "lqr.controller_calls",
}

# Self-time metric per span name.
SELF_TIMES = {
    "graphon.sample": "graphon.sample_s",
    "graphon.decompose": "graphon.decompose_s",
    "poly.matrix": "poly.matrix_s",
    "sim.build": "sim.build_s",
    "sim.simulate": "sim.simulate_s",
    "sim.cost": "sim.cost_s",
    "sim.oracle": "sim.oracle_s",
    "sim.truncation": "sim.truncation_s",
    "riccati.scalar": "riccati.scalar_s",
    "riccati.matrix": "riccati.matrix_s",
    "lqr.synthesize": "lqr.synthesize_s",
    "lqr.controller": "lqr.controller_s",
    "cli.parse": "cli.parse_s",
    "cli.command": "cli.command_s",
    "cli.artifacts": "cli.artifacts_s",
}

# Counters measured at layer boundaries rather than derived from spans, with
# their units; sim.system_mb is a maximum, the others are totals.
BOUNDARY_COUNTS = {"riccati.scalar_eqs": "count", "sim.system_mb": "MB",
                   "cli.artifact_mb": "MB"}


def _system_bytes(system) -> int:
    return sum(v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, scenario]
        self.counts = defaultdict(float)
        self.scenario = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording a span per call; ``on_return(args, result)``
        runs after the span closes and returns the value handed back."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return on_return(args, result) if on_return else result

        return traced

    @contextmanager
    def region(self, name: str, scenario: str = ""):
        """A span around benchmark code, e.g. one pass or one scenario."""
        if scenario:
            self.scenario = scenario
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.scenario]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers ----------------------------------------------

    def _targets(self) -> dict:
        """id of the original function -> traced replacement."""
        counts = self.counts

        def count_equations(args, result):
            counts["riccati.scalar_eqs"] += np.broadcast(*args[:4]).size
            return result

        def system_size(args, result):
            counts["sim.system_mb"] = max(counts["sim.system_mb"],
                                          _system_bytes(result) / 1e6)
            return result

        def artifact_size(args, result):
            counts["cli.artifact_mb"] += os.path.getsize(args[0]) / 1e6
            return result

        def wrap_oracle(args, result):
            controller, path = result
            return self.wrap("sim.oracle", controller), path

        feedback = lqr.feedback_controller

        def feedback_controller(*args, **kwargs):
            return self.wrap("lqr.controller", feedback(*args, **kwargs))

        replacements = {
            graphon.sample_step_entries: self.wrap("graphon.sample",
                                                   graphon.sample_step_entries),
            poly.apply_poly_matrix: self.wrap("poly.matrix", poly.apply_poly_matrix),
            sim.build_step_system: self.wrap("sim.build", sim.build_step_system,
                                             system_size),
            sim.simulate: self.wrap("sim.simulate", sim.simulate),
            sim.evaluate_cost: self.wrap("sim.cost", sim.evaluate_cost),
            sim.oracle_compare: self.wrap("sim.oracle", sim.oracle_compare),
            sim.oracle_controller: self.wrap("sim.oracle", sim.oracle_controller,
                                             wrap_oracle),
            sim.truncation_study: self.wrap("sim.truncation", sim.truncation_study),
            riccati.riccati_path: self.wrap("riccati.scalar", riccati.riccati_path,
                                            count_equations),
            riccati.solve_matrix_riccati: self.wrap("riccati.matrix",
                                                    riccati.solve_matrix_riccati),
            lqr.synthesize_gains: self.wrap("lqr.synthesize", lqr.synthesize_gains),
            feedback: feedback_controller,
        }
        for fn in (cli.load_scenario, cli.build_experiment):
            replacements[fn] = self.wrap("cli.parse", fn)
        for fn in (cli.main, cli.run_scenario, cli.run_truncation_study):
            replacements[fn] = self.wrap("cli.command", fn)
        for fn in (cli.write_gains_csv, cli.write_trajectory_csv,
                   cli.write_truncation_csv, cli.write_json):
            replacements[fn] = self.wrap("cli.artifacts", fn, artifact_size)
        return {id(fn): wrapper for fn, wrapper in replacements.items()}

    def install(self):
        """Rebind every by-name binding of a traced function in the package."""
        targets = self._targets()
        modules = [m for name, m in sys.modules.items()
                   if name == "graphon_lqr" or name.startswith("graphon_lqr.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])
        decompose = graphon.StepGraphon.spectral_decompose
        self._patches.append((graphon.StepGraphon, "spectral_decompose", decompose))
        graphon.StepGraphon.spectral_decompose = self.wrap("graphon.decompose",
                                                            decompose)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _scn in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for k, (name, start, end, _parent, _scn) in enumerate(self.spans):
            totals[name] += (end - start) - child[k]
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer ``(value, unit)``: self times and counts per traced pass."""
        totals = self.self_times()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out = {metric: (totals.get(name, 0.0) / passes, "s")
               for name, metric in SELF_TIMES.items()}
        out.update({metric: (calls.get(name, 0) / passes, "count")
                    for name, metric in CALL_COUNTS.items()})
        for name, unit in BOUNDARY_COUNTS.items():
            per = 1 if name == "sim.system_mb" else passes
            out[name] = (self.counts[name] / per, unit)
        out["bench.self_s"] = (sum(totals.get(n, 0.0) for n in BENCH_SPANS) / passes, "s")
        out["trace.wall_s"] = (sum(s[2] - s[1] for s in self.spans
                                   if s[0] == "bench.pass") / passes, "s")
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,scenario\n")
            for name, start, end, parent, scn in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{scn}\n")
