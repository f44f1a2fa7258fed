"""Timed closed-loop run of one benchmark workload.

    PYTHONPATH=src python3 perfbench/workload.py --workload W --manifest M \
        --seconds S --trace 0|1 --work DIR

Runs the scenarios of a manifest written by ``generate.py`` one after the
other (one client, closed loop) through the package's public entry points,
in whole passes over the scenario list until ``--seconds`` have elapsed,
and checks every output against the acceptance tolerances and the
generator's reference values.  Prints an ``info`` JSON line and then the
result line ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` untraced and traced passes alternate: the per-layer
metrics come from the traced passes and ``trace.overhead_frac`` compares
the two kinds.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

import graphon_lqr as gl
from graphon_lqr import cli
from warmup import warm_up

# Acceptance-suite tolerances.
COST_GAP = 1e-5        # decoupled vs oracle relative cost gap
P_GAP = 1e-6           # reconstructed vs matrix-Riccati P, max abs
RATIO_GAP = 1e-4       # measured vs predicted terminal ratio
DOMINANCE = 1e-8       # J_truncated >= J_optimal - DOMINANCE
VALUE_REL = 1e-4       # |J - V| / V against the benchmark's own reference


class CommandFailed(Exception):
    """The command exited with a non-zero code."""


def run_cli(argv: list):
    """``cli.main`` with its console output captured; non-zero exit raises."""
    console = io.StringIO()
    with redirect_stdout(console), redirect_stderr(console):
        code = cli.main(argv)
    if code != 0:
        lines = console.getvalue().strip().splitlines()
        raise CommandFailed(f"exit {code}: {lines[-1] if lines else ''}")


def relative_error(j: float, item: dict) -> float:
    return abs(j - item["v_ref"]) / item["v_ref"]


def value_problems(rel: float) -> list:
    return [] if rel <= VALUE_REL else [f"|J - V|/V = {rel:.3e} > {VALUE_REL:g}"]


# -- small-verified: graphon-lqr run <scenario> --compare-oracle ---------------


def execute_small(item: dict, out: str):
    run_cli(["run", item["file"], "--compare-oracle", "--out", out])


def check_small(item: dict, out: str, _result) -> tuple[list, float]:
    with open(os.path.join(out, "cost.json")) as fh:
        cost = json.load(fh)
    problems = []
    if not cost["oracle_rel_gap"] <= COST_GAP:
        problems.append(f"oracle cost gap {cost['oracle_rel_gap']:.3e} > {COST_GAP:g}")
    if not cost["oracle_p_gap"] <= P_GAP:
        problems.append(f"oracle P gap {cost['oracle_p_gap']:.3e} > {P_GAP:g}")
    rel = relative_error(cost["total"], item)
    return problems + value_problems(rel), rel


# -- large-network: the library pipeline ----------------------------------------


def execute_large(item: dict, _out: str) -> float:
    scn = item["scenario"]
    kernel = gl.graphon_from_spec(scn["graphon"])
    problem = gl.LqrProblem(scn["alpha0"], gl.CoeffPoly(scn["poly_b"]),
                            gl.CoeffPoly(scn["poly_q"]), gl.CoeffPoly(scn["poly_p0"]),
                            kernel, scn["horizon"])
    system = gl.build_step_system(gl.sample_step_entries(kernel, item["n"]), problem)
    gains = gl.synthesize_gains(problem, scn["dt"])
    traj = gl.simulate(system, gl.feedback_controller(problem, gains), item["x0"],
                       scn["horizon"], scn["dt"])
    return gl.evaluate_cost(traj, system).total


def check_large(item: dict, _out: str, total: float) -> tuple[list, float]:
    rel = relative_error(total, item)
    return value_problems(rel), rel


# -- truncation-sweep: graphon-lqr truncation-study <scenario> ------------------


def execute_sweep(item: dict, out: str):
    run_cli(["truncation-study", item["file"], "--out", out])


def check_sweep(item: dict, out: str, _result) -> tuple[list, float]:
    rows = np.loadtxt(os.path.join(out, "truncation.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    d = item["rank"]
    if rows.shape != (d + 1, 3 + 2 * d):
        return [f"truncation.csv has shape {rows.shape}, "
                f"expected {(d + 1, 3 + 2 * d)}"], float("nan")
    levels, j_trunc, j_opt = rows[:, 0], rows[:, 1], rows[:, 2]
    measured, predicted = rows[:, 3:3 + d], rows[:, 3 + d:]
    problems = []
    if not np.array_equal(levels, np.arange(d + 1)):
        problems.append(f"levels {levels.tolist()}, expected 0..{d}")
    excess = float(np.min(j_trunc - j_opt))
    if not excess >= -DOMINANCE:
        problems.append(f"truncated cost below the optimum by {-excess:.3e}")
    if len(item["scenario"]["poly_b"]) == 1:
        dropped = np.arange(d)[None, :] >= levels[:, None]
        if not np.all(np.isfinite(predicted[dropped])):
            problems.append("ratio prediction missing for a constant input polynomial")
    both = np.isfinite(measured) & np.isfinite(predicted)
    gap = float(np.max(np.abs(measured - predicted)[both], initial=0.0))
    if not gap <= RATIO_GAP:
        problems.append(f"terminal ratio gap {gap:.3e} > {RATIO_GAP:g}")
    rel = relative_error(float(j_opt[0]), item)
    return problems + value_problems(rel), rel


WORKLOADS = {
    "small-verified": (execute_small, check_small),
    "large-network": (execute_large, check_large),
    "truncation-sweep": (execute_sweep, check_sweep),
}


def attempt(item: dict, execute, check, work: str) -> dict:
    """Run one scenario and check its outputs; never raises."""
    out = os.path.join(work, "out", item["id"])
    record = {"id": item["id"], "known_defect": item.get("known_defect", False)}
    start = time.perf_counter()
    try:
        result = execute(item, out)
    except CommandFailed as exc:
        record["error"] = str(exc)
    except Exception:  # a traceback from the package is a failed scenario
        record["error"] = traceback.format_exc().strip().splitlines()[-1]
    record["latency"] = time.perf_counter() - start
    if "error" not in record:
        try:
            record["problems"], record["rel_err"] = check(item, out, result)
        except (OSError, ValueError, KeyError) as exc:
            record["problems"], record["rel_err"] = [f"unreadable output: {exc}"], None
    record["ok"] = "error" not in record and not record["problems"]
    return record


def run_passes(items: list, workload: str, seconds: float, tracer, work: str):
    """Whole passes until ``seconds`` elapse; with a tracer, alternate
    untraced and traced passes and end after a traced one."""
    execute, check = WORKLOADS[workload]
    records, passes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        with tracer.active() if traced else nullcontext():
            with tracer.region("bench.pass") if traced else nullcontext():
                for item in items:
                    with (tracer.region("bench.scenario", item["id"]) if traced
                          else nullcontext()):
                        records.append(attempt(item, execute, check, work))
        passes.append((traced, time.perf_counter() - pass_start))
        if time.perf_counter() - start >= seconds and (tracer is None
                                                       or len(passes) % 2 == 0):
            return records, passes, time.perf_counter() - start


def end_to_end(items: list, records: list, wall: float) -> dict:
    by_id = {item["id"]: item for item in items}
    node_steps = sum(by_id[r["id"]]["n"] * by_id[r["id"]]["steps"]
                     * by_id[r["id"]]["loops"] for r in records if r["ok"])
    # a failed scenario ranks as slower than any success: it takes the run's wall
    latencies = [r["latency"] if r["ok"] else wall for r in records]
    rel = [r["rel_err"] for r in records if r["ok"]]
    return {
        "node_steps_per_s": (node_steps / wall, "node-steps/s"),
        "scenario_s.p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # with no successful scenario there is no error to report: count it as 100%
        "value_rel_err.max": (max(rel, default=1.0), "1"),
        "success_frac": (sum(r["ok"] for r in records) / len(records), "1"),
    }


def outcome(records: list) -> dict:
    """Result counts; ``correct`` is false when a scenario reported success
    but failed a check (a clean rejection is a failure, not a wrong answer)."""
    return {
        "correct": not any("error" not in r and r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
    }


def tail_latency(records: list, wall: float) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    lat = sorted(r["latency"] if r["ok"] else wall for r in records)
    if len(lat) < 11:
        return None
    return {"pct": 100.0 * (len(lat) - 10) / len(lat), "value": lat[-11]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    with open(args.manifest) as fh:
        items = json.load(fh)
    for item in items:
        if "x0_file" in item:
            item["x0"] = np.load(item["x0_file"])
    warm_up()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    records, passes, wall = run_passes(items, args.workload, args.seconds, tracer,
                                       args.work)

    failures = {}
    for r in records:
        if not r["ok"]:
            failures.setdefault(r["id"], {
                "error": r.get("error"), "problems": r.get("problems"),
                "known_defect": r["known_defect"],
                "scenario": next(i["scenario"] for i in items if i["id"] == r["id"])})
    for sid, fail in failures.items():
        why = fail["error"] or "; ".join(fail["problems"])
        note = " (known defect)" if fail["known_defect"] else ""
        print(f"failed {sid}{note}: {why}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(items, records, wall)
    else:
        traced = [w for t, w in passes if t]
        untraced = [w for t, w in passes if not t]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0, "1")
        tracer.write(os.path.join(args.work, "trace.csv"))

    info = {
        "workload": args.workload, "passes": len(passes), "wall_s": wall,
        "scenarios_per_pass": len(items), "samples": len(records),
        "tail_latency": tail_latency(records, wall), "failures": failures,
        "numpy": np.__version__,
    }
    result = dict(outcome(records),
                  metrics={name: {"value": value, "unit": u}
                           for name, (value, u) in metrics.items()})
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump({"info": info, "result": result, "records": records}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
