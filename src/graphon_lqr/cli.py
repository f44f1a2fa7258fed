"""Command-line front end: scenario files, presets, artifact emission.

Subcommands::

    graphon-lqr run scenario.json [--compare-oracle] [--dt ...] [--out DIR]
    graphon-lqr example-vii [--dt ...] [--out DIR]
    graphon-lqr truncation-study scenario.json [--levels 0,1] [--out DIR]
    graphon-lqr oracle-check scenario.json [--out DIR]

Artifacts are plot-ready CSV/JSON files: ``gains.csv`` (t, L, M_1..M_d),
``trajectory.csv`` (t, x_1..x_n, u_1..u_n), ``cost.json`` and, for the
truncation study, ``truncation.csv``.  Runs are reproducible: the same
scenario and seed yield byte-identical artifacts, and the resolved
scenario is echoed next to them.

Exit codes: 0 success, 2 scenario/validation failure (a field of the
wrong JSON type, an unreadable input path, an unwritable output directory
and a network that the kernel eigenfunctions do not decouple, which the
step system rejects, included), 3 numeric failure (a blow-up, an
overflowing gain, a failed LAPACK call or an allocation that does not fit
in memory, such as the n x n coupling matrix of a huge ``n``).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .graphon import StepGraphon, graphon_from_spec, json_number, sample_step_entries
from .lqr import LqrProblem, feedback_controller, synthesize_gains, truncate_problem
from .poly import CoeffPoly
from .riccati import Curve
from .sim import (build_step_system, evaluate_cost, initial_state, oracle_compare,
                  simulate, truncation_study)

_FLOAT_FMT = "%.17g"


@dataclass
class Scenario:
    """One experiment: problem data, kernel, network size and run options."""

    alpha0: float
    poly_b: list
    poly_q: list
    poly_p0: list
    horizon: float
    dt: float
    graphon: dict
    n: int | None = None
    controller: str = "optimal"
    seed: int = 0
    out: str = "out"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _field(raw: dict, name: str, read, required: bool = True, default=None):
    """Field ``name`` as ``read`` returns it; ``read`` checks its JSON type."""
    if raw.get(name) is None:  # JSON null reads as absent
        if required:
            raise ValueError(f"scenario field '{name}': missing")
        return default
    try:
        return read(raw[name])
    except ValueError as exc:
        raise ValueError(f"scenario field '{name}': {exc}") from exc


def _integer(value) -> int:
    """An integral count such as 40 or 40.0; 40.7 is rejected, not truncated."""
    if not json_number(value).is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _coeffs(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"must be a list of numeric coefficients, got {value!r}")
    return [json_number(c) for c in value]


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"must be an object, got {value!r}")
    return value


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ValueError("scenario must be a JSON object")
    dt = _field(raw, "dt", json_number, required=False)
    scn = Scenario(
        alpha0=_field(raw, "alpha0", json_number),
        poly_b=_field(raw, "poly_b", _coeffs, required=False, default=[1.0]),
        poly_q=_field(raw, "poly_q", _coeffs, required=False, default=[1.0]),
        poly_p0=_field(raw, "poly_p0", _coeffs, required=False, default=[1.0]),
        horizon=_field(raw, "horizon", json_number),
        dt=0.0 if dt is None else dt,
        graphon=_field(raw, "graphon", _object),
        n=_field(raw, "n", _integer, required=False),
        controller=_field(raw, "controller", _string, required=False,
                          default="optimal"),
        seed=_field(raw, "seed", _integer, required=False, default=0),
        out=_field(raw, "out", _string, required=False, default="out"),
    )
    if scn.dt < 0.0:
        raise ValueError(f"scenario field 'dt': must be positive, got {scn.dt}")
    if scn.dt == 0.0:
        scn.dt = 1e-3 * scn.horizon
    for name in ("alpha0", "horizon", "dt"):
        if not np.isfinite(getattr(scn, name)):
            raise ValueError(f"scenario field '{name}': must be finite")
    if scn.horizon <= 0.0:
        raise ValueError(f"scenario field 'horizon': must be positive, got {scn.horizon}")
    if scn.dt >= scn.horizon:
        raise ValueError(
            f"scenario field 'dt': must be smaller than the horizon, got {scn.dt}")
    if scn.seed < 0:
        raise ValueError(f"scenario field 'seed': must be non-negative, got {scn.seed}")
    return scn


def _read_scenario(path: str):
    """The scenario file's JSON value, not yet validated."""
    if not os.path.exists(path):
        raise ValueError(f"scenario file not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file {path} is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(_read_scenario(path))


def parse_controller(mode: str, rank: int) -> int:
    """Truncation level encoded by the controller mode string."""
    if mode == "optimal":
        return rank
    if mode == "auxiliary_only":
        return 0
    match = re.fullmatch(r"truncated\((\d+)\)", mode.strip())
    if match:
        level = int(match.group(1))
        if level > rank:
            raise ValueError(
                f"scenario field 'controller': truncation level {level} "
                f"exceeds the kernel rank {rank}")
        return level
    raise ValueError(
        "scenario field 'controller': expected optimal | truncated(L) | "
        f"auxiliary_only, got {mode!r}")


def preset_example_vii() -> Scenario:
    """Sinusoidal-kernel showcase: 40 nodes, rank-2 coupling, horizon 1.

    Self drift 2, input polynomial 1 + s/2, state and terminal weights
    (1 - s)^2; the synthesis needs two distinct scalar Riccati solves.
    """
    return Scenario(
        alpha0=2.0,
        poly_b=[1.0, 0.5],
        poly_q=[1.0, -2.0, 1.0],
        poly_p0=[1.0, -2.0, 1.0],
        horizon=1.0,
        dt=1e-3,
        graphon={"type": "sinusoidal"},
        n=40,
        controller="optimal",
        seed=7,
        out="out",
    )


def build_experiment(scn: Scenario, base_dir: str = "."):
    """Materialize a scenario: problem, step system and initial state.

    A CSV step kernel, validated once when read, is the network itself;
    an analytic kernel is sampled on ``n`` cells.  A network that the
    kernel eigenfunctions do not decouple, such as a rank-2 kernel on 2
    cells, is rejected by `build_step_system` with `ValueError`: its
    decoupled controller would not be optimal.  A full-rank step kernel
    (n = d) decouples.  The system holds the problem, and with it the
    scenario's horizon, for the oracle comparison and the truncation study.
    """
    g = graphon_from_spec(scn.graphon, base_dir)
    if isinstance(g, StepGraphon):
        if scn.n is not None and scn.n != g.n:
            raise ValueError(
                f"scenario field 'n': {scn.n} does not match the "
                f"{g.n}x{g.n} coupling matrix")
        network, kernel = g, g.spectral_decompose()
    else:
        if scn.n is None or scn.n < 1:
            raise ValueError("scenario field 'n': required for analytic graphons")
        network, kernel = sample_step_entries(g, scn.n), g
    problem = LqrProblem(scn.alpha0, CoeffPoly(scn.poly_b), CoeffPoly(scn.poly_q),
                         CoeffPoly(scn.poly_p0), kernel, scn.horizon)
    system = build_step_system(network, problem)
    x0 = initial_state(system.n, scn.seed)
    return problem, system, x0


# -- artifact writers ---------------------------------------------------------


def _write_csv(path: str, header: list[str], columns: np.ndarray):
    np.savetxt(path, columns, fmt=_FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")


def write_gains_csv(path: str, gains: Curve):
    header = ["t", "L"] + [f"M_{l}" for l in range(1, gains.values.shape[1])]
    _write_csv(path, header, np.column_stack([gains.grid, gains.values]))


def write_trajectory_csv(path: str, traj):
    n = traj.states.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(n)]
              + [f"u_{i + 1}" for i in range(n)])
    _write_csv(path, header, np.column_stack([traj.grid, traj.states, traj.controls]))


def write_truncation_csv(path: str, rows):
    d = rows[0].measured_ratio.size if rows else 0
    header = (["L", "J_truncated", "J_optimal"]
              + [f"ratio_meas_{h + 1}" for h in range(d)]
              + [f"ratio_pred_{h + 1}" for h in range(d)])
    cols = np.array([[r.level, r.j_truncated, r.j_optimal,
                      *r.measured_ratio, *r.predicted_ratio] for r in rows])
    _write_csv(path, header, cols)


def write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands --------------------------------------------------------------


def _prepare_out(scn: Scenario, out_override: str | None) -> str:
    out_dir = out_override or scn.out
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _write_echo(out_dir: str, scn: Scenario, base_dir: str):
    """Write ``scenario.json``, with a relative ``matrix_csv`` rewritten
    relative to ``out_dir`` so that the echo re-parses from there."""
    raw = scn.to_dict()
    path = raw["graphon"].get("matrix_csv")
    if isinstance(path, str) and not os.path.isabs(path):
        raw["graphon"]["matrix_csv"] = os.path.relpath(os.path.join(base_dir, path),
                                                       out_dir)
    write_json(os.path.join(out_dir, "scenario.json"), raw)


def run_scenario(scn: Scenario, base_dir: str = ".",
                 out_override: str | None = None,
                 compare_oracle: bool = False) -> dict:
    """Synthesize, simulate and emit all artifacts for one scenario."""
    problem, system, x0 = build_experiment(scn, base_dir)
    level = parse_controller(scn.controller, problem.d)
    gains = synthesize_gains(problem, scn.dt)
    controller = feedback_controller(truncate_problem(problem, level), gains)
    traj = simulate(system, controller, x0, scn.horizon, scn.dt)
    cost = evaluate_cost(traj, system)
    payload = {
        "total": cost.total,
        "aux": cost.aux,
        "eigen": [float(v) for v in cost.eigen],
    }
    if compare_oracle:
        report = oracle_compare(system, x0, scn.dt)
        payload.update({
            "oracle_rel_gap": report.cost_rel_gap,
            "oracle_p_gap": report.p_gap,
            "oracle_state_gap": report.state_gap,
            "j_oracle": report.j_oracle,
        })
    out_dir = _prepare_out(scn, out_override)
    write_gains_csv(os.path.join(out_dir, "gains.csv"), gains)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_json(os.path.join(out_dir, "cost.json"), payload)
    _write_echo(out_dir, scn, base_dir)
    line = (f"J={cost.total:.6f} (aux={cost.aux:.6f}, "
            f"eigen={float(cost.eigen.sum()):.6f}) n={system.n} d={problem.d} "
            f"controller={scn.controller}")
    if compare_oracle:
        line += f" oracle_rel_gap={payload['oracle_rel_gap']:.3e}"
    print(line)
    return payload


def run_truncation_study(scn: Scenario, levels, base_dir: str = ".",
                         out_override: str | None = None) -> list:
    problem, system, x0 = build_experiment(scn, base_dir)
    gains = synthesize_gains(problem, scn.dt)
    if levels is None:
        levels = list(range(problem.d + 1))
    rows = truncation_study(system, x0, levels, scn.dt)
    out_dir = _prepare_out(scn, out_override)
    write_truncation_csv(os.path.join(out_dir, "truncation.csv"), rows)
    write_gains_csv(os.path.join(out_dir, "gains.csv"), gains)
    _write_echo(out_dir, scn, base_dir)
    for r in rows:
        print(f"L={r.level} J={r.j_truncated:.6f} "
              f"(optimal {r.j_optimal:.6f}, inflation "
              f"{r.j_truncated - r.j_optimal:.3e})")
    return rows


def run_oracle_check(scn: Scenario, base_dir: str = ".",
                     out_override: str | None = None):
    _, system, x0 = build_experiment(scn, base_dir)
    report = oracle_compare(system, x0, scn.dt)
    out_dir = _prepare_out(scn, out_override)
    write_json(os.path.join(out_dir, "cost.json"), {
        "total": report.j_decoupled,
        "j_oracle": report.j_oracle,
        "oracle_rel_gap": report.cost_rel_gap,
        "oracle_p_gap": report.p_gap,
        "oracle_state_gap": report.state_gap,
    })
    _write_echo(out_dir, scn, base_dir)
    print(f"J_dec={report.j_decoupled:.8f} J_oracle={report.j_oracle:.8f} "
          f"rel_gap={report.cost_rel_gap:.3e} P_gap={report.p_gap:.3e} "
          f"state_gap={report.state_gap:.3e}")
    return report


# -- argument parsing ---------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--dt", type=float, default=None, help="integration step")
    sub.add_argument("--horizon", type=float, default=None, help="time horizon T")
    sub.add_argument("--seed", type=int, default=None, help="initial-state seed")
    sub.add_argument("--out", type=str, default=None, help="artifact directory")


def _apply_overrides(raw, args) -> Scenario:
    """The raw scenario with its flags, parsed once, so a flag is validated
    as the field it names and a default step follows the final horizon;
    ``--horizon`` alone also drops a ``dt`` it does not exceed."""
    if not isinstance(raw, dict):
        return scenario_from_dict(raw)
    raw = dict(raw)
    if args.horizon is not None and args.dt is None:
        dt = _field(raw, "dt", json_number, required=False)
        if dt is not None and dt >= args.horizon:
            del raw["dt"]
    flags = {"horizon": args.horizon, "dt": args.dt, "seed": args.seed}
    raw.update({name: v for name, v in flags.items() if v is not None})
    return scenario_from_dict(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-lqr",
        description="LQR on kernel-coupled networks via spectral decoupling")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.add_argument("--compare-oracle", action="store_true",
                       help="also solve the matrix Riccati oracle and report gaps")
    _add_common(p_run)

    p_vii = subs.add_parser("example-vii",
                            help="run the sinusoidal 40-node preset")
    p_vii.add_argument("--compare-oracle", action="store_true")
    _add_common(p_vii)

    p_trunc = subs.add_parser("truncation-study",
                              help="sweep truncation levels for a scenario")
    p_trunc.add_argument("scenario", help="path to scenario JSON")
    p_trunc.add_argument("--levels", type=str, default=None,
                         help="comma-separated truncation levels (default: all)")
    _add_common(p_trunc)

    p_oracle = subs.add_parser("oracle-check",
                               help="compare decoupled synthesis with the matrix oracle")
    p_oracle.add_argument("scenario", help="path to scenario JSON")
    _add_common(p_oracle)
    return parser


def _parse_levels(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError("--levels: expected comma-separated integers such as "
                         f"0,1,2, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example-vii":
            raw, base_dir = preset_example_vii().to_dict(), "."
        else:
            raw = _read_scenario(args.scenario)
            base_dir = os.path.dirname(os.path.abspath(args.scenario))
        scn = _apply_overrides(raw, args)
        if args.command == "truncation-study":
            levels = None if args.levels is None else _parse_levels(args.levels)
            run_truncation_study(scn, levels, base_dir, args.out)
        elif args.command == "oracle-check":
            run_oracle_check(scn, base_dir, args.out)
        else:
            run_scenario(scn, base_dir, args.out, args.compare_oracle)
    # LinAlgError is a ValueError; numpy's MemoryError names the shape and bytes
    except (NumericError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: a path we cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
