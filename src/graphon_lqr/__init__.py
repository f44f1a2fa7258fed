"""LQR for network-coupled systems via spectral decoupling of the coupling kernel.

The package solves finite-horizon linear-quadratic regulation for
dynamical systems coupled over large networks whose coupling is a
symmetric kernel on [0, 1]^2 (a graphon).  The kernel's eigenpairs
decouple the problem into one scalar Riccati equation per
eigendirection plus one for the orthogonal residual; the resulting
feedback is optimal, locally computable, and verifiable against a
direct matrix-Riccati oracle on finite step-function networks.
"""

from .errors import BlowUpError, NumericError
from .graphon import (EigenPair, FiniteRankGraphon, StepFunction, StepGraphon,
                      graphon_from_spec, l2_distance, midpoint_grid,
                      sample_step_entries, sinusoidal_graphon, uniform_graphon)
from .integrate import rk4_path, uniform_grid
from .lqr import (DecoupledState, FeedbackLaw, LqrProblem, eigensystem_params,
                  feedback_controller, project_state, ratio_prediction,
                  reconstruct_P, synthesize_gains, truncate_problem)
from .poly import CoeffPoly, apply_poly_matrix, eval_poly
from .riccati import (Curve, ScalarRiccatiSpec, algebraic_root, riccati_explicit,
                      solve_matrix_riccati, solve_riccati_closed_form,
                      solve_riccati_numeric)
from .sim import (CostBreakdown, OracleReport, StepSystem, Trajectory,
                  TruncationRow, build_step_system, evaluate_cost, initial_state,
                  oracle_compare, oracle_controller, simulate, truncation_study)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "NumericError",
    "EigenPair", "FiniteRankGraphon", "StepFunction", "StepGraphon",
    "graphon_from_spec", "l2_distance", "midpoint_grid", "sample_step_entries",
    "sinusoidal_graphon", "uniform_graphon",
    "rk4_path", "uniform_grid",
    "DecoupledState", "FeedbackLaw", "LqrProblem", "eigensystem_params",
    "feedback_controller", "project_state", "ratio_prediction", "reconstruct_P",
    "synthesize_gains", "truncate_problem",
    "CoeffPoly", "apply_poly_matrix", "eval_poly",
    "Curve", "ScalarRiccatiSpec", "algebraic_root", "riccati_explicit",
    "solve_matrix_riccati", "solve_riccati_closed_form", "solve_riccati_numeric",
    "CostBreakdown", "OracleReport", "StepSystem", "Trajectory", "TruncationRow",
    "build_step_system", "evaluate_cost", "initial_state", "oracle_compare",
    "oracle_controller", "simulate", "truncation_study",
    "__version__",
]
