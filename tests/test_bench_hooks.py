"""The benchmark's tracer still finds the package functions it rebinds.

`perfbench/tracing.py` wraps package functions wherever a module binds
them by name; a function moved or renamed in the package would fail its
install, or silently drop a layer from the traced metrics.
"""
import os
import sys

import pytest

from graphon_lqr import cli, riccati, sim

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402

HOOKS = [(sim, "simulate"), (cli, "simulate"), (cli, "sample_step_entries"),
         (sim, "apply_poly_matrix"), (sim, "oracle_controller"),
         (riccati, "riccati_path"), (cli, "feedback_controller"),
         (sim, "feedback_controller"), (cli, "synthesize_gains")]


@pytest.mark.parametrize("module, name", HOOKS,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in HOOKS])
def test_tracer_wraps_and_restores(module, name):
    original = getattr(module, name)
    with tracing.Tracer().active():
        assert getattr(module, name) is not original
    assert getattr(module, name) is original
