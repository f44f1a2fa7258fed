"""The package exports exactly its public top-level names, and its value
types cannot be changed after construction."""
import dataclasses
import types

import pytest

import graphon_lqr as gl
from graphon_lqr import cli
from graphon_lqr.graphon import _AnalyticEigfun


def test_all_is_the_public_namespace():
    public = {name for name, value in vars(gl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(gl.__all__)) == len(gl.__all__)
    assert set(gl.__all__) - {"__version__"} == public


def sinusoidal_problem():
    one = gl.CoeffPoly([1.0])
    return gl.LqrProblem(1.0, one, one, one, gl.sinusoidal_graphon(), 1.0)


@pytest.mark.parametrize("make, name", [
    (lambda: gl.CoeffPoly([1.0, 0.5]), "coeffs"),
    (lambda: gl.StepFunction([1.0, -1.0]), "values"),
    (lambda: gl.FeedbackLaw(sinusoidal_problem()), "problem"),
    (lambda: _AnalyticEigfun("sin", 1.0), "kind"),
    (cli.preset_example_vii, "controller"),
], ids=["CoeffPoly", "StepFunction", "FeedbackLaw", "_AnalyticEigfun", "Scenario"])
def test_value_types_are_frozen(make, name):
    # a problem's mode_params and a run's controls are computed from these
    # fields once: rebinding one would leave them stale
    obj = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)


def test_laws_compare_by_identity():
    # a law is a function of time and state: two laws of one problem are two
    # laws, as two closures are
    p = sinusoidal_problem()
    law = gl.FeedbackLaw(p)
    assert law == law and law != gl.FeedbackLaw(p)
    assert len({law, gl.FeedbackLaw(p)}) == 2
    assert gl.CoeffPoly([1.0, 0.0]) == gl.CoeffPoly([1.0])  # polynomials by value
    assert hash(gl.CoeffPoly([1.0, 0.0])) == hash(gl.CoeffPoly([1.0]))
