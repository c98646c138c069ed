"""The names perfbench's tracer reads from the package.

perfbench/tracer.py wraps public functions by module and name, reads some of
their arguments by position (or keyword) and some attributes of their
results. A rename or a reordered parameter would not fail the benchmark: the
work counters would read 0. These tests pin what the tracer relies on.
"""

import inspect
from fractions import Fraction as F

import pytest

import chorepick
from chorepick.entitle import build_fractional, half_plus_x, verify_guarantee
from chorepick.ridge import covering_test, ridge_periods


@pytest.mark.parametrize("module,function,position,name", [
    ("_simplex", "maximize", 0, "objective"),
    ("_simplex", "maximize", 1, "a_ub"),
    ("shares", "aps_oracle", 0, "costs"),
    ("shares", "aps_oracle", 1, "b"),
    ("ridge", "synthesize_order", 1, "m"),
    ("simulate", "worst_case_bundle", 1, "m"),
    ("simulate", "greedy_play", 1, "inst"),
    ("algchores", "alg_chores", 0, "inst"),
])
def test_hooked_argument_positions(module, function, position, name):
    fn = getattr(getattr(chorepick, module), function)
    params = list(inspect.signature(fn).parameters.values())
    assert params[position].name == name
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_hooked_result_attributes():
    pipeline = build_fractional([F(1, 2), F(1, 2)], half_plus_x, 6)
    assert (pipeline.n, pipeline.columns) == (2, 6)
    assert covering_test(ridge_periods(4, F(10, 7))).horizon >= 8
    report = verify_guarantee([F(1, 4), F(3, 4)], trials=0, m=8)
    assert len(report.order) == 8
