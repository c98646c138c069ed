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


# Every function perfbench reads a per-job call count or self time from, by
# name. The tracer wraps only public functions defined in their own module,
# so a function inlined, renamed or made private reads 0 without failing
# the run. `model.to_ido` is left out: it is gone, and its metric already
# reads 0 (ROADMAP item 1 drops it from perfbench).
TIMED = ("_simplex.maximize", "shares.aps_oracle", "shares.mms_oracle", "shares.chore_share",
         "ridge.covering_test", "ridge.best_ratio_search", "ridge.synthesize_order",
         "simulate.worst_case_bundle", "simulate.greedy_play", "simulate.evaluate_order",
         "algchores.alg_chores", "fairness.ef_ra_audit", "entitle.build_fractional",
         "entitle.round_to_order", "entitle.verify_guarantee", "model.load_instance")


@pytest.mark.parametrize("name", TIMED)
def test_timed_functions_exist(name):
    module, function = name.split(".")
    mod = getattr(chorepick, module)
    fn = getattr(mod, function)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


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
