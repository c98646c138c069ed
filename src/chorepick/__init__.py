"""Picking sequences for allocating indivisible chores.

Exact-rational tooling for fair chore division under additive disvaluations:
share benchmarks (proportional, chore share, maximin, anyprice), greedy
play-out and worst-case evaluation of picking orders, the fractional
construction for arbitrary entitlements, ridge schedules with covering
tests for equal entitlements, envy-cycle allocation, and label-stage envy
audits.

Importing the package loads no submodule: each exported name and each
submodule is loaded on first access (PEP 562).
"""

# Each module and the public names it exports from the package.
_EXPORTS = {
    "model": ("Allocation", "ChoreInstance", "CoveringViolation", "InstanceError",
              "InvariantError", "PickingOrder", "PickingSequence", "SizeGuardError",
              "equal_entitlements", "load_instance", "parse_rational", "to_sequence"),
    "shares": ("aps_oracle", "chore_share", "mms_oracle", "proportional_share", "share_report"),
    "simulate": ("evaluate_order", "greedy_play", "guaranteed_disvalue", "nonridge_witness",
                 "worst_case_bundle", "worst_case_ratio_cs"),
    "entitle": ("DEFAULT_T", "ScalingFunction", "build_fractional", "half_plus_x",
                "round_to_order", "solve_t", "verify_guarantee"),
    "ridge": ("best_ratio_search", "covering_test", "fixed_order", "halve_thresholds",
              "ridge_periods", "replay_thresholds", "solve_rho_star", "synthesize_order"),
    "algchores": ("alg_chores", "tight_example"),
    "fairness": ("ef_ra_audit", "envy_tension_example", "preliminary_stage",
                 "suffix_envy_condition"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_simplex", "cli")

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # `from . import name`, spelled so as not to come back here. It binds
        # the submodule on the package, so this runs once per submodule.
        return __import__(name, globals(), level=1)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(globals().get(_HOME[name]) or __getattr__(_HOME[name]), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
