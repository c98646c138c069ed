"""Picking sequences for allocating indivisible chores.

Exact-rational tooling for fair chore division under additive disvaluations:
share benchmarks (proportional, chore share, maximin, anyprice), greedy
play-out and worst-case evaluation of picking orders, the fractional
construction for arbitrary entitlements, ridge schedules with covering
tests for equal entitlements, envy-cycle allocation, and label-stage envy
audits.
"""

from .model import (Allocation, ChoreInstance, InstanceError, InvariantError,
                    PickingOrder, PickingSequence, SizeGuardError, equal_entitlements,
                    load_instance, parse_rational, to_sequence)
from .shares import (aps_oracle, chore_share, mms_oracle, proportional_share,
                     share_report)
from .simulate import (evaluate_order, greedy_play, guaranteed_disvalue,
                       nonridge_witness, worst_case_bundle, worst_case_ratio_cs)
from .entitle import (DEFAULT_T, ScalingFunction, build_fractional, half_plus_x,
                      round_to_order, solve_t, verify_guarantee)
from .ridge import (CoveringViolation, best_ratio_search, covering_test, fixed_order,
                    halve_thresholds, ridge_periods, replay_thresholds, solve_rho_star,
                    synthesize_order)
from .algchores import alg_chores, tight_example
from .fairness import (ef_ra_audit, envy_tension_example, preliminary_stage,
                       suffix_envy_condition)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
