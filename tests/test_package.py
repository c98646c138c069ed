"""The package's public surface, and what importing it and running the CLI load.

`import chorepick` binds no submodule: each exported name and each submodule
is loaded on first access, and each subcommand loads only the modules it runs.
"""

import inspect
import json
from pathlib import Path

import pytest

import chorepick
from chorepick import fairness, model, ridge

GOLDEN = Path(__file__).parent / "golden"

# Each module and the names the package exports from it.
EXPORTS = {
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
HOMES = {name: module for module, names in EXPORTS.items() for name in names}

# The modules perfbench's tracer reads as attributes of the package.
LAYERS = ("cli", "model", "_simplex", "shares", "simulate", "ridge", "entitle", "algchores",
          "fairness")


class TestPublicSurface:
    def test_all_names(self):
        assert chorepick.__all__ == [
            "Allocation", "ChoreInstance", "CoveringViolation", "DEFAULT_T", "InstanceError",
            "InvariantError", "PickingOrder", "PickingSequence", "ScalingFunction",
            "SizeGuardError", "alg_chores", "algchores", "aps_oracle", "best_ratio_search",
            "build_fractional", "chore_share", "covering_test", "ef_ra_audit", "entitle",
            "envy_tension_example", "equal_entitlements", "evaluate_order", "fairness",
            "fixed_order", "greedy_play", "guaranteed_disvalue", "half_plus_x",
            "halve_thresholds", "load_instance", "mms_oracle", "model", "nonridge_witness",
            "parse_rational", "preliminary_stage", "proportional_share", "replay_thresholds",
            "ridge", "ridge_periods", "round_to_order", "share_report", "shares", "simulate",
            "solve_rho_star", "solve_t", "suffix_envy_condition", "synthesize_order",
            "tight_example", "to_sequence", "verify_guarantee", "worst_case_bundle",
            "worst_case_ratio_cs"]
        assert sorted([*EXPORTS, *HOMES]) == chorepick.__all__

    @pytest.mark.parametrize("name", sorted(HOMES))
    def test_each_name_is_bound_in_its_home_module(self, name):
        home = getattr(chorepick, HOMES[name])
        value = getattr(chorepick, name)
        assert value is getattr(home, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == home.__name__

    @pytest.mark.parametrize("name", LAYERS)
    def test_modules_resolve_as_attributes(self, name):
        module = getattr(chorepick, name)
        assert inspect.ismodule(module)
        assert module.__name__ == f"chorepick.{name}"

    def test_dir_lists_every_name(self):
        assert set(chorepick.__all__) <= set(dir(chorepick))
        assert set(LAYERS) <= set(dir(chorepick))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from chorepick import *", namespace)
        assert set(chorepick.__all__) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            chorepick.nope
        assert not hasattr(chorepick, "cli_main")

    def test_shared_names_live_in_model(self):
        assert ridge.CoveringViolation is model.CoveringViolation
        assert fairness.STAGE_MODES is model.STAGE_MODES


def loaded(run_python, code: str, *args: str) -> list[str]:
    """The modules a fresh interpreter adds to sys.modules while it runs code."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              f"{code}\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    done = run_python("-c", script, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule(run_python):
    assert loaded(run_python, "import chorepick") == ["chorepick"]


@pytest.mark.parametrize("argv,modules", [
    (["ratio-test", "--n", "8", "--rho", "8/5"], ["ridge"]),
    (["search", "--n", "4", "--tol", "1/10"], ["ridge"]),
    (["shares", "--input", str(GOLDEN / "general.json")], ["_simplex", "shares"]),
])
def test_subcommand_loads_only_its_modules(run_python, argv, modules):
    code = ("import contextlib, io\n"
            "import chorepick.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = chorepick.cli.main(json.loads(sys.argv[1]))\n"
            "if code:\n"
            "    sys.exit(code)")
    added = loaded(run_python, code, json.dumps(argv))
    assert [name for name in added if name.partition(".")[0] == "chorepick"] == sorted(
        ["chorepick", "chorepick.cli", "chorepick.model", *(f"chorepick.{m}" for m in modules)])
