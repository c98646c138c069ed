import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chorepick
import json_reference
from chorepick import cli, ridge
from chorepick.cli import (EXIT_FILE, EXIT_GUARANTEE, EXIT_GUARD, EXIT_INVALID, EXIT_OK, main)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(chorepick.__file__).parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    return doc


class TestRatioTest:
    def test_four_agent_failure(self, capsys):
        doc = payload(capsys, "ratio-test", "--n", "4", "--rho", "10/7")
        assert doc["verdict"] == "fail"
        assert doc["failing_k"] == 11

    def test_small_pass(self, capsys):
        doc = payload(capsys, "ratio-test", "--n", "8", "--rho", "8/5", "--mode", "super")
        assert doc["verdict"] == "pass"

    def test_inconclusive_rate_one(self, capsys):
        doc = payload(capsys, "ratio-test", "--n", "2", "--rho", "4/3", "--horizon", "500")
        assert doc["verdict"] == "inconclusive"
        assert doc["covering_ratio_exact"] == "1"


class TestEvaluate:
    def test_named_order(self, capsys):
        doc = payload(capsys, "evaluate", "--order", "n2", "--m", "40")
        assert doc["ratio"] == "4/3"

    def test_inline_order(self, capsys):
        doc = payload(capsys, "evaluate", "--order", "1221:221", "--m", "20", "--n", "2")
        assert doc["ratio"] == "4/3"
        assert doc["per_agent"]["1"]["positions"][:2] == [1, 4]

    @pytest.mark.parametrize("digits,labels,m", [
        ("1221:221", "1,2,2,1:2,2,1", "20"), ("123321:23321", "1,2,3,3,2,1:2,3,3,2,1", "20"),
        ("123321", "1,2,3,3,2,1", "6"), (":312", ":3,1,2", "9")])
    def test_comma_labels_equal_digit_labels(self, capsys, digits, labels, m):
        argv = ("evaluate", "--m", m, "--n", "3", "--order")
        assert payload(capsys, *argv, labels) == payload(capsys, *argv, digits)

    def test_comma_labels_reach_agent_ten(self, capsys):
        ridge = ",".join(map(str, [*range(1, 11), *range(10, 0, -1)]))
        doc = payload(capsys, "evaluate", "--order", f"{ridge}:{ridge[-20:]}", "--m", "40")
        assert doc["per_agent"]["10"]["positions"] == [10, 11, 21, 31]
        assert doc["ratio"] == "22/13"
        doc = payload(capsys, "evaluate", "--order", "1,2,10:10,2", "--m", "12")
        assert sorted(doc["per_agent"], key=int) == [str(i) for i in range(1, 11)]


class TestInstanceCommands:
    def test_gen_shares_roundtrip(self, capsys, tmp_path):
        doc = payload(capsys, "gen", "--kind", "gap", "--n", "3")
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc["instance"]))
        shares = payload(capsys, "shares", "--input", str(path))["shares"]
        assert shares["chore"] == ["1", "1", "1"]
        assert shares["maximin"] == ["9/7", "9/7", "9/7"]
        assert shares["anyprice"] == ["9/7", "9/7", "9/7"]

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "shares", "--input", "missing.json")
        assert code == EXIT_FILE
        assert "missing.json" in err

    def test_invalid_instance_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": 2, "chores": 1,
                                    "entitlements": ["1/2", "1/3"],
                                    "costs": [["1"], ["1"]]}))
        code, _, err = run(capsys, "shares", "--input", str(path))
        assert code == EXIT_INVALID
        assert "entitlements sum to 5/6" in err

    def test_size_guard_exit_code(self, capsys, tmp_path):
        doc = payload(capsys, "gen", "--kind", "random", "--n", "2", "--m", "13")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc["instance"]))
        code, _, err = run(capsys, "shares", "--input", str(path))
        assert code == EXIT_GUARD
        assert "guard" in err

    def test_simulate_fixed_order(self, capsys, tmp_path):
        doc = payload(capsys, "gen", "--kind", "tight", "--n", "2")
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc["instance"]))
        sim = payload(capsys, "simulate", "--order", "1221:1", "--input", str(path))
        assert sorted(sum((v for v in sim["bundles"].values()), [])) == [1, 2, 3, 4, 5]

    def test_algchores_with_ratios(self, capsys, tmp_path):
        doc = payload(capsys, "gen", "--kind", "tight", "--n", "2")
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc["instance"]))
        out = payload(capsys, "algchores", "--input", str(path), "--with-aps", "--trace")
        costs = sorted(out["bundle_costs"].values())
        assert costs == ["5/2", "7/2"]
        assert len(out["rounds"]) == 5


class TestBuildAndVerify:
    def test_build_arbitrary_emits_trace(self, capsys):
        doc = payload(capsys, "build", "--entitlements", "1/8,3/8,1/2",
                      "--m", "12", "--scaling", "half-plus-x")
        assert doc["order"][0] == 1
        final = doc["stages"]["final"]
        assert [final[i][3] for i in range(3)] == ["0", "3/8", "5/8"]
        quiet = payload(capsys, "build", "--entitlements", "1/8,3/8,1/2",
                        "--m", "12", "--scaling", "half-plus-x", "--no-trace")
        assert "stages" not in quiet

    def test_build_flag_validation(self, capsys):
        code, _, err = run(capsys, "build", "--m", "8")
        assert code == EXIT_INVALID and "entitlements" in err
        code, _, err = run(capsys, "build", "--mode", "equal", "--m", "8")
        assert code == EXIT_INVALID and "--rho" in err

    def test_wrapped_instance_documents_load(self, capsys, tmp_path):
        doc = payload(capsys, "gen", "--kind", "gap", "--n", "3")
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps(doc))  # full report, not just the instance
        shares = payload(capsys, "shares", "--input", str(path))["shares"]
        assert shares["chore"] == ["1", "1", "1"]

    def test_build_equal_mode(self, capsys):
        doc = payload(capsys, "build", "--mode", "equal", "--n", "3",
                      "--rho", "7/5", "--m", "11")
        assert doc["order"] == [1, 2, 3, 3, 2, 1, 2, 3, 3, 2, 1]

    def test_verify_ok(self, capsys):
        doc = payload(capsys, "verify", "--entitlements", "1/4,1/4,1/4,1/4",
                      "--trials", "20", "--m", "16")
        assert doc["ok"] is True

    def test_envy_suffix(self, capsys):
        doc = payload(capsys, "envy", "--seq", "1,1,2", "--check-suffix", "1", "2")
        assert doc["holds"] is False
        assert doc["witness"] == ["1", "1", "1"]

    def test_envy_tension(self, capsys):
        doc = payload(capsys, "envy", "--tension-example", "4")
        assert doc["m"] == 9
        assert doc["entitlements"][0] == "1/3"

    def test_search_small(self, capsys):
        doc = payload(capsys, "search", "--n", "2", "--tol", "1/50")
        from fractions import Fraction
        assert Fraction(doc["best_rho"]) <= Fraction(4, 3) + Fraction(1, 50)


class TestErrorExits:
    @pytest.mark.parametrize("doc", [{"cycle": [1, 2]}, [1, 2, 2, 1],
                                     {"prefix": [True, 2, 2, 1]}],
                             ids=["no-prefix", "list", "bool-agent"])
    def test_malformed_order_file(self, capsys, tmp_path, doc):
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", "--order", str(path), "--m", "4", "--n", "2")
        assert code == EXIT_INVALID
        assert out == "" and "order file" in err

    @pytest.mark.parametrize("field", ["agents", "chores"])
    def test_boolean_instance_size(self, capsys, tmp_path, field):
        # JSON true is an int to Python; as a count it would read as 1.
        doc = {"agents": 1, "chores": 1, "entitlements": ["1"], "costs": [["1"]], field: True}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "shares", "--input", str(path))
        assert code == EXIT_INVALID
        assert out == "" and "positive integers" in err

    @pytest.mark.parametrize("argv", [("shares", "--input", "{}"),
                                      ("simulate", "--order", "n2", "--input", "{}"),
                                      ("evaluate", "--order", "{}", "--m", "4")],
                             ids=["shares", "simulate", "evaluate-order-file"])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        # Nesting past the interpreter's recursion limit makes json.load raise
        # RecursionError; both JSON boundaries report it as bad input.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "nested too deeply" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("shares", "--input", "{}"),
        ("ratio-test", "--n", "3", "--rho", "1e30000000"),
        ("build", "--entitlements", "1/2,1/2", "--m", "4", "--t", "1e30000000"),
        ("build", "--entitlements", "1e-30000000,1/2", "--m", "4"),
    ], ids=["instance-cost", "rho", "t", "entitlements"])
    def test_huge_decimal_exponent(self, run_python, tmp_path, argv):
        # Fraction("1e30000000") would compute 10**30000000; the exponent is
        # refused before that, so the child ends well inside its timeout.
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"agents": 1, "chores": 1, "entitlements": ["1"],
                                    "costs": [["1e30000000"]]}))
        argv = [a.format(path) for a in argv]
        done = run_python("-m", "chorepick.cli", *argv, timeout=20)
        assert done.returncode == EXIT_INVALID, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: not a rational") and "exponent" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_unprintable_rational_in_report(self, capsys, tmp_path):
        # Costs 1/p1 and 1/p2 with coprime 2201-digit p1, p2 parse, but the
        # proportional share's denominator passes the interpreter's
        # 4300-digit limit for printing an int.
        p1, p2 = 10 ** 2200 + 1, 10 ** 2200 + 3
        row = [f"1/{p1}", f"1/{p2}"]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"agents": 2, "chores": 2, "entitlements": ["1/2", "1/2"],
                                    "costs": [row, row]}))
        code, out, err = run(capsys, "shares", "--input", str(path), "--no-mms", "--no-aps")
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "4300" in err

    def test_empty_order_file_needs_n(self, capsys, tmp_path):
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"prefix": []}))
        code, out, err = run(capsys, "evaluate", "--order", str(path), "--m", "4")
        assert code == EXIT_INVALID
        assert out == "" and str(path) in err and "--n" in err

    def test_directory_input_is_a_file_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "shares", "--input", str(tmp_path))
        assert code == EXIT_FILE
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("verify", "--entitlements", "1/4,1/4,1/4,1/4", "--m", "0"),
        ("ratio-test", "--n", "0", "--rho", "3/2"),
        ("build", "--mode", "equal", "--n", "4", "--rho", "10/7", "--m", "20"),
        ("build", "--entitlements", "1/2,1/2", "--m", "-3"),
        ("gen", "--kind", "random", "--n", "2", "--m", "-2"),
        ("evaluate", "--order", "12", "--m", "-2"),
        ("verify", "--entitlements", "1/2,1/2", "--trials", "-4", "--m", "10"),
        ("evaluate", "--order", "n2", "--m", "4", "--n", "0"),
    ], ids=["verify-m0", "ratio-test-n0", "build-uncoverable", "build-negative-m",
            "gen-negative-m", "evaluate-negative-m", "verify-negative-trials", "evaluate-n0"])
    def test_invalid_sizes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        (("envy", "--seq", "1,2,1", "--audit", "prsd", "--input", str(GOLDEN / "general.json")),
         "error: sequence covers 3 rounds, instance has 6 chores\n"),
        (("gen", "--n", "2", "--m", "3", "--max-cost", "-1"),
         "error: --m and --max-cost must be nonnegative, got m = 3, max-cost = -1\n"),
    ], ids=["audit-short-sequence", "gen-negative-max-cost"])
    def test_bad_input_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_INVALID, "", message)

    @pytest.mark.parametrize("argv", [
        ("envy", "--seq", "1,2,5", "--audit", "prsd", "--input", str(GOLDEN / "tight3.json")),
        ("envy", "--tension-example", "4", "--seq", "1,2,3,4,5,1,2,3,4"),
    ], ids=["audit", "tension"])
    def test_label_out_of_range(self, capsys, argv):
        # Label 5 among 3 or 4 agents has no agent to play it.
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "out of range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("t,m", [("101/100", "0"), ("1", "4")])
    def test_scaling_parameter_too_small(self, capsys, t, m):
        # Scaled shares summing below 1 are bad input, not a broken invariant;
        # at t = 1 the scaling function meets its cap at x = 1.
        code, out, err = run(capsys, "build", "--mode", "arbitrary", "--scaling", "production",
                             "--t", t, "--entitlements", "1/2,1/2", "--m", m)
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and "parameter t" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", ["3", "300"])
    def test_target_ratio_beyond_a_float(self, capsys, n):
        code, out, err = run(capsys, "ratio-test", "--n", n, "--rho", "1e400")
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("ratio-test", "--n", "2", "--rho", "4/3", "--horizon", "10000000000"),
        ("ratio-test", "--n", "3", "--rho", "1000000000000000"),
        ("build", "--mode", "equal", "--n", "3", "--rho", "1000000000000000", "--m", "10"),
        ("search", "--n", "3", "--tol", "1e-12"),
        # Tables of more than 2^24 agent-by-chore cells, refused before allocation.
        ("evaluate", "--order", "n2", "--m", "100000000"),
        ("build", "--entitlements", "1/100000000,99999999/100000000", "--m", "4"),
        ("verify", "--entitlements", "1/100000000,99999999/100000000", "--m", "4"),
        ("gen", "--kind", "tight", "--n", "100000"),
        # No chores: each agent still counts as one cell.
        ("evaluate", "--order", "n2", "--m", "0", "--n", "16777217"),
        ("gen", "--kind", "random", "--n", "16777217", "--m", "0"),
    ], ids=["ratio-test-horizon", "ratio-test-huge-rho", "build-huge-rho", "search-tiny-tol",
            "evaluate-huge-m", "build-tiny-entitlement", "verify-tiny-entitlement",
            "gen-tight-huge-n", "evaluate-no-chores-huge-n", "gen-no-chores-huge-n"])
    def test_scan_size_guard(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_GUARD
        assert out == "" and "guard" in err and err.count("\n") == 1

    def test_out_of_memory_is_a_size_guard_exit(self, run_python):
        # Under the 2^24-cell guard, but past a 192 MiB address space: the
        # evaluator's MemoryError ends in exit 5 and one error line.
        script = ("import resource, sys\n"
                  "cap = 192 << 20\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "from chorepick import cli\n"
                  "sys.exit(cli.main(['evaluate', '--order', 'n2', '--m', '8000000']))\n")
        done = run_python("-c", script, timeout=60)
        assert done.returncode == EXIT_GUARD, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1

    def test_tension_example_size_guard(self, run_python):
        # (N-2)N+1 = 35,988,001 chores at N = 6000: refused before any
        # Fraction is built, so a 192 MiB address space is never exhausted.
        script = ("import resource, sys\n"
                  "cap = 192 << 20\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "from chorepick import cli\n"
                  "sys.exit(cli.main(['envy', '--tension-example', '6000']))\n")
        done = run_python("-c", script, timeout=60)
        assert done.returncode == EXIT_GUARD, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: the tension example: 35988001 chores exceed the guard")
        assert done.stderr.count("\n") == 1

    def test_invariant_survives_optimize_flag(self, run_python):
        # A helper that reports a fraction in column 1 breaks the danger-zone
        # invariant of build_fractional; under -O an assert would not notice.
        script = ("import sys\n"
                  "from chorepick import cli, entitle\n"
                  "entitle._first_fractional = lambda row: 1\n"
                  "sys.exit(cli.main(['build', '--entitlements', '1/2,1/2', '--m', '4']))\n")
        done = run_python("-O", "-c", script)
        assert done.returncode == EXIT_GUARANTEE, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: invariant broken:") and "danger zone" in done.stderr

    def test_closed_stdout_is_a_file_error(self):
        # The reader goes away after the first line of a 131 KB report: one
        # error line and exit 3, no traceback, nothing at interpreter exit.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "chorepick.cli", "evaluate", "--order", "n4", "--m", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            assert child.stdout.readline() == "{\n"
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == EXIT_FILE, err
        assert err.startswith("error:") and err.count("\n") == 1


# Payloads for the renderer: every scalar kind the JSON text distinguishes,
# containers of each shape, lists that repeat one container, and long
# Fraction rows that repeat one object (as binding valuations do) next to
# rows of equal but distinct objects.
TEXT = st.text(max_size=8) | st.sampled_from(
    ["", 'say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001d11e"])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
INTS = st.integers() | st.integers(-10 ** 40, 10 ** 40) | st.sampled_from([0, 1, -1, 2 ** 63])
SCALARS = TEXT | FLOATS | INTS | st.booleans() | st.none() | st.fractions() | st.sampled_from(
    [Fraction(4), Fraction(-3), Fraction(-7, 2), Fraction(0), True, 1, False, 0])


def _run_of(value, length, shared):
    if shared:
        return (value,) * length
    return tuple(Fraction(value.numerator, value.denominator) for _ in range(length))


FRACTION_RUN = st.builds(_run_of, st.fractions(max_denominator=50), st.integers(0, 30),
                         st.booleans())
FRACTION_ROWS = st.lists(FRACTION_RUN, max_size=4).map(lambda runs: sum(runs, ()))
SCALAR_ROWS = (st.lists(INTS, max_size=30) | st.lists(INTS | st.booleans(), max_size=10)
               | st.lists(SCALARS, max_size=10)).map(tuple)
PAYLOADS = st.recursive(
    SCALARS | FRACTION_ROWS | SCALAR_ROWS,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.builds(lambda child, k: [child] * k, children, st.integers(1, 4))
                      | st.dictionaries(TEXT, children, max_size=5)
                      | st.dictionaries(st.integers(-3, 25), children, max_size=5)),
    max_leaves=25)


class TestRender:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=PAYLOADS)
    def test_matches_reference(self, payload):
        assert cli._render(payload) == json_reference.dumps(payload)

    def test_int_keys_sort_as_numbers(self):
        payload = {10: [], 2: (), 9: {}, -1: Fraction(1, 2)}
        text = cli._render(payload)
        assert text == json_reference.dumps(payload)
        assert text.index('"2"') < text.index('"10"')

    def test_unrenderable_values_raise(self):
        with pytest.raises(TypeError):
            cli._render({"x": {1, 2}})
        with pytest.raises(TypeError):
            cli._render({Fraction(1, 2): 1})

    def test_megabyte_report_through_a_pipe_under_optimize(self, run_python, tmp_path):
        # The synthesized n=128, m=512 order prints about 1 MB: a real
        # stdout, with asserts stripped, carries the reference bytes.
        order = ridge.synthesize_order(ridge.ridge_periods(128, Fraction(8, 5)), 512)
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"assignment": list(order.expand(512))}))
        argv = ["evaluate", "--order", str(path), "--m", "512"]
        args = cli._build_parser().parse_args(argv)
        expected = json_reference.dumps({"schema_version": cli.SCHEMA_VERSION, **args.run(args)})
        done = run_python("-O", "-m", "chorepick.cli", *argv)
        assert done.returncode == EXIT_OK, done.stderr
        assert len(done.stdout) > 1_000_000
        assert done.stdout == expected + "\n"


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        args = ("verify", "--entitlements", "1/8,3/8,1/2", "--trials", "10",
                "--seed", "7", "--m", "12")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_unknown_subcommand_uses_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Argument fuzz: every subcommand, sizes capped (n, m <= 32) so each case
# stays small. Every argv must end in a documented exit code, never in an
# uncaught exception.
SMALL = st.integers(-3, 32).map(str)
RATIONAL = st.sampled_from(["3/2", "8/5", "101/100", "4/3", "7/5", "2", "1", "0", "-1",
                            "1/2", "1e400", "1e-400", "1000000000000000", "1.5", "nan",
                            "inf", "x", "1/0", ""])
ENTITLEMENTS = st.lists(st.sampled_from(["1/2", "1/3", "1/6", "1/4", "0", "-1/2", "1", "x"]),
                        min_size=1, max_size=5).map(",".join)
ORDER = st.sampled_from(["n2", "n3", "n4", "super8", "1221:221", "123:321", "1,2,10:10,2",
                         ":", "", "12a", "0", "1,,2", ":3,1,2", str(GOLDEN / "order_cycle.json"),
                         str(GOLDEN / "order_assignment.json"), str(GOLDEN / "missing.json"),
                         str(GOLDEN / "tight3.json")])
INPUT = st.sampled_from([str(GOLDEN / name) for name in
                         ("tight3.json", "general.json", "audit4.json", "order_cycle.json",
                          "missing.json", "")])
SEQ = st.lists(st.integers(-1, 6).map(str), max_size=10).map(",".join) | st.just("1,x")
FLAG = st.just(None)

SUBCOMMANDS = {
    "gen": {"--kind": st.sampled_from(["random", "tight", "tension", "gap", "other"]),
            "--n": SMALL, "--m": SMALL, "--max-cost": SMALL, "--seed": SMALL},
    "shares": {"--input": INPUT, "--no-mms": FLAG, "--no-aps": FLAG, "--force": FLAG},
    "build": {"--mode": st.sampled_from(["arbitrary", "equal"]), "--entitlements": ENTITLEMENTS,
              "--m": SMALL, "--scaling": st.sampled_from(["production", "half-plus-x"]),
              "--t": RATIONAL, "--no-trace": FLAG, "--n": SMALL, "--rho": RATIONAL,
              "--schedule": st.sampled_from(["agent", "super"])},
    "simulate": {"--order": ORDER, "--input": INPUT},
    "evaluate": {"--order": ORDER, "--m": SMALL, "--n": SMALL},
    "ratio-test": {"--n": SMALL, "--rho": RATIONAL,
                   "--mode": st.sampled_from(["agent", "super"]),
                   "--horizon": SMALL | st.just("10000000000")},
    "search": {"--n": SMALL, "--mode": st.sampled_from(["agent", "super"]),
               "--tol": st.sampled_from(["1/10", "1/100", "1/1000", "0", "-1", "x", "1e400"])},
    "algchores": {"--input": INPUT, "--trace": FLAG, "--with-aps": FLAG, "--force": FLAG},
    "envy": {"--seq": SEQ, "--check-suffix": st.tuples(SMALL, SMALL),
             "--audit": st.sampled_from(["label_pick", "prsd", "random", "x"]), "--input": INPUT,
             "--tension-example": SMALL},
    "verify": {"--entitlements": ENTITLEMENTS, "--trials": st.integers(-1, 8).map(str),
               "--seed": SMALL, "--m": SMALL},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options = SUBCOMMANDS[command]
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        value = draw(options[name])
        argv.append(name)
        if isinstance(value, tuple):
            argv.extend(value)
        elif value is not None:
            argv.append(value)
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_argv_fuzz_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 6):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""


def test_imports_only_the_standard_library(run_python):
    # Pins dependencies = []: importing the CLI pulls in nothing outside the
    # package and the standard library. Modules loaded before the import
    # (site hooks of the environment) do not count.
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import chorepick.cli\n"
              "print(json.dumps(sorted({name.partition('.')[0]\n"
              "                         for name in set(sys.modules) - before})))\n")
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "chorepick" in added
    assert [name for name in added
            if name != "chorepick" and name not in sys.stdlib_module_names] == []
