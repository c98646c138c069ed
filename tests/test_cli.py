import json

import pytest

from chorepick.cli import (EXIT_FILE, EXIT_GUARD, EXIT_INVALID, EXIT_OK, main)


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
    @pytest.mark.parametrize("doc", [{"cycle": [1, 2]}, [1, 2, 2, 1]],
                             ids=["no-prefix", "list"])
    def test_malformed_order_file(self, capsys, tmp_path, doc):
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", "--order", str(path), "--m", "4", "--n", "2")
        assert code == EXIT_INVALID
        assert out == "" and "order file" in err

    def test_directory_input_is_a_file_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "shares", "--input", str(tmp_path))
        assert code == EXIT_FILE
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("verify", "--entitlements", "1/4,1/4,1/4,1/4", "--m", "0"),
        ("ratio-test", "--n", "0", "--rho", "3/2"),
        ("build", "--mode", "equal", "--n", "4", "--rho", "10/7", "--m", "20"),
    ], ids=["verify-m0", "ratio-test-n0", "build-uncoverable"])
    def test_invalid_sizes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert out == "" and err.startswith("error:")


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
