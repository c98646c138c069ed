"""Golden CLI corpus: byte-exact stdout of a fixed set of invocations.

Each case runs ``chorepick.cli.main`` in-process and compares its stdout
with ``tests/golden/<case>.out``. Arguments starting with ``@`` name input
files in ``tests/golden/``. The corpus is the behaviour gate for refactors;
re-record it only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import gc
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chorepick.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gen-random": "gen --kind random --n 3 --m 7 --max-cost 6 --seed 5",
    "gen-tight": "gen --kind tight --n 4",
    "gen-tension": "gen --kind tension --n 5",
    "gen-gap": "gen --kind gap --n 2",
    "simulate-named": "simulate --order n3 --input @tight3.json",
    "simulate-inline": "simulate --order 123:321 --input @tight3.json",
    "simulate-file-general": "simulate --order @order_cycle.json --input @general.json",
    "evaluate-n2": "evaluate --order n2 --m 40",
    "evaluate-n3": "evaluate --order n3 --m 30",
    "evaluate-n4": "evaluate --order n4 --m 40",
    "evaluate-n4-long": "evaluate --order n4 --m 400",
    "evaluate-super8": "evaluate --order super8 --m 48",
    "evaluate-file-cycle": "evaluate --order @order_cycle.json --m 25",
    "evaluate-file-assignment": "evaluate --order @order_assignment.json --m 10 --n 3",
    # Empty witnesses: agent 3 holds no round, and m = 0 holds none at all.
    "evaluate-agent-without-rounds": "evaluate --order 12:12 --m 5 --n 3",
    "evaluate-no-rounds": "evaluate --order n2 --m 0",
    "envy-suffix-fails": "envy --seq 1,1,2 --check-suffix 1 2",
    "envy-suffix-holds": "envy --seq 1,2,3,3,2,1,2 --check-suffix 1 2",
    "envy-tension": "envy --tension-example 4",
    "envy-tension-seq": "envy --tension-example 4 --seq 1,2,3,4,4,3,2,1,1",
    # Labels 1..11 repeated to 100 rounds: int keys 2..11 sort as numbers.
    "envy-tension-11": "envy --tension-example 11 --seq "
                       + ",".join(str(r % 11 + 1) for r in range(100)),
    "envy-audit-label-pick": "envy --seq 1,2,3,3,2,1 --audit label_pick --input @general.json",
    "envy-audit-prsd": "envy --seq 3,4,4,3,4,4,4,4,4,3,2,1 --audit prsd --input @audit4.json",
    # Eight agents: past the n <= 6 of the reference enumeration in tests/.
    "envy-audit-label-pick-8": "envy --seq 1,2,3,4,5,6,7,8,8,7,6,5,4,3,2,1 --audit label_pick "
                               "--input @audit8.json",
    "algchores-trace-aps": "algchores --input @tight3.json --trace --with-aps",
    "algchores-untraced": "algchores --input @general.json",
    "algchores-general-trace": "algchores --input @general.json --trace",
    "algchores-general-aps": "algchores --input @general.json --with-aps",
    # Costs as digit strings (one with leading zeros), JSON ints, "p/q" and decimals.
    "algchores-mixed-aps": "algchores --input @mixed.json --with-aps",
    "shares-no-mms": "shares --input @tight3.json --no-mms",
    "shares-general": "shares --input @general.json",
    "shares-mixed": "shares --input @mixed.json",
    "search": "search --n 4 --tol 1/100",
    "build-half-plus-x": "build --entitlements 1/8,3/8,1/2 --m 12 --scaling half-plus-x",
    "build-no-trace": "build --entitlements 1/6,1/6,1/3,1/3 --m 14 --no-trace",
    "build-equal": "build --mode equal --n 8 --rho 8/5 --m 40 --schedule super",
    # Agent mode with all three class runs (classes 1,1,1,0,0,2).
    "build-equal-agent": "build --mode equal --n 6 --rho 3/2 --m 12",
    "ratio-test-inconclusive": "ratio-test --n 2 --rho 4/3 --horizon 60",
    # Classes 1,1,1,1,2,2: the class-0 run is empty and the ridge fails.
    "ratio-test-no-mid": "ratio-test --n 6 --rho 13/10",
    "ratio-test-float-fail": "ratio-test --n 200 --rho 152/100 --horizon 1000",
    "ratio-test-cutoff-pass": "ratio-test --n 1024 --rho 8/5 --mode super",
    "ratio-test-float-fail-slack": "ratio-test --n 1024 --rho 77/50 --mode agent",
    "verify": "verify --entitlements 1/6,1/3,1/2 --trials 5 --m 12",
}


def _run(case: str) -> tuple[int, str]:
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in CASES[case].split()]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    code, out = _run(case)
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_leaves_no_cyclic_garbage(case):
    # Cyclic garbage waits for the full collector, so it grows the heap of a
    # long-lived caller between collections. The first call fills the
    # process-wide parser cache.
    _run(case)
    gc.collect()
    gc.disable()
    try:
        code, _ = _run(case)
    finally:
        garbage = gc.collect()
        gc.enable()
    assert code == EXIT_OK
    assert garbage == 0


def test_corpus_replays_in_one_process():
    # The CLI parser is built once per process; a second pass over the
    # corpus, in reverse order, must print the same bytes as the first.
    first = {case: _run(case) for case in sorted(CASES)}
    second = {case: _run(case) for case in sorted(CASES, reverse=True)}
    assert second == first
    assert all(code == EXIT_OK for code, _ in first.values())


if __name__ == "__main__":
    for case in sorted(CASES):
        code, out = _run(case)
        assert code == EXIT_OK, case
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
