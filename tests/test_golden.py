"""Golden CLI corpus: byte-exact stdout of a fixed set of invocations.

Each case runs ``chorepick.cli.main`` in-process and compares its stdout
with ``tests/golden/<case>.out``. Arguments starting with ``@`` name input
files in ``tests/golden/``. The corpus is the behaviour gate for refactors;
re-record it only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

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
    "evaluate-super8": "evaluate --order super8 --m 48",
    "evaluate-file-cycle": "evaluate --order @order_cycle.json --m 25",
    "evaluate-file-assignment": "evaluate --order @order_assignment.json --m 10 --n 3",
    "envy-suffix-fails": "envy --seq 1,1,2 --check-suffix 1 2",
    "envy-suffix-holds": "envy --seq 1,2,3,3,2,1,2 --check-suffix 1 2",
    "envy-tension": "envy --tension-example 4",
    "envy-tension-seq": "envy --tension-example 4 --seq 1,2,3,4,4,3,2,1,1",
    "algchores-trace-aps": "algchores --input @tight3.json --trace --with-aps",
    "algchores-untraced": "algchores --input @general.json",
    "algchores-general-trace": "algchores --input @general.json --trace",
    "algchores-general-aps": "algchores --input @general.json --with-aps",
    "shares-no-mms": "shares --input @tight3.json --no-mms",
    "shares-general": "shares --input @general.json",
    "search": "search --n 4 --tol 1/100",
    "build-half-plus-x": "build --entitlements 1/8,3/8,1/2 --m 12 --scaling half-plus-x",
    "build-no-trace": "build --entitlements 1/6,1/6,1/3,1/3 --m 14 --no-trace",
    "build-equal": "build --mode equal --n 8 --rho 8/5 --m 40 --schedule super",
    "ratio-test-inconclusive": "ratio-test --n 2 --rho 4/3 --horizon 60",
    "ratio-test-float-fail": "ratio-test --n 200 --rho 152/100 --horizon 1000",
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


if __name__ == "__main__":
    for case in sorted(CASES):
        code, out = _run(case)
        assert code == EXIT_OK, case
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
