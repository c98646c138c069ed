"""Record the stdout digests the benchmark compares against.

    python3 perfbench/make_digests.py [workload ...]

Runs the first ``JOBS`` jobs of each workload's stream at the digest seed,
checks every output, and writes ``perfbench/digests/<workload>.json`` with
one SHA-256 per job. Nothing is written for a workload when a check fails.
Re-record only when a change is meant to alter CLI output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, JobStream

JOBS = 600


def record(name: str) -> bool:
    workload = WORKLOADS[name]
    pkg = run.import_package()
    run.OUT.mkdir(exist_ok=True)
    stream = JobStream(workload, run.DIGEST_SEED, tempfile.mkdtemp(prefix="digests-", dir=run.OUT), pkg)
    try:
        runner = run.Runner(workload, stream, pkg, digests=[])
        while len(stream.jobs) < JOBS:
            stream.extend()
        runner.loop(0, jobs=stream.jobs[:JOBS])
    finally:
        shutil.rmtree(stream.workdir, ignore_errors=True)
    if runner.failures:
        for failure in runner.failures:
            print(f"{name}: {json.dumps(failure)}", file=sys.stderr)
        return False
    digests = runner.digests_seen
    path = run.HERE / "digests" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": run.DIGEST_SEED, "digests": digests}, indent=0) + "\n")
    print(f"{name}: {len(digests)} digests -> {path.relative_to(run.ROOT)}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(WORKLOADS))
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    ok = all([record(name) for name in args.workloads or WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
