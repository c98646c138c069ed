"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

- one seed gives a byte-identical job list, and another seed a different one;
- a corrupted job output is caught by its workload's check, and a change the
  checks cannot see is caught by the recorded digest;
- tracing changes no output and uninstalls cleanly.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
import unittest
from fractions import Fraction

import run
from workloads import WORKLOADS, Call, CheckFailed, JobStream


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = run.import_package()
        run.OUT.mkdir(exist_ok=True)
        cls.dirs = []

    @classmethod
    def tearDownClass(cls):
        for d in cls.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def stream(self, name, seed, blocks=1):
        d = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        self.dirs.append(d)
        s = JobStream(WORKLOADS[name], seed, d, self.pkg)
        for _ in range(blocks):
            s.extend()
        return s

    def run_job(self, stream, job):
        calls = stream.workload.run(job, self.pkg.cli.main, stream.path)
        stream.workload.check(job, calls)  # the unmodified output passes
        return calls

    def assert_caught(self, workload, job, calls, index, edit):
        doc = json.loads(calls[index].out)
        edit(doc)
        bad = copy.copy(calls)
        bad[index] = Call(calls[index].argv, 0, json.dumps(doc), "")
        with self.assertRaises(CheckFailed):
            workload.check(job, bad)

    def test_same_seed_same_job_list(self):
        for name in WORKLOADS:
            a, b, c = (self.stream(name, seed, blocks=2) for seed in (11, 11, 12))
            dump = [json.dumps([j.describe() for j in s.jobs], sort_keys=True) for s in (a, b, c)]
            self.assertEqual(dump[0], dump[1], name)
            self.assertNotEqual(dump[0], dump[2], name)

    def test_anyprice_checks(self):
        s = self.stream("anyprice", 0)
        job = min(s.jobs, key=lambda j: j.props["m"] if j.props["m"] >= 3 else 99)
        calls = self.run_job(s, job)

        def aps_above_mms(doc):
            doc["shares"]["anyprice"][0] = str(Fraction(doc["shares"]["maximin"][0]) + 1)

        def heavy_bundle(doc):
            doc["bundle_costs"]["1"] = "1000"

        self.assert_caught(s.workload, job, calls, 0, aps_above_mms)
        self.assert_caught(s.workload, job, calls, 1, heavy_bundle)

    def test_ridge_checks(self):
        s = self.stream("ridge", 0)
        pinned = next(j for j in s.jobs if "expect" in j.props and j.props["expect"][0] == "fail")
        self.assert_caught(s.workload, pinned, self.run_job(s, pinned), 0,
                           lambda doc: doc.update(failing_k=42464))
        w = s.workload
        # Passes with ridge_ok at this size, so the job goes on to build and evaluate.
        job = s._materialize(len(s.jobs), w._ratio(16, "agent", "8/5"))
        calls = self.run_job(s, job)
        self.assertEqual(len(calls), 3)
        self.assert_caught(w, job, calls, 2, lambda doc: doc.update(ratio="2"))

    def test_allocate_checks(self):
        s = self.stream("allocate", 0)
        w = s.workload
        edits = {
            "verify": lambda doc: doc.update(ok=False),
            "build": lambda doc: doc["stages"]["final"][0].__setitem__(-1, "7"),
            "algchores": lambda doc: doc["bundles"]["1"].append(10 ** 6),
            "envy": lambda doc: doc.update(ok=not doc["ok"]),
        }
        for kind, edit in edits.items():
            job = min((j for j in s.jobs if j.kind == kind), key=lambda j: (j.props["n"], j.props["m"]))
            self.assert_caught(w, job, self.run_job(s, job), 0, edit)

    def test_digest_catches_what_checks_cannot(self):
        s = self.stream("anyprice", run.DIGEST_SEED)
        digests = run.load_digests("anyprice")
        if not digests:
            self.skipTest("no recorded digests")
        job = min(s.jobs[:len(digests)], key=lambda j: j.props["m"])

        class Reformatting(type(s.workload)):
            def run(self, job, main, path):
                calls = super().run(job, main, path)
                calls[0].out = calls[0].out.replace("\n", "\r\n")  # same JSON, other bytes
                return calls

        clean = run.Runner(s.workload, s, self.pkg, digests)
        clean.run_job(job)
        self.assertEqual(clean.failures, [])
        corrupt = run.Runner(Reformatting(), s, self.pkg, digests)
        corrupt.run_job(job)
        self.assertEqual(len(corrupt.failures), 1)
        self.assertIn("digest", corrupt.failures[0]["why"])

    def test_tracing_keeps_outputs(self):
        s = self.stream("allocate", 0)
        tr = run.tracing.Tracer(self.pkg)
        originals = {name: getattr(self.pkg.shares, name) for name in ("aps_oracle", "maximize")}
        for job in sorted(s.jobs, key=lambda j: (j.props["n"], j.props["m"]))[:6]:
            plain = s.workload.run(job, self.pkg.cli.main, s.path)
            tr.install()
            try:
                traced = s.workload.run(job, self.pkg.cli.main, s.path)
            finally:
                tr.uninstall()
            self.assertEqual([c.out for c in plain], [c.out for c in traced])
        for name, fn in originals.items():
            self.assertIs(getattr(self.pkg.shares, name), fn)
        self.assertGreater(sum(tr.calls), 0)


if __name__ == "__main__":
    unittest.main()
