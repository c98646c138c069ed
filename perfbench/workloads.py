"""Seeded job streams for the chorepick benchmark.

A job is one certification question a user asks. It is answered by one or
more in-process ``chorepick.cli.main(argv)`` calls whose stdout is captured,
and its outputs are then checked. Jobs are produced in blocks; each block is
stratified over the input sizes of its workload (and shuffled), so a run that
completes a few blocks sees nearly the same size mix whatever the seed.
Block k of a stream is drawn from its own generator, keyed by workload, seed
and k, so the stream is identical however many blocks are generated ahead.

Instance and order files a job reads are written into a work directory when
its block is generated. Arguments refer to them as ``@name``; the runner
substitutes the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

@dataclass
class Call:
    argv: list[str]
    rc: int | None          # None when the call raised
    out: str
    err: str


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    argv: tuple[tuple[str, ...], ...]   # calls known before the job runs
    props: dict                          # input properties used by checks and reports
    files: dict = field(default_factory=dict)   # name -> file content

    def describe(self) -> dict:
        return {"index": self.index, "kind": self.kind,
                "argv": [list(a) for a in self.argv],
                "props": self.props, "files": self.files}


def call_cli(main, argv: list[str]) -> Call:
    """Run one CLI invocation in process; any exception or exit is captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = None
    return Call(list(argv), rc, out.getvalue(), err.getvalue())


def digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(c.out.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _ents(rng: random.Random, n: int) -> list[str]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def _instance(ents: list[str], rows: list[list]) -> str:
    return json.dumps({"agents": len(rows), "chores": len(rows[0]) if rows else 0,
                       "entitlements": ents,
                       "costs": [[str(c) for c in row] for row in rows]},
                      sort_keys=True)


def _common_order(rows) -> bool:
    return all(all(row[j] >= row[j + 1] for j in range(len(row) - 1)) for row in rows)


def _need(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


class CheckFailed(Exception):
    pass


class Workload:
    """One job stream: block generation, execution, checks and the input report."""

    name = ""
    why = ""
    layers: tuple[str, ...] = ()

    def block(self, rng: random.Random, pkg, turn: int) -> list[tuple[str, tuple, dict, dict]]:
        """Job specs (kind, argv, props, files) of one block; `turn` counts
        blocks from a seed-chosen start, for designs that rotate."""
        raise NotImplementedError

    def warmup(self, pkg) -> list[tuple[str, tuple, dict, dict]]:
        raise NotImplementedError

    def run(self, job: Job, main, path) -> list[Call]:
        return [call_cli(main, [path(a) for a in argv]) for argv in job.argv]

    def check(self, job: Job, calls: list[Call]) -> None:
        """Raise CheckFailed when an output is wrong."""
        for c in calls:
            _need(c.rc == 0, f"{c.argv[0]} exited {c.rc}: {c.err.strip()[:200]}")
        self.check_outputs(job, [json.loads(c.out) for c in calls])

    def check_outputs(self, job: Job, docs: list[dict]) -> None:
        raise NotImplementedError

    def facts(self, job: Job, calls: list[Call]) -> dict:
        """The little the input report needs from a job's outputs (which are
        not kept, so memory does not grow with the number of jobs run)."""
        return {}

    def report(self, jobs: list[Job], facts: list[dict]) -> dict:
        raise NotImplementedError


class AnyPrice(Workload):
    name = "anyprice"
    why = ("ROADMAP's hotspot, the exact APS LP: shares then algchores on small equal-entitlement "
           "instances; _simplex+shares do most of the work, algchores ~1%; few costs repeat oracle inputs")
    layers = ("_simplex", "shares")
    M_RANGE = range(1, 13)
    N_CHOICES = (2, 3, 4)
    MAX_COST = 6

    def _job(self, n: int, rows: list[list], family: str):
        ents = [str(Fraction(1, n))] * n
        m = len(rows[0])
        props = {"n": n, "m": m, "family": family,
                 "aps_keys": [[sorted(str(c) for c in row), ents[0]] for row in rows],
                 "common_order": _common_order(rows)}
        argv = (("shares", "--input", "@inst.json"), ("algchores", "--input", "@inst.json"))
        return "shares+algchores", argv, props, {"inst.json": _instance(ents, rows)}

    def block(self, rng, pkg, turn):
        jobs = []
        ns = _strata(rng, [[n] for n in self.N_CHOICES], 2 * len(self.M_RANGE))
        for m in self.M_RANGE:
            n = ns.pop()
            row = sorted((rng.randint(0, self.MAX_COST) for _ in range(m)), reverse=True)
            jobs.append(self._job(n, [row] * n, "common"))
            n = ns.pop()
            rows = [[rng.randint(0, self.MAX_COST) for _ in range(m)] for _ in range(n)]
            jobs.append(self._job(n, rows, "independent"))
        n = rng.choice(self.N_CHOICES)
        jobs.append(self._job(n, [list(r) for r in pkg.algchores.tight_example(n).costs], "tight"))
        n = rng.choice(self.N_CHOICES)
        jobs.append(self._job(n, [[Fraction(n, 2 * n + 1)] * (2 * n + 1)] * n, "gap"))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, pkg):
        return [self._job(2, [[3, 2, 2, 1]] * 2, "common"),
                self._job(3, [[1, 4, 0], [2, 2, 5], [6, 0, 1]], "independent")]

    def check_outputs(self, job, docs):
        shares, alloc = docs
        n, m = job.props["n"], job.props["m"]
        aps = [Fraction(x) for x in shares["shares"]["anyprice"]]
        for i in range(n):
            mms, cs = Fraction(shares["shares"]["maximin"][i]), Fraction(shares["shares"]["chore"][i])
            _need(mms >= aps[i] >= cs, f"agent {i + 1}: MMS {mms} >= APS {aps[i]} >= CS {cs} fails")
        bound = Fraction(4 * n - 1, 3 * n)
        got = sorted(c for b in alloc["bundles"].values() for c in b)
        _need(got == list(range(1, m + 1)), "algchores bundles do not partition the chores")
        for i in range(1, n + 1):
            cost = Fraction(alloc["bundle_costs"][str(i)])
            _need(cost <= bound * aps[i - 1],
                  f"agent {i}: bundle {cost} exceeds (4n-1)/(3n) * APS = {bound * aps[i - 1]}")

    def report(self, jobs, facts):
        seen, repeats, total = set(), 0, 0
        for job in jobs:
            for key in job.props["aps_keys"]:
                key = json.dumps(key)
                total += 1
                repeats += key in seen
                seen.add(key)
        return {
            "aps_calls": total,
            "aps_repeat_frac": repeats / total if total else 0.0,
            "common_order_frac": (sum(j.props["common_order"] for j in jobs) / len(jobs)
                                  if jobs else 0.0),
            "n_hist": _hist(j.props["n"] for j in jobs),
            "m_hist": _hist(j.props["m"] for j in jobs),
            "family_hist": _hist(j.props["family"] for j in jobs),
        }


class Ridge(Workload):
    name = "ridge"
    why = ("ratio-test or search, n 8..16384 plus the paper's pinned n=16384 verdicts, "
           "build+evaluate on passing n<=128: ridge covering and the simulate evaluator, no LP")
    layers = ("ridge", "simulate")
    # Agent counts doubling from 8 to 16384.
    NS = tuple(8 * 2 ** k for k in range(12))
    # Target ratios around the pass/fail boundary. The conclusive horizon grows
    # like n/(r-1) in the covering ratio r, and every (n, mode, rho) here keeps
    # it below 600k rounds, so no single job runs for minutes.
    RHOS = ("29/20", "37/25", "3/2", "38/25", "77/50", "39/25", "79/50", "8/5", "33/20", "17/10")
    SEARCH_NS = tuple(n for n in NS if n <= 2048)
    SEARCH_TOLS = ("1/100", "1/1000")
    EVALUATE_MAX_N = 128
    PINNED = (("super", "1543/1000", "pass", None), ("agent", "1542/1000", "fail", 42465))

    def _ratio(self, n, mode, rho, pinned=None):
        props = {"n": n, "mode": mode, "rho": rho}
        if pinned is not None:
            props["expect"] = pinned
        argv = (("ratio-test", "--n", str(n), "--rho", rho, "--mode", mode),)
        return "ratio-test", argv, props, {}

    def _search(self, n, mode, tol):
        argv = (("search", "--n", str(n), "--mode", mode, "--tol", tol),)
        return "search", argv, {"n": n, "mode": mode, "tol": tol}, {}

    def block(self, rng, pkg, turn):
        # Every (n, mode) meets two target ratios half the grid apart, so most
        # small n get one passing job (which goes on to build and evaluate) and
        # one failing one; the pairing rotates one step per block, and five
        # consecutive blocks cover the whole n x mode x rho grid.
        k = len(self.RHOS) // 2
        jobs = [self._ratio(n, mode, self.RHOS[(i + k * j + turn + h) % len(self.RHOS)])
                for i, n in enumerate(self.NS) for j, mode in enumerate(("agent", "super"))
                for h in (0, k)]
        search_ns = _strata(rng, _split(self.SEARCH_NS, 4), 4)
        for mode in ("agent", "super"):
            for tol in self.SEARCH_TOLS:
                jobs.append(self._search(search_ns.pop(), mode, tol))
        for mode, rho, verdict, failing_k in self.PINNED:
            jobs.append(self._ratio(16384, mode, rho, [verdict, failing_k]))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, pkg):
        return [self._ratio(8, "agent", "8/5"), self._search(8, "super", "1/100")]

    def run(self, job, main, path):
        calls = super().run(job, main, path)
        if job.kind != "ratio-test" or job.props["n"] > self.EVALUATE_MAX_N or calls[0].rc != 0:
            return calls
        verdict = json.loads(calls[0].out)
        if verdict["verdict"] != "pass" or not verdict["ridge_ok"]:
            return calls
        n, m = job.props["n"], 4 * job.props["n"]
        build = call_cli(main, ["build", "--mode", "equal", "--n", str(n), "--rho", job.props["rho"],
                                "--m", str(m), "--schedule", job.props["mode"]])
        calls.append(build)
        if build.rc != 0:
            return calls
        order_path = path(f"@order-{job.index}.json")
        with open(order_path, "w", encoding="utf-8") as handle:
            json.dump({"assignment": json.loads(build.out)["order"]}, handle)
        calls.append(call_cli(main, ["evaluate", "--order", order_path, "--m", str(m), "--n", str(n)]))
        os.remove(order_path)
        return calls

    def check_outputs(self, job, docs):
        n = job.props["n"]
        if job.kind == "search":
            best = Fraction(docs[0]["best_rho"])
            _need(Fraction(101, 100) <= best <= 2, f"search result {best} outside [101/100, 2]")
            _need(abs(float(best) - docs[0]["best_rho_float"]) < 1e-9, "search float disagrees")
            return
        v = docs[0]
        _need(v["verdict"] in ("pass", "fail", "inconclusive"), f"unknown verdict {v['verdict']}")
        _need((v["verdict"] == "fail") == (v["failing_k"] is not None), "failing_k and verdict disagree")
        _need(v["horizon"] >= 2 * n, "horizon below 2n")
        if v["failing_k"] is not None:
            _need(1 <= v["failing_k"] <= v["horizon"], "failing round outside the horizon")
        if "expect" in job.props:
            verdict, k = job.props["expect"]
            _need([v["verdict"], v["failing_k"]] == [verdict, k],
                  f"pinned verdict {v['verdict']}/{v['failing_k']}, expected {verdict}/{k}")
        if len(docs) > 1:
            order = docs[1]["order"]
            _need(len(order) == 4 * n and set(order) <= set(range(1, n + 1)),
                  "synthesized order has the wrong length or agents")
        if len(docs) > 2:
            ratio, rho = Fraction(docs[2]["ratio"]), Fraction(job.props["rho"])
            _need(ratio <= rho, f"synthesized order evaluates to {ratio} > rho {rho}")

    def facts(self, job, calls):
        if job.kind != "ratio-test" or calls[0].rc != 0:
            return {}
        return {"verdict": json.loads(calls[0].out)["verdict"], "evaluated": len(calls) == 3}

    def report(self, jobs, facts):
        tests = [(j, f) for j, f in zip(jobs, facts) if "verdict" in f]
        verdicts = Counter(f["verdict"] for _, f in tests)
        return {
            "kind_hist": _hist(j.kind for j in jobs),
            "verdict_frac": {k: v / len(tests) for k, v in sorted(verdicts.items())} if tests else {},
            "build_evaluate_frac": (sum(f["evaluated"] for _, f in tests) / len(jobs)) if jobs else 0.0,
            "n_hist": _hist(j.props["n"] for j in jobs),
            "evaluate_m_hist": _hist(4 * j.props["n"] for j, f in tests if f["evaluated"]),
            "mode_hist": _hist(j.props["mode"] for j in jobs),
        }


class Allocate(Workload):
    name = "allocate"
    why = ("random entitlements: verify, build with stage trace, algchores on general instances, "
           "envy audits; greedy_play, entitle, algchores where it dominates, model parsing, fairness tail")
    layers = ("entitle", "simulate", "algchores", "fairness", "model")
    TRIALS = "20"
    # Envy audits enumerate n! stage orders, so their order length stays short
    # to keep the n = 6 label_pick audits near two seconds.
    ENVY_M = (10, 16)

    def _verify(self, ents, m, seed):
        argv = (("verify", "--entitlements", ",".join(ents), "--m", str(m),
                 "--trials", self.TRIALS, "--seed", str(seed)),)
        return "verify", argv, {"n": len(ents), "m": m}, {}

    def _build(self, ents, m):
        argv = (("build", "--entitlements", ",".join(ents), "--m", str(m)),)
        return "build", argv, {"n": len(ents), "m": m}, {}

    def _algchores(self, ents, rows):
        argv = (("algchores", "--input", "@inst.json"),)
        return ("algchores", argv, {"n": len(rows), "m": len(rows[0])},
                {"inst.json": _instance(ents, rows)})

    def _envy(self, pkg, ents, rows, mode):
        m = len(rows[0])
        order = pkg.entitle.verify_guarantee([Fraction(b) for b in ents], trials=0, m=m).order
        seq = ",".join(str(who) for who in reversed(order))
        argv = (("envy", "--seq", seq, "--audit", mode, "--input", "@inst.json"),)
        # The construction needs max(n, 1/min b) columns; a shorter order is a
        # truncation, on which the audited properties need not hold.
        truncated = m < max(len(ents), math.ceil(1 / min(Fraction(b) for b in ents)))
        return ("envy", argv, {"n": len(rows), "m": m, "mode": mode, "truncated": truncated},
                {"inst.json": _instance(ents, rows)})

    def _sizes(self, rng, ns, ms, turn):
        """Six (n, m) pairs, one per n stratum; the m stratum paired with each
        rotates one step per block, so consecutive blocks cover every pairing."""
        n_strata, m_strata = _split(ns, 6), _split(ms, 6)
        return [(rng.choice(n_strata[k]), rng.choice(m_strata[(k + turn) % 6])) for k in range(6)]

    def block(self, rng, pkg, turn):
        jobs = []
        for n, m in self._sizes(rng, range(2, 17), range(20, 81), turn):
            jobs.append(self._verify(_ents(rng, n), m, rng.randint(0, 10 ** 6)))
        for n, m in self._sizes(rng, range(2, 17), range(20, 81), turn):
            jobs.append(self._build(_ents(rng, n), m))
        for n, m in self._sizes(rng, range(8, 21), range(60, 161), turn):
            jobs.append(self._algchores(_ents(rng, n),
                                        [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]))
        # One audit of each mode per block, its n (4, 5, 6) rotating with the
        # block: an n = 6 label_pick audit costs as much as the rest of a block.
        n = 4 + turn % 3
        for mode in ("label_pick", "prsd"):
            m = rng.randint(*self.ENVY_M)
            jobs.append(self._envy(pkg, _ents(rng, n),
                                   [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)], mode))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, pkg):
        ents = ["1/3", "2/3"]
        return [self._verify(ents, 20, 0), self._build(ents, 20),
                self._algchores(["1/8"] * 8, [[(3 * i + 5 * j) % 11 for j in range(60)]
                                              for i in range(8)]),
                self._envy(pkg, ["1/4", "1/4", "1/4", "1/4"],
                           [[(i + j) % 5 for j in range(12)] for i in range(4)], "prsd")]

    def check_outputs(self, job, docs):
        doc, n, m = docs[0], job.props["n"], job.props["m"]
        if job.kind == "verify":
            _need(doc["ok"] is True, "verify reports a guarantee violation")
            _need(len(doc["order"]) == m and set(doc["order"]) <= set(range(1, n + 1)),
                  "verify order has the wrong length or agents")
        elif job.kind == "build":
            _need(len(doc["order"]) == m, "build order has the wrong length")
            final = doc["stages"]["final"]
            for j in range(len(final[0])):
                _need(sum(Fraction(row[j]) for row in final) == 1, f"final column {j + 1} does not sum to 1")
        elif job.kind == "algchores":
            got = sorted(c for b in doc["bundles"].values() for c in b)
            _need(got == list(range(1, m + 1)), "algchores bundles do not partition the chores")
        else:
            # The audit's verdict is the program's answer; it must be consistent.
            mode = job.props["mode"]
            own, other = "dominates_uniform", "no_upward_envy"
            if mode == "prsd":
                own, other = other, own
            _need(doc["mode"] == mode and isinstance(doc[own], bool) and doc[other] is None,
                  f"{mode} audit reports the wrong properties")
            _need(doc["ok"] == all(doc[k] is not False for k in
                                   ("dominates_uniform", "no_upward_envy",
                                    "mean_guarantee_is_proportional")),
                  f"{mode} audit verdict disagrees with its properties")

    def facts(self, job, calls):
        if job.kind != "envy" or calls[0].rc != 0:
            return {}
        return {"ok": json.loads(calls[0].out)["ok"]}

    def report(self, jobs, facts):
        envy = [(j, f) for j, f in zip(jobs, facts) if "ok" in f]
        return {
            "kind_hist": _hist(j.kind for j in jobs),
            "envy_truncated_frac": sum(j.props["truncated"] for j, _ in envy) / len(envy) if envy else 0.0,
            "envy_ok_frac": sum(f["ok"] is True for _, f in envy) / len(envy) if envy else 0.0,
            "n_hist": {k: _hist(j.props["n"] for j in jobs if j.kind == k)
                       for k in ("verify", "build", "algchores", "envy")},
            "m_hist": {k: _hist(j.props["m"] for j in jobs if j.kind == k)
                       for k in ("verify", "build", "algchores", "envy")},
        }


def _split(values, parts: int) -> list[list]:
    """Cut a range into `parts` contiguous strata of near-equal size."""
    values = list(values)
    return [values[len(values) * k // parts:len(values) * (k + 1) // parts] for k in range(parts)]


def _strata(rng: random.Random, strata: list[list], count: int) -> list:
    """`count` draws that visit the strata in turn (one value drawn uniformly
    inside each), shuffled: every block gets the same size mix."""
    out = [rng.choice(strata[k % len(strata)]) for k in range(count)]
    rng.shuffle(out)
    return out


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


WORKLOADS = {w.name: w for w in (AnyPrice(), Ridge(), Allocate())}


class JobStream:
    """The jobs of one workload and seed, generated block by block into a work
    directory."""

    def __init__(self, workload: Workload, seed: int, workdir: str, pkg):
        self.workload, self.seed, self.workdir, self.pkg = workload, seed, workdir, pkg
        self.jobs: list[Job] = []
        self.block_starts = {0}
        self._blocks = 0
        self._first_turn = random.Random(f"perfbench:{workload.name}:{seed}").randrange(1 << 20)

    def _materialize(self, index: int, spec) -> Job:
        kind, argv, props, files = spec
        # Each job's files get their own prefix so blocks never collide.
        rename = {name: f"j{index}-{name}" for name in files}
        argv = tuple(tuple("@" + rename[a[1:]] if a[:1] == "@" and a[1:] in rename else a
                           for a in call) for call in argv)
        job = Job(index, kind, argv, props, {rename[k]: v for k, v in files.items()})
        for name, text in job.files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        return job

    def extend(self) -> None:
        rng = random.Random(f"perfbench:{self.workload.name}:{self.seed}:{self._blocks}")
        for spec in self.workload.block(rng, self.pkg, self._first_turn + self._blocks):
            self.jobs.append(self._materialize(len(self.jobs), spec))
        self.block_starts.add(len(self.jobs))
        self._blocks += 1

    def warmup_jobs(self) -> list[Job]:
        return [self._materialize(-1 - k, spec)
                for k, spec in enumerate(self.workload.warmup(self.pkg))]

    def path(self, arg: str) -> str:
        return os.path.join(self.workdir, arg[1:]) if arg[:1] == "@" else arg
