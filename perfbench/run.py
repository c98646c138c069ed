"""chorepick benchmark: closed-loop CLI job streams, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload anyprice --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload, one table

One process is one client of one workload. It imports the package from
``src/``, generates the seeded job stream, warms up, and then runs jobs back
to back (closed loop, one client, no threads) for ``--seconds``, finishing
the block of jobs in progress, so every run sees whole size-stratified
blocks (see ``workloads.py``). Each job is
one or more in-process ``chorepick.cli.main`` calls; its outputs are checked
and, at the seed the digests were recorded for, compared byte for byte.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the stream
with span wrappers on every public function of the package and prints the
per-layer metrics; the spans are written to ``.perfbench/``. For the tracing
overhead it runs each job a second time, untraced, in a second imported copy
of the package that has had the same warm-up, so neither copy ever runs a job
the other has just run.

End-to-end times are reported at a reference host speed (see
``PROBE_REFERENCE_S``); the figures as measured are printed next to them and
kept in the result file under ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, starting with
``#``, give the sample counts, the input properties and the machine.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
PREGENERATED_BLOCKS = 6
DIGEST_SEED = 0
# Host speed on a shared machine swings by a third within tens of seconds.
# Every timed span is therefore bracketed by a fixed probe that never calls
# the program, and times are reported at the speed where the probe takes
# PROBE_REFERENCE_S: t * PROBE_REFERENCE_S / (mean of the two probes).
PROBE_REFERENCE_S = 0.002

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, CheckFailed, JobStream, digest  # noqa: E402
import tracer as tracing  # noqa: E402

END_TO_END = (("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("jobs_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_frac", "frac"))

# Per-layer metrics of the traced run. Counts and self times are per completed
# job; sizes are means per call.
PER_JOB_CALLS = ("_simplex.maximize", "shares.aps_oracle", "shares.mms_oracle",
                 "ridge.covering_test", "ridge.best_ratio_search", "ridge.synthesize_order",
                 "simulate.worst_case_bundle", "simulate.greedy_play", "algchores.alg_chores",
                 "fairness.ef_ra_audit")
PER_JOB_SELF = PER_JOB_CALLS + ("simulate.evaluate_order", "shares.chore_share",
                                "entitle.build_fractional", "entitle.round_to_order",
                                "entitle.verify_guarantee", "model.load_instance",
                                "model.to_ido")
PER_CALL_SIZES = (("_simplex.maximize.cells", "_simplex.maximize", "cells"),
                  ("shares.aps_oracle.lp_per_call", "shares.aps_oracle", "1/call"),
                  ("ridge.covering_test.horizon", "ridge.covering_test", "rounds"),
                  ("ridge.synthesize_order.rounds", "ridge.synthesize_order", "rounds"),
                  ("simulate.worst_case_bundle.rounds", "simulate.worst_case_bundle", "rounds"),
                  ("simulate.greedy_play.rounds", "simulate.greedy_play", "rounds"),
                  ("algchores.alg_chores.rounds", "algchores.alg_chores", "rounds"),
                  ("entitle.build_fractional.cells", "entitle.build_fractional", "cells"))


def per_layer_catalog() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    m = tracing.metric_name
    out = [(m(f) + ".calls", "1/job") for f in PER_JOB_CALLS]
    out += [(m(f) + ".self_s", "s/job") for f in PER_JOB_SELF]
    out += [(m(name), unit) for name, _, unit in PER_CALL_SIZES]
    out += [("shares.aps_oracle.distinct_frac", "frac"), ("cli.self_s", "s/job"),
            ("cli.out_bytes", "B/job")]
    out += [(f"layer.{m(layer)}.self_frac", "frac") for layer in tracing.LAYERS]
    out += [("trace.overhead_frac", "frac")]
    return out


def probe() -> float:
    """Seconds taken by a fixed piece of stdlib work (rational arithmetic,
    sorting, dict updates, JSON), with the collector off: a gauge of how fast
    the host runs Python right now."""
    gc.disable()
    try:
        begin = perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 13 + 1, i % 7 + 2)
        ranked = sorted(Fraction((i * 7919) % 1000, i % 9 + 1) for i in range(200))
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i
        json.dumps([str(x) for x in ranked[:100]])
        return perf_counter() - begin
    finally:
        gc.enable()


def scale(took: float, before: float, after: float) -> float:
    """A time measured between two probes, at the reference host speed."""
    return took * 2 * PROBE_REFERENCE_S / (before + after)


class Failure(Exception):
    """The benchmark cannot run here: the sources are missing or a warm-up job fails."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def import_package():
    """Import chorepick from this checkout's src/, afresh."""
    if not (SRC / "chorepick" / "cli.py").is_file():
        raise Failure(f"no chorepick sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "chorepick" or n.startswith("chorepick.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chorepick")
    importlib.import_module("chorepick.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "chorepick").resolve():
        raise Failure(f"imported chorepick from {pkg.__file__}, not from {SRC}")
    return pkg


class Runner:
    """Runs jobs of one stream and keeps what the metrics need."""

    def __init__(self, workload, stream, pkg, digests):
        self.workload, self.stream, self.pkg, self.digests = workload, stream, pkg, digests
        self.latencies: list[float] = []   # of jobs that passed their checks
        self.done_jobs, self.facts, self.digests_seen, self.failures = [], [], [], []
        self.out_bytes = 0
        # Per job run by loop(): (program seconds, passed its checks), and the
        # probes around them (one more probe than jobs).
        self.timed: list[tuple[float, bool]] = []
        self.probes: list[float] = []
        self.took = 0.0   # program seconds of the last job run

    def run_job(self, job, check=True):
        begin = perf_counter()
        calls = self.workload.run(job, self.pkg.cli.main, self.stream.path)
        took = self.took = perf_counter() - begin
        if not check:
            return calls
        seen, facts = digest(calls), {}
        try:
            self.workload.check(job, calls)
            if 0 <= job.index < len(self.digests) and seen != self.digests[job.index]:
                raise CheckFailed("stdout differs from the recorded digest")
            facts = self.workload.facts(job, calls)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append({"job": job.index, "kind": job.kind,
                                  "argv": [c.argv for c in calls], "why": f"{type(exc).__name__}: {exc}"})
        else:
            self.latencies.append(took)
        self.done_jobs.append(job)
        self.facts.append(facts)
        self.digests_seen.append(seen)
        self.out_bytes += sum(len(c.out.encode("utf-8")) for c in calls)
        return calls

    def loop(self, seconds: float, jobs=None) -> float:
        """Run whole blocks of jobs until `seconds` of timed wall have passed
        (or run `jobs`), with a probe before each job and after the last;
        returns that wall, which includes the checks. Probes and generating
        further blocks are not timed."""
        wall, i = 0.0, 0
        self.probes.append(probe())
        while True:
            if jobs is None and wall >= seconds and i in self.stream.block_starts:
                return wall
            if jobs is not None and i >= len(jobs):
                return wall
            if jobs is None and i >= len(self.stream.jobs):
                self.stream.extend()
            passed = len(self.latencies)
            begin = perf_counter()
            self.run_job(jobs[i] if jobs is not None else self.stream.jobs[i])
            took = perf_counter() - begin
            wall += took
            self.timed.append((self.took, len(self.latencies) > passed))
            self.probes.append(probe())
            i += 1


def load_digests(name: str) -> list[str]:
    path = HERE / "digests" / f"{name}.json"
    if not path.is_file():
        return []
    data = json.loads(path.read_text())
    return data["digests"] if data.get("seed") == DIGEST_SEED else []


def warm_up(runner) -> None:
    """Run the workload's warm-up jobs on the runner's package; any failed
    check means the benchmark cannot run here."""
    stream = runner.stream
    for job in stream.warmup_jobs():
        calls = runner.run_job(job, check=False)
        try:
            runner.workload.check(job, calls)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            shutil.rmtree(stream.workdir, ignore_errors=True)
            raise Failure(f"warm-up job {[c.argv for c in calls]} failed: {exc}") from exc


def set_up(workload, seed: int):
    """Import, generate the first blocks and warm up; repeated, and timed each time.

    Returns ((raw, scaled) seconds of each repeat, package, stream, runner)."""
    times, stream = [], None
    for _ in range(SETUP_REPEATS):
        if stream is not None:
            shutil.rmtree(stream.workdir, ignore_errors=True)
        before = probe()
        begin = perf_counter()
        pkg = import_package()
        OUT.mkdir(exist_ok=True)
        stream = JobStream(workload, seed, tempfile.mkdtemp(prefix="work-", dir=OUT), pkg)
        for _ in range(PREGENERATED_BLOCKS):
            stream.extend()
        runner = Runner(workload, stream, pkg,
                        load_digests(workload.name) if seed == DIGEST_SEED else [])
        warm_up(runner)
        took = perf_counter() - begin
        times.append((took, scale(took, before, probe())))
    return times, pkg, stream, runner


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner, setup_times) -> tuple[dict, dict, dict]:
    """The end-to-end metrics at the reference host speed, their sample
    counts, and the same figures as measured (raw)."""
    p = runner.probes
    scaled = [(scale(took, p[j], p[j + 1]), ok) for j, (took, ok) in enumerate(runner.timed)]
    attempted = len(runner.timed)

    def figures(timed, setups):
        lat = [t for t, ok in timed if ok]
        return {
            "job_p50_ms": statistics.median(lat) * 1000 if lat else math.nan,
            "job_p90_ms": percentile(lat, 0.9) * 1000 if lat else math.nan,
            # Program time only, like the latencies: the checks are left out.
            "jobs_per_s": len(lat) / sum(t for t, _ in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": len(lat) / attempted,
        }

    metrics = figures(scaled, [s for _, s in setup_times])
    raw = figures(runner.timed, [r for r, _ in setup_times])
    ok = len(runner.latencies)
    program = sum(t for t, _ in runner.timed)
    samples = {"job_p50_ms": f"{ok} jobs", "job_p90_ms": f"{ok} jobs, {ok - math.ceil(0.9 * ok)} above",
               "jobs_per_s": f"{ok} jobs / {program:.3f} s of program time", "setup_s": f"{len(setup_times)} set-ups",
               "peak_rss_mib": "1 process", "ok_frac": f"{ok} of {attempted} jobs"}
    return metrics, samples, raw


def trace_loop(runner, tr, seconds: float) -> tuple[float, float]:
    """Run each job once traced on the runner's package and once untraced on
    a second copy of it, warmed up alike, in alternating order, until
    `seconds` have passed; returns the summed latencies of both sides. Each
    copy sees the stream exactly as an untraced run does, so a cache in the
    package is never warmed by the other side's run of the same job. Only
    the traced side counts as a done job."""
    plain = Runner(runner.workload, runner.stream, import_package(), runner.digests)
    warm_up(plain)
    begin, traced_wall, plain_wall, i = perf_counter(), 0.0, 0.0, 0
    while perf_counter() - begin < seconds or i not in runner.stream.block_starts:
        if i >= len(runner.stream.jobs):
            runner.stream.extend()
        job = runner.stream.jobs[i]
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            side = runner if traced else plain
            done = len(side.latencies)
            if traced:
                tr.job_id = job.index
                tr.install()
            try:
                side.run_job(job)
            finally:
                tr.uninstall()
            took = side.latencies[done] if len(side.latencies) > done else 0.0
            if traced:
                traced_wall += took
            else:
                plain_wall += took
        i += 1
    runner.failures += plain.failures
    return traced_wall, plain_wall


def per_layer(tr, runner, traced_wall, plain_wall) -> dict:
    jobs = max(1, len(runner.done_jobs))
    totals = tr.totals()
    calls = {name: c for name, (c, _) in totals.items()}
    self_s = {name: s for name, (_, s) in totals.items()}
    m = tracing.metric_name
    out = {}
    for f in PER_JOB_CALLS:
        out[m(f) + ".calls"] = calls.get(f, 0) / jobs
    for f in PER_JOB_SELF:
        out[m(f) + ".self_s"] = self_s.get(f, 0.0) / jobs
    for name, f, _ in PER_CALL_SIZES:
        n = calls.get(f, 0)
        out[m(name)] = tr.counters.get(name, 0) / n if n else 0.0
    aps = calls.get("shares.aps_oracle", 0)
    out["shares.aps_oracle.distinct_frac"] = (
        tr.counters.get("shares.aps_oracle.distinct", 0) / aps if aps else 0.0)
    out["cli.self_s"] = self_s.get("cli.main", 0.0) / jobs
    out["cli.out_bytes"] = runner.out_bytes / jobs
    layer = tr.layer_self()
    total = sum(layer.values()) or 1.0
    for short, s in layer.items():
        out[f"layer.{m(short)}.self_frac"] = s / total
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1 if plain_wall > 0 else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    stamp = machine()
    setup_times, pkg, stream, runner = set_up(workload, seed)
    try:
        if not trace:
            runner.loop(seconds)
            metrics, samples, raw = end_to_end(runner, setup_times)
            units = dict(END_TO_END)
            extra = {"raw": raw, "mean_probe_s": statistics.mean(runner.probes)}
        else:
            tr = tracing.Tracer(pkg)
            traced_wall, plain_wall = trace_loop(runner, tr, seconds)
            metrics = per_layer(tr, runner, traced_wall, plain_wall)
            units = dict(per_layer_catalog())
            samples = {k: f"{len(runner.done_jobs)} traced jobs" for k in metrics}
            spans_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
            layer = tr.layer_self()
            named = sum(layer[short] for short in workload.layers) / (sum(layer.values()) or 1.0)
            extra = {"spans": tr.write_spans(str(spans_path)),
                     "spans_file": str(spans_path.relative_to(ROOT)),
                     "layer_self_s": layer, "named_layers_self_frac": named,
                     "function_self_s": {n: s for n, (_, s) in sorted(tr.totals().items())}}
    finally:
        shutil.rmtree(stream.workdir, ignore_errors=True)

    inputs = workload.report(runner.done_jobs, runner.facts)
    attempted, failed = len(runner.done_jobs), len(runner.failures)
    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          + " ".join(f"{k}={json.dumps(v)}" for k, v in stamp.items()))
    print(f"# why: {workload.why}")
    for key, value in metrics.items():
        as_measured = f" raw {extra['raw'][key]:.6g}" if "raw" in extra else ""
        print(f"# {key:<36} {value:>14.6g} {units[key]:<6} ({samples[key]}){as_measured}")
    if "raw" in extra:
        print(f"# times at the reference speed (probe {PROBE_REFERENCE_S * 1000:g} ms); "
              f"mean probe here {extra['mean_probe_s'] * 1000:.4f} ms")
    print("# inputs " + json.dumps(inputs, sort_keys=True))
    if trace:
        print(f"# layers {'+'.join(workload.layers)} hold {extra['named_layers_self_frac']:.3f} "
              f"of traced self time; {extra['spans']} spans in {extra['spans_file']}")
    for f in runner.failures[:20]:
        print("# FAILED " + json.dumps(f))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  machine=stamp, samples=samples, inputs=inputs, failures=runner.failures,
                  setup_times=setup_times, **extra)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        record = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
        samples = json.loads(record.read_text())["samples"]
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"], samples.get(key, "")))
        rows.append((name, "failed", result["failed"], "jobs", f"of {result['attempted']} attempted"))
    for name, key, value, unit, sample in rows:
        print(f"{name:<9} {key:<36} {value:>14.6g} {unit:<6} {sample}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
