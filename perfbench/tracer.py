"""Span tracing of the chorepick package from outside it.

A ``Tracer`` wraps every public function of each module of one imported
copy of the package in a recording wrapper; ``install`` binds the wrappers in
every module namespace that binds the function (so ``shares.maximize`` and
``entitle.worst_case_bundle`` are traced where they are called) and
``uninstall`` restores the originals. Spans (name, start, end, parent, job)
are kept in flat arrays and written out once, by ``write_spans``. Self time
(span time minus child spans) and a few work counters taken from arguments
and results are accumulated as the spans close. An untraced run never
installs anything.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "model", "_simplex", "shares", "simulate", "ridge", "entitle",
          "algchores", "fairness")


def metric_name(name: str) -> str:
    # Metric names may not start with an underscore.
    return name.lstrip("_")


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


class Tracer:
    def __init__(self, package):
        # The package module object, not its name: the benchmark may hold more
        # than one imported copy, and only this one is traced.
        self.package = package
        self.modules = {short: getattr(package, short) for short in LAYERS}
        self.names: list[str] = []
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.aps_keys: set = set()
        self.job_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # Work counters, keyed by span name: (args, kwargs, result) -> None.
    def _hooks(self):
        def maximize(a, k, _):
            rows = len(_arg(a, k, 1, "a_ub", ())) + len(_arg(a, k, 3, "a_eq", ()))
            self._count("_simplex.maximize.cells", rows * len(_arg(a, k, 0, "objective")))
            if self._stack and self.names[self.name[self._stack[-1][0]]] == "shares.aps_oracle":
                self._count("shares.aps_oracle.lp_per_call", 1)

        def aps(a, k, _):
            key = (tuple(sorted(_arg(a, k, 0, "costs"))), _arg(a, k, 1, "b"))
            self._count("shares.aps_oracle.distinct", key not in self.aps_keys)
            self.aps_keys.add(key)

        return {
            "_simplex.maximize": maximize,
            "shares.aps_oracle": aps,
            "ridge.covering_test": lambda a, k, r: self._count("ridge.covering_test.horizon", r.horizon),
            "ridge.synthesize_order": lambda a, k, r: self._count(
                "ridge.synthesize_order.rounds", _arg(a, k, 1, "m")),
            "simulate.worst_case_bundle": lambda a, k, r: self._count(
                "simulate.worst_case_bundle.rounds", _arg(a, k, 1, "m")),
            "simulate.greedy_play": lambda a, k, r: self._count(
                "simulate.greedy_play.rounds", _arg(a, k, 1, "inst").m),
            "algchores.alg_chores": lambda a, k, r: self._count(
                "algchores.alg_chores.rounds", _arg(a, k, 0, "inst").m),
            "entitle.build_fractional": lambda a, k, r: self._count(
                "entitle.build_fractional.cells", r.n * r.columns),
        }

    def _wrap(self, fn, name: str, hook):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_time.append(0.0)
        stack, starts, ends = self._stack, self.start, self.end
        names, parents, jobs = self.name, self.parent, self.job
        calls, self_time = self.calls, self.self_time

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            begin = perf_counter()
            starts.append(begin)
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                stack.pop()
                ends[idx] = stop
                took = stop - begin
                self_time[nid] += took - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += took
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _build(self) -> None:
        wrappers, hooks = {}, self._hooks()
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, hooks.get(name)))
        for ns in (self.package, *self.modules.values()):
            for attr, obj in vars(ns).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj, hit[1]))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        return {name: (self.calls[i], self.self_time[i]) for i, name in enumerate(self.names)}

    def layer_self(self) -> dict[str, float]:
        out = {short: 0.0 for short in LAYERS}
        for i, name in enumerate(self.names):
            out[name.split(".")[0]] += self.self_time[i]
        return out

    def write_spans(self, path: str) -> int:
        """Write all spans as gzipped tab-separated text; returns the count."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tjob\n")
            names, t0 = self.names, (self.start[0] if self.start else 0.0)
            for i in range(len(self.start)):
                handle.write(f"{names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                             f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.job[i]}\n")
        return len(self.start)
