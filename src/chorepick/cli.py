"""Command-line front door. Every subcommand emits a single JSON document on
stdout; rationals are rendered as "p/q" strings and all randomness flows
from --seed, so identical invocations produce byte-identical reports.

The document is written by ``_render``, one walk over the payload whose
bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)`` with
every Fraction as a "p/q" string. With ``indent`` set, ``json.dumps`` runs
the standard library's pure-Python encoder. The walk instead renders each
run of one object in a list once, joins int lists in one call and escapes
strings in C, which makes the megabyte reports of ``evaluate`` several
times cheaper to write."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import random
import sys
from fractions import Fraction
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from operator import is_not, sub

from . import algchores, entitle, fairness, ridge, shares, simulate
from .model import (ChoreInstance, InstanceError, InvariantError, PickingOrder,
                    PickingSequence, SizeGuardError, equal_entitlements, guard_cells,
                    load_instance, parse_rational, read_json, to_sequence)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2          # argparse's own convention
EXIT_FILE = 3
EXIT_INVALID = 4
EXIT_GUARD = 5
EXIT_GUARANTEE = 6      # also an InvariantError: a construction broke its own guarantee


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_render(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render(value, newline: str = "\n") -> str:
    """The JSON text of ``value``: sorted keys, a 2-space indent, tuples as
    lists and each Fraction as a "p/q" string. ``newline`` is the line break
    and indent of the enclosing container."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if type(value) is Fraction:
        return f'"{value!s}"'
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Each run of one object is rendered once: a binding valuation is a
        # few long runs of shared Fractions (simulate.WorstCase.valuation).
        starts = [0, *compress(count(1), map(is_not, value, value[1:]))]
        heads = list(map(value.__getitem__, starts))
        if set(map(type, heads)) == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            lengths = map(sub, [*starts[1:], len(value)], starts)
            body = sep.join([sep.join([_render(head, inner)] * length)
                             for head, length in zip(heads, lengths)])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_key_text(key)}: {_render(item, inner)}"
                         for key, item in sorted(value.items())])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse_entitlements(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part.strip()) for part in text.split(","))


def _parse_order(text: str) -> PickingOrder:
    if text in ridge.FIXED_ORDERS:
        return ridge.fixed_order(text)
    if text.endswith(".json"):
        data = read_json(text)
        try:
            if "assignment" in data:
                return PickingOrder(prefix=tuple(data["assignment"]))
            return PickingOrder(prefix=tuple(data["prefix"]), cycle=tuple(data.get("cycle", ())))
        except (KeyError, TypeError, InstanceError) as exc:
            raise InstanceError(f"{text}: an order file is a JSON object with a 'prefix' "
                                f"list of positive agent ids (and an optional 'cycle') "
                                f"or an 'assignment' list") from exc
    # One agent per digit ("123:321"), or comma-separated labels once the
    # text has a comma ("1,2,10:10,2").
    prefix, _, cycle = text.partition(":")
    if "," in text:
        prefix, cycle = (part.split(",") if part else () for part in (prefix, cycle))
    return PickingOrder(prefix=tuple(int(c) for c in prefix),
                        cycle=tuple(int(c) for c in cycle))


def _allocation(inst: ChoreInstance, alloc) -> dict:
    agents = range(1, inst.n + 1)
    return {"bundles": {str(i): sorted(alloc.bundle(i)) for i in agents},
            "bundle_costs": {str(i): inst.bundle_cost(i, alloc.bundle(i)) for i in agents}}


def _cmd_gen(args) -> dict:
    n = args.n
    # Chore counts: --m for random, (n-2)n+1 for tension, 2n+1 for tight and gap.
    guard_cells(n, {"random": args.m, "tension": (n - 2) * n + 1}.get(args.kind, 2 * n + 1),
                "the instance")
    if args.kind == "random":
        if min(args.m, args.max_cost) < 0:
            raise InstanceError(f"--m and --max-cost must be nonnegative, "
                                f"got m = {args.m}, max-cost = {args.max_cost}")
        rng = random.Random(args.seed)
        rows = tuple(
            tuple(sorted((Fraction(rng.randint(0, args.max_cost)) for _ in range(args.m)),
                         reverse=True))
            for _ in range(n))
        inst = ChoreInstance(equal_entitlements(n), rows)
    elif args.kind == "tight":
        inst = algchores.tight_example(n)
    elif args.kind == "tension":
        inst = fairness.tension_instance(fairness.envy_tension_example(n))
    else:  # gap
        row = tuple(Fraction(n, 2 * n + 1) for _ in range(2 * n + 1))
        inst = ChoreInstance(equal_entitlements(n), tuple([row] * n))
    return {"instance": inst.to_dict()}


def _cmd_shares(args) -> dict:
    inst = load_instance(args.input)
    report = shares.share_report(inst, with_mms=not args.no_mms,
                                 with_aps=not args.no_aps, force=args.force)
    return {"shares": dataclasses.asdict(report)}


def _cmd_build(args) -> dict:
    if args.mode == "equal":
        if args.n is None or args.rho is None:
            raise ValueError("equal mode needs --n and --rho")
        sched = ridge.ridge_periods(args.n, parse_rational(args.rho), args.schedule)
        order = ridge.synthesize_order(sched, args.m)
        return {
            "order": order.expand(args.m),
            "periods": sched.periods,
            "classes": sched.classes,
        }
    if args.entitlements is None:
        raise ValueError("arbitrary mode needs --entitlements")
    ents = _parse_entitlements(args.entitlements)
    scaling = (entitle.half_plus_x if args.scaling == "half-plus-x"
               else entitle.ScalingFunction(parse_rational(args.t)))
    pipeline = entitle.build_fractional(ents, scaling, args.m)
    out = {
        "order": pipeline.order().expand(args.m),
        "sorted_entitlements": pipeline.sorted_entitlements,
        "columns": pipeline.columns,
        "sentinel": pipeline.sentinel,
    }
    if not args.no_trace:
        out["stages"] = {name: getattr(pipeline, name)
                         for name in ("proportional", "giveup", "rebalanced", "scaled")}
        out["stages"]["final"] = pipeline.final.shares
    return out


def _cmd_simulate(args) -> dict:
    inst = load_instance(args.input)
    order = _parse_order(args.order)
    seq = to_sequence(order, inst.m)
    played = simulate.greedy_play(seq, inst)
    return {"sequence": seq.rounds, **_allocation(inst, played)}


def _cmd_evaluate(args) -> dict:
    order = _parse_order(args.order)
    agents = order.prefix + order.cycle
    n = args.n
    if n is None:
        if not agents:
            raise InstanceError(f"{args.order}: the order names no agent, so --n is needed")
        n = max(agents)
    elif n < 1:
        raise InstanceError(f"agent count must be positive, got n = {n}")
    guard_cells(n, args.m, "the evaluation")
    result = simulate.evaluate_order(order, n, args.m)
    return {
        "ratio": result.ratio,
        "per_agent": {
            str(agent): {
                "positions": wc.positions,
                "ratio": wc.value,
                "binding_valuation": wc.valuation,
            }
            for agent, wc in result.per_agent.items()
        },
    }


def _cmd_ratio_test(args) -> dict:
    sched = ridge.ridge_periods(args.n, parse_rational(args.rho), args.mode)
    return {**ridge.covering_test(sched, args.horizon).to_dict(), "ridge_ok": sched.ridge_ok}


def _cmd_search(args) -> dict:
    best = ridge.best_ratio_search(args.n, args.mode, parse_rational(args.tol))
    return {"best_rho": best, "best_rho_float": float(best)}


def _cmd_algchores(args) -> dict:
    inst = load_instance(args.input)
    result = algchores.alg_chores(inst, trace=args.trace)
    out = {**_allocation(inst, result.allocation), "rotations": result.rotations}
    if args.trace:
        out["rounds"] = [dataclasses.asdict(r) for r in result.trace]
    if args.with_aps:
        anyprice = shares.share_report(inst, with_mms=False, force=args.force).anyprice
        out["anyprice_ratios"] = {
            str(i): {"anyprice": aps, "ratio": out["bundle_costs"][str(i)] / aps if aps else None}
            for i, aps in enumerate(anyprice, start=1)}
    return out


def _cmd_envy(args) -> dict:
    seq = PickingSequence(tuple(int(x) for x in args.seq.split(","))) if args.seq else None
    if args.tension_example is not None:
        return dataclasses.asdict(fairness.envy_tension_example(args.tension_example, seq))
    if seq is None:
        raise ValueError("--seq is required unless --tension-example is used")
    if args.check_suffix:
        i, j = args.check_suffix
        return dataclasses.asdict(fairness.suffix_envy_condition(seq, i, j))
    if args.audit is None or args.input is None:
        raise ValueError("audit mode needs --audit and --input")
    inst = load_instance(args.input)
    report = fairness.ef_ra_audit(seq, args.audit, inst.costs, inst.entitlements)
    return {**dataclasses.asdict(report), "ok": report.ok}


def _cmd_verify(args) -> dict:
    ents = _parse_entitlements(args.entitlements)
    report = entitle.verify_guarantee(ents, trials=args.trials, seed=args.seed, m=args.m)
    return {**dataclasses.asdict(report), "ok": report.ok}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse returns a
    fresh Namespace, so no state carries from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="chorepick",
        description="Construct and verify picking sequences for chore allocation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit an instance file")
    p.add_argument("--kind", choices=("random", "tight", "tension", "gap"), default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--max-cost", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("shares", help="per-agent share report")
    p.add_argument("--input", required=True)
    p.add_argument("--no-mms", action="store_true")
    p.add_argument("--no-aps", action="store_true")
    p.add_argument("--force", action="store_true", help="override oracle size guards")
    p.set_defaults(run=_cmd_shares)

    p = sub.add_parser("build", help="construct a picking order")
    p.add_argument("--mode", choices=("arbitrary", "equal"), default="arbitrary")
    p.add_argument("--entitlements", help="comma-separated rationals (arbitrary mode)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scaling", choices=("production", "half-plus-x"), default="production")
    p.add_argument("--t", default="1466/1000", help="scaling parameter (production)")
    p.add_argument("--no-trace", action="store_true", help="omit per-stage matrices")
    p.add_argument("--n", type=int, help="agent count (equal mode)")
    p.add_argument("--rho", help="target ratio (equal mode)")
    p.add_argument("--schedule", choices=("agent", "super"), default="agent")
    p.set_defaults(run=_cmd_build)

    p = sub.add_parser("simulate", help="greedy play-out of an order on an instance")
    p.add_argument("--order", required=True,
                   help="n2|n3|n4|super8, digits[:cycle], labels[:labels] "
                        "(comma-separated), or file.json")
    p.add_argument("--input", required=True)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("evaluate", help="worst-case chore-share ratio of an order")
    p.add_argument("--order", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("ratio-test", help="covering test for a period schedule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--mode", choices=("agent", "super"), default="agent")
    p.add_argument("--horizon", type=int, help="fallback scan horizon when the rate sum is <= 1")
    p.set_defaults(run=_cmd_ratio_test)

    p = sub.add_parser("search", help="smallest passing target ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("agent", "super"), default="agent")
    p.add_argument("--tol", default="1/1000")
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("algchores", help="round-based allocation with envy-cycle resolution")
    p.add_argument("--input", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--with-aps", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=_cmd_algchores)

    p = sub.add_parser("envy", help="suffix condition, stage audits, tension example")
    p.add_argument("--seq", help="comma-separated picker ids")
    p.add_argument("--check-suffix", nargs=2, type=int, metavar=("I", "J"))
    p.add_argument("--audit", choices=fairness.STAGE_MODES)
    p.add_argument("--input", help="instance file (audit)")
    p.add_argument("--tension-example", type=int)
    p.set_defaults(run=_cmd_envy)

    p = sub.add_parser("verify", help="stress the arbitrary-entitlement guarantee")
    p.add_argument("--entitlements", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=40)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Rendering inside the try turns a Fraction too long to print (over
        # the interpreter's 4300-digit limit) into exit 4 with nothing written.
        payload = args.run(args)
        text = _render({"schema_version": SCHEMA_VERSION, **payload})
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("error: out of memory: the input is too large for this process", file=sys.stderr)
        return EXIT_GUARD
    except (InstanceError, ValueError, ridge.CoveringViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvariantError as exc:
        print(f"error: invariant broken: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early. Point the descriptor at devnull so
        # that the flush at interpreter exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_FILE
    if args.command == "verify" and not payload["ok"]:
        return EXIT_GUARANTEE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
