"""Command-line front door. Every subcommand emits a single JSON document on
stdout; rationals are rendered as "p/q" strings and all randomness flows
from --seed, so identical invocations produce byte-identical reports."""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction

from . import algchores, entitle, fairness, ridge, shares, simulate
from .model import (ChoreInstance, InstanceError, PickingOrder, PickingSequence,
                    SizeGuardError, equal_entitlements, load_instance,
                    parse_rational, to_sequence)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2          # argparse's own convention
EXIT_FILE = 3
EXIT_INVALID = 4
EXIT_GUARD = 5
EXIT_GUARANTEE = 6


def _encode(value):
    """Render every Fraction inside dicts, lists and tuples as a "p/q" string.

    Dict keys pass through unchanged; the str keys the commands build sort
    as text under sort_keys ("10" before "2")."""
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [str(v) if type(v) is Fraction else _encode(v) for v in value]
    if type(value) is Fraction:
        return str(value)
    return value


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(_encode(payload), sort_keys=True, indent=2))


def _parse_entitlements(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part.strip()) for part in text.split(","))


def _parse_order(text: str) -> PickingOrder:
    if text in ridge.FIXED_ORDERS:
        return ridge.fixed_order(text)
    if text.endswith(".json"):
        with open(text, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        try:
            if "assignment" in data:
                return PickingOrder(prefix=tuple(data["assignment"]))
            return PickingOrder(prefix=tuple(data["prefix"]), cycle=tuple(data.get("cycle", ())))
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"{text}: an order file is a JSON object with a 'prefix' "
                                f"list (and an optional 'cycle') or an 'assignment' list") from exc
    prefix, _, cycle = text.partition(":")
    return PickingOrder(prefix=tuple(int(c) for c in prefix),
                        cycle=tuple(int(c) for c in cycle))


def _allocation(inst: ChoreInstance, alloc) -> dict:
    agents = range(1, inst.n + 1)
    return {"bundles": {str(i): sorted(alloc.bundle(i)) for i in agents},
            "bundle_costs": {str(i): inst.bundle_cost(i, alloc.bundle(i)) for i in agents}}


def _cmd_gen(args) -> dict:
    if args.kind == "random":
        rng = random.Random(args.seed)
        rows = tuple(
            tuple(sorted((Fraction(rng.randint(0, args.max_cost)) for _ in range(args.m)),
                         reverse=True))
            for _ in range(args.n))
        inst = ChoreInstance(equal_entitlements(args.n), rows)
    elif args.kind == "tight":
        inst = algchores.tight_example(args.n)
    elif args.kind == "tension":
        inst = fairness.tension_instance(fairness.envy_tension_example(args.n))
    else:  # gap
        n = args.n
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
    n = args.n or max(order.prefix + order.cycle)
    result = simulate.evaluate_order(order, n, args.m)
    return {
        "ratio": result.ratio,
        "per_agent": {
            str(agent): {
                "positions": ev.positions,
                "ratio": ev.ratio,
                "binding_valuation": ev.valuation,
            }
            for agent, ev in result.per_agent.items()
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
        ratios = {}
        for i in range(1, inst.n + 1):
            aps = shares.aps_oracle(inst.row(i), inst.entitlements[i - 1], force=args.force)
            held = out["bundle_costs"][str(i)]
            ratios[str(i)] = {"anyprice": aps, "ratio": held / aps if aps else None}
        out["anyprice_ratios"] = ratios
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
    return {
        "bound": report.bound,
        "max_adversarial": report.max_adversarial,
        "max_simulated": report.max_simulated,
        "trials": report.trials,
        "order": report.order,
        "ok": report.ok,
    }


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--order", required=True, help="n2|n3|n4|super8, digits[:cycle], or file.json")
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
        payload = args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InstanceError, ValueError, ridge.CoveringViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(payload)
    if args.command == "verify" and not payload["ok"]:
        return EXIT_GUARANTEE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
