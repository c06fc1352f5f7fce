"""Command-line surface.

Exit codes: 0 ok/stable, 1 unstable (witness printed), 2 inconclusive,
3 input error, 4 proven-bound violation or failed verification.
"""

import argparse
import json
import sys

from . import dynamics as dyn
from . import fixtures as fx
from . import harness, properties, serialize
from .errors import BoundViolation, LabInputError
from .optimum import brute_force_opt, social_optimum
from .scalars import format_rational
from .stability import CONCEPTS, INCONCLUSIVE, UNSTABLE, Budget, check, move_deltas

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_VIOLATION = 4


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise LabInputError(f"cannot read {what} {path}: {exc}") from exc


def _write_out(text, path=None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise LabInputError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _budget_from_args(args):
    budget = Budget(
        max_coalition=args.max_coalition,
        max_changes=args.max_changes,
        max_moves=args.max_moves,
    )
    return None if budget == Budget() else budget


def _add_budget_args(sub):
    sub.add_argument("--max-coalition", type=int, default=None)
    sub.add_argument("--max-changes", type=int, default=None)
    sub.add_argument("--max-moves", type=int, default=None)


def _load_instance(args):
    return serialize.instance_from_json(_read(args.instance, "instance"))


def cmd_check(args):
    inst = _load_instance(args)
    net = serialize.network_from_json(_read(args.network, "network"), inst.n)
    verdict = check(inst, net, args.concept, budget=_budget_from_args(args))
    if verdict.stable:
        print(f"stable: no improving {args.concept} move exists")
        return EXIT_OK
    if verdict.inconclusive:
        print(f"inconclusive: {verdict.frontier}")
        return EXIT_INCONCLUSIVE
    deltas = move_deltas(inst, net, verdict.witness)
    text = serialize.witness_to_json(verdict.witness, deltas)
    if args.witness_out:
        _write_out(text, args.witness_out)
    print("unstable: witness follows")
    sys.stdout.write(text)
    return EXIT_UNSTABLE


def cmd_opt(args):
    inst = _load_instance(args)
    if args.exact:
        result = brute_force_opt(inst)
    else:
        result = social_optimum(inst, seed=args.seed)
    _write_out(serialize.opt_to_json(result), args.out)
    return EXIT_OK


def cmd_gen(args):
    fixture = fx.generate(args.family, args.n, args.alpha, args.variant)
    _write_out(serialize.fixture_to_json(fixture), args.out)
    return EXIT_OK


def cmd_verify_fixture(args):
    fixture = serialize.fixture_from_json(_read(args.bundle, "fixture bundle"))
    report = fx.verify_fixture(fixture, budget=_budget_from_args(args))
    print(report.render())
    if report.ok:
        return EXIT_OK
    if report.stability == UNSTABLE:
        return EXIT_UNSTABLE
    failed = sum(not c.passed for c in report.checks)
    if report.stability == INCONCLUSIVE and failed == 1:
        return EXIT_INCONCLUSIVE  # the stability check is the only failure
    return EXIT_VIOLATION


def cmd_dynamics(args):
    inst = _load_instance(args)
    if args.start:
        start = serialize.network_from_json(_read(args.start, "network"), inst.n)
    else:
        from .model import Network

        start = Network.empty(inst.n)
    trace = dyn.run_dynamics(
        inst,
        start,
        args.concept,
        policy=args.policy,
        max_steps=args.max_steps,
        budget=_budget_from_args(args),
    )
    _write_out(serialize.trace_to_json(trace), args.out)
    print(f"outcome: {trace.outcome} after {len(trace.steps)} steps")
    return EXIT_OK


def cmd_poa(args):
    inst = _load_instance(args)
    point = harness.poa_point(
        inst, args.concept, budget=_budget_from_args(args), label=args.instance
    )
    print(
        f"concept={point.concept} worst={format_rational(point.worst_cost) if point.worst_cost is not None else 'none-found'} "
        f"opt={format_rational(point.opt_cost)} proven={point.opt_proven} "
        f"ratio={format_rational(point.ratio) if point.ratio is not None else '-'} "
        f"complete={point.complete}"
    )
    return EXIT_OK


def cmd_sweep(args):
    cfg = serialize.sweep_config_from_json(_read(args.config, "sweep config"))
    report = harness.poa_sweep(cfg)
    if args.out:
        _write_out(report.render_jsonl(), args.out)
    print(report.render())
    return EXIT_OK


def cmd_props(args):
    report = properties.property_suite(seed=args.seed)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncglab",
        description="laboratory for bilateral network creation games "
        "(exact rational arithmetic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide stability of a network")
    p.add_argument("instance")
    p.add_argument("network")
    p.add_argument("--concept", choices=CONCEPTS, required=True)
    p.add_argument("--witness-out", default=None)
    _add_budget_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("opt", help="social optimum (exact when small enough)")
    p.add_argument("instance")
    p.add_argument("--exact", action="store_true", help="require proven optimum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("gen", help="generate a lower-bound fixture bundle")
    p.add_argument("family", choices=fx.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)  # a string: generate parses it and names the rule
    p.add_argument("--variant", choices=CONCEPTS, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify-fixture", help="re-verify a fixture bundle's claims")
    p.add_argument("bundle")
    _add_budget_args(p)
    p.set_defaults(func=cmd_verify_fixture)

    p = sub.add_parser("dynamics", help="run improving-response dynamics")
    p.add_argument("instance")
    p.add_argument("--from", dest="start", default=None, help="starting network file")
    p.add_argument("--concept", choices=CONCEPTS, required=True)
    p.add_argument(
        "--policy", choices=dyn.POLICIES, default=dyn.FIRST_FOUND
    )
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_budget_args(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("poa", help="price-of-anarchy point for one instance")
    p.add_argument("instance")
    p.add_argument("--concept", choices=CONCEPTS, required=True)
    _add_budget_args(p)
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("sweep", help="run a sweep config and check bounds")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="machine-readable JSONL output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("props", help="seeded randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_props)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BoundViolation as exc:
        print(f"BOUND VIOLATION: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True, default=str), file=sys.stderr)
        return EXIT_VIOLATION
    except LabInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
