"""Command line front end.

Exit codes: 0 success, 1 a ratio past its proven bound, 2 infeasible,
3 a refusal (an oracle budget or an enumeration guard exceeded: the
question is valid but too large to answer exactly), 64 bad usage, 65
unreadable or invalid input, 70 an internal error of the solver stack.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    FlexconnError,
    GuardExceededError,
    InfeasibleInstanceError,
    InvalidQueryError,
    OracleRefusalError,
    ParseError,
    UnknownEdgeError,
    UnsupportedInstanceError,
    ValidationError,
    WrongRegimeError,
)
from .generators import GEN_KINDS, gen_instance
from .instance_io import (
    KINDS,
    InstanceDoc,
    SolutionDoc,
    canonical_int,
    read_instance,
    read_solution,
    render_instance,
    render_solution,
)
from .oracle import REPORT_KINDS, OracleBudget, exact_opt, ratio_report

EX_OK = 0
EX_RATIO = 1
EX_INFEASIBLE = 2
EX_REFUSED = 3
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70

_DATA_ERRORS = (
    ParseError,
    ValidationError,
    UnknownEdgeError,
    InvalidQueryError,
    UnsupportedInstanceError,
    WrongRegimeError,
)

class _Parser(argparse.ArgumentParser):
    """Usage problems exit with 64 instead of argparse's default 2, which is
    taken by infeasibility."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _at_least(convert, low):
    """An argparse type: `convert(text)` of at least `low`, so a bad value
    (NaN too) exits 64."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not value >= low:
            raise argparse.ArgumentTypeError(
                f"expected {convert.__name__} >= {low}, got {text!r}"
            )
        return value

    return parse


def _parse_edges(spec: str) -> frozenset[int]:
    spec = spec.strip()
    if not spec:
        return frozenset()
    try:
        return frozenset(canonical_int(token.strip()) for token in spec.split(","))
    except ValueError:
        raise ValidationError(f"bad edge list {spec!r}, expected ids like 0,2,5")


def _emit_solution(args, doc: SolutionDoc) -> None:
    text = render_solution(doc)
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        print(text, end="")


def cmd_solve(args) -> int:
    doc = read_instance(args.instance)
    result = KINDS[doc.kind].solve(doc.instance, args.stage_one)
    _emit_solution(args, SolutionDoc(doc.kind, result.cost, tuple(result.edges)))
    return EX_OK


def cmd_verify(args) -> int:
    doc = read_instance(args.instance)
    if args.solution is not None:
        sol = read_solution(args.solution)
        if sol.kind != doc.kind:
            raise ValidationError(
                f"solution kind {sol.kind!r} does not match instance kind {doc.kind!r}"
            )
        edges = frozenset(sol.edges)
        actual = doc.instance.graph.cost(edges)
        if actual != sol.cost:
            raise ValidationError(
                f"solution says cost {sol.cost} but the edges cost {actual}"
            )
    else:
        edges = _parse_edges(args.edges)
    kind = KINDS[doc.kind]
    verdict = kind.verify(doc.instance, edges, args.mode)
    if verdict.ok:
        print("feasible")
        return EX_OK
    print("infeasible")
    print(kind.witness(verdict.violation))
    return EX_INFEASIBLE


def cmd_oracle(args) -> int:
    doc = read_instance(args.instance)
    budget = OracleBudget(
        max_checks=args.max_checks,
        time_limit=args.time_limit,
        strategy=args.strategy,
    )
    result = exact_opt(doc.instance, budget=budget)
    if not result.feasible:
        print("infeasible")
        return EX_INFEASIBLE
    _emit_solution(args, SolutionDoc(doc.kind, result.cost, tuple(result.edges)))
    return EX_OK


def cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        instance = gen_instance(args.kind, seed)
        doc = InstanceDoc(instance)
        path = out_dir / f"{args.kind}-{seed}.instance"
        path.write_text(render_instance(doc))
        print(path)
    return EX_OK


def cmd_ratio_report(args) -> int:
    instances = [
        (f"{args.kind}-{args.seed + i}", gen_instance(args.kind, args.seed + i))
        for i in range(args.count)
    ]
    budget = OracleBudget(max_checks=args.max_checks, strategy=args.strategy)
    report = ratio_report(
        args.kind, instances, budget=budget, stage_one=args.stage_one
    )
    print(report.render(), end="")
    if report.all_within():
        return EX_OK
    # a bound past its proof is a finding; keep the evidence reproducible
    by_name = dict(instances)
    for entry in report.entries:
        if not entry.within:
            print(f"counterexample {entry.name}:", file=sys.stderr)
            sys.stderr.write(render_instance(InstanceDoc(by_name[entry.name])))
    return EX_RATIO


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flexconn",
        description="Solvers, verifiers, and exact oracles for flexible "
        "network connectivity design.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance", help="instance file")
    solve.add_argument("--output", help="write the solution here instead of stdout")
    solve.add_argument(
        "--stage-one",
        choices=("approx", "exact"),
        default="approx",
        help="tree stage for fst instances",
    )
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a solution against an instance")
    verify.add_argument("instance", help="instance file")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--solution", help="solution file")
    which.add_argument("--edges", help="comma-separated edge ids, empty for none")
    verify.add_argument(
        "--mode",
        choices=("qconn", "enumeration", "both"),
        default="both",
        help="feasibility route for ncfgc instances",
    )
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="find a true optimum by search")
    oracle.add_argument("instance", help="instance file")
    oracle.add_argument("--output", help="write the solution here instead of stdout")
    oracle.add_argument("--strategy", choices=("bnb", "enumerate"), default="bnb")
    oracle.add_argument("--max-checks", type=_at_least(int, 1), default=1_000_000)
    oracle.add_argument("--time-limit", type=_at_least(float, 0), default=None)
    oracle.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="write seeded random instance files")
    gen.add_argument("kind", choices=GEN_KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=_at_least(int, 0), default=1)
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=cmd_gen)

    report = sub.add_parser(
        "ratio-report",
        help="solve seeded instances and compare against oracle optima",
    )
    report.add_argument("kind", choices=REPORT_KINDS)
    report.add_argument("--count", type=_at_least(int, 0), default=20)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--strategy", choices=("bnb", "enumerate"), default="bnb")
    report.add_argument("--max-checks", type=_at_least(int, 1), default=1_000_000)
    report.add_argument(
        "--stage-one",
        choices=("approx", "exact"),
        default="approx",
        help="tree stage for fst instances",
    )
    report.set_defaults(func=cmd_ratio_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}")
        return EX_INFEASIBLE
    except (OracleRefusalError, GuardExceededError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EX_REFUSED
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except FlexconnError as exc:
        # Every other library error is a failure inside the solver stack.
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except Exception as exc:
        # A crash is no finding: exit 1 is a ratio past its bound.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
