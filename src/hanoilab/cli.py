"""Command-line front end.

Data goes to stdout, diagnostics to stderr, so output can be piped into
golden-file comparisons.  Exit codes: 0 success, 1 bad arguments,
2 verification mismatch, 3 resource budget exceeded or a size past what
the machine can hold; every non-zero exit says why on a ``hanoilab:``
line.  The two budgets
can also be set via HANOILAB_MAX_DISCS and HANOILAB_STATE_BUDGET; the
state budget also bounds moves traces (L moves count as L + 1 states).
For moves it bounds time only: the trace is written and checked chunk by
chunk as it is generated, so memory is O(n * q**2), q = min(p, n + 2),
plus one slot per peg for the replay's stacks, plus one chunk, plus the
generator's memo of short sub-solves, plus, in the check and the
CSV, one pointer per move of each long sub-solve, two copies of the
replay's stacks until its second sighting, then its before- and
after-runs and, on four pegs, the groups under them at each play after
the largest disc's move (see :mod:`hanoilab.moves`).

Each handler imports the modules it runs, so a command loads, besides
``errors`` and ``recurrences``: ``solve`` nothing more, ``table``
``tables``, ``moves`` ``moves``, ``oracle`` ``oracle``, and
``verify-all`` ``oracle`` and ``tables``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn, Sequence

from .errors import (
    DEFAULT_STATE_BUDGET,
    DiscLimitError,
    DomainError,
    HanoiError,
    IllegalMove,
    ResourceBudgetError,
    StateBudgetExceeded,
    render_count,
    render_exact,
)
from .recurrences import DEFAULT_MAX_DISCS, HanoiSolver

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from exc


def _err(message: str) -> None:
    print(f"hanoilab: {message}", file=sys.stderr)


def _parse_strategy(text: str):
    if text in ("optimal", "balanced"):
        return text
    if text.startswith("fixed:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise DomainError(f"strategy must be optimal, balanced or fixed:K, got {text!r}")


def _parse_pegs_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"peg list must be comma-separated integers, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end, like every other
    diagnostic, in a ``hanoilab:`` line: ``hanoilab: error: ...`` for the
    command and ``hanoilab: moves: error: ...`` for a subcommand."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog.replace(' ', ': ', 1)}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-discs",
        type=int,
        default=None,
        help=f"solver disc ceiling (default {DEFAULT_MAX_DISCS})",
    )
    common.add_argument(
        "--state-budget",
        type=int,
        default=None,
        help=f"state-space ceiling for the oracle and moves (default {DEFAULT_STATE_BUDGET})",
    )

    parser = _Parser(
        prog="hanoilab",
        description="Multi-peg Tower of Hanoi: solve, tabulate, generate, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve",
        parents=[common],
        help="recurrence cost and splits (optimal for 3-4 pegs, Frame-Stewart value beyond)",
    )
    p.add_argument("--pegs", type=int, required=True)
    p.add_argument("--discs", type=int, required=True)
    p.add_argument("--all-splits", action="store_true", help="print every optimal split")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table", parents=[common], help="emit a CSV table")
    p.add_argument(
        "--kind",
        choices=("table1", "growth", "ratios", "deltas"),
        required=True,
    )
    p.add_argument("--from", dest="start", type=int, default=None)
    p.add_argument("--to", dest="stop", type=int, default=None)
    p.add_argument("--pegs", type=str, default="3,4,5", help="comma list for growth")
    p.add_argument("--output", type=str, default=None, help="write CSV to this file")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("moves", parents=[common], help="emit an explicit move trace")
    p.add_argument("--pegs", type=int, required=True)
    p.add_argument("--discs", type=int, required=True)
    p.add_argument("--strategy", type=str, default="optimal")
    p.add_argument(
        "--verify",
        action="store_true",
        help="replay the trace and run the length/invariant checks",
    )
    p.set_defaults(handler=_cmd_moves)

    p = sub.add_parser("oracle", parents=[common], help="BFS certification sweep")
    p.add_argument("--pegs", type=int, required=True)
    p.add_argument("--max", dest="max_discs_swept", type=int, required=True)
    p.add_argument(
        "--metrics",
        action="store_true",
        help="include geodesic and explored-state columns",
    )
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser(
        "verify-all", parents=[common], help="reference regression plus oracle sweeps"
    )
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def _solver_for(args: argparse.Namespace) -> HanoiSolver:
    limit = args.max_discs
    if limit is None:
        limit = _env_int("HANOILAB_MAX_DISCS", DEFAULT_MAX_DISCS)
    return HanoiSolver(max_discs=limit)


def _budget_for(args: argparse.Namespace) -> int:
    budget = args.state_budget
    if budget is None:
        budget = _env_int("HANOILAB_STATE_BUDGET", DEFAULT_STATE_BUDGET)
    return budget


def _cmd_solve(args: argparse.Namespace) -> int:
    result = _solver_for(args).solve(args.pegs, args.discs)
    print(f"pegs: {result.pegs}")
    print(f"discs: {result.discs}")
    print(f"cost: {render_exact(result.cost)}")
    if result.canonical_split is not None:
        print(f"canonical_split: {result.canonical_split}")
        if args.all_splits:
            print("splits: " + ",".join(str(k) for k in result.argmin_splits))
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    from . import tables as tbl

    n_range = None
    if (args.start is None) != (args.stop is None):
        raise DomainError("--from and --to must be given together")
    if args.start is not None:
        n_range = (args.start, args.stop)
    text = tbl.emit_table(
        args.kind,
        n_range=n_range,
        pegs=_parse_pegs_list(args.pegs),
        solver=_solver_for(args),
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_moves(args: argparse.Namespace) -> int:
    from . import moves as mv

    strategy = _parse_strategy(args.strategy)
    solver = _solver_for(args)
    if args.discs > solver.max_discs:
        # trace_length never asks the solver for n under a fixed split
        raise DiscLimitError(args.discs, solver.max_discs)
    length = mv.trace_length(args.pegs, args.discs, strategy, solver)
    budget = _budget_for(args)
    if length + 1 > budget:  # L moves pass through L + 1 states
        raise StateBudgetExceeded(length + 1, budget)
    chunks = mv.trace_chunks(args.pegs, args.discs, strategy, solver)
    check = mv.TraceCheck(mv.Configuration.perfect(args.discs, args.pegs), strategy, solver)
    csv = mv.TraceCsv()
    write = sys.stdout.write
    write(csv.HEADER)
    for chunk in chunks:
        write(csv.rows(chunk))
        if args.verify:
            check.feed(chunk)
    if not args.verify:
        return EXIT_OK
    failures = check.failures()
    for failure in failures:
        _err(f"verify: {failure}")
    if failures:
        return EXIT_MISMATCH
    _err(f"verify: ok ({check.moves} moves)")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle as orc

    solver = _solver_for(args)
    budget = _budget_for(args)
    if args.metrics:  # the tower search, plus one search for the full balls of radius D on p >= 4
        sweep = orc.certify_range(args.pegs, args.max_discs_swept, budget, solver)
    else:  # the tower search alone, which counts the half-depth ball only
        sweep = orc._tower_sweep(args.pegs, args.max_discs_swept, budget, solver)
    header = "n,distance,dp_cost,agree"
    if args.metrics:
        header += ",geodesics,states_explored"
    print(header)
    for report in sweep.reports:
        row = (
            f"{report.discs},{report.distance},{report.dp_cost},"
            f"{'true' if report.agrees else 'false'}"
        )
        if args.metrics:
            row += f",{report.geodesic_count},{report.states_explored}"
        print(row)
    for skip in sweep.skipped:
        _err(
            f"skipped n={skip.discs}: needs {render_count(skip.required)} states, "
            f"budget is {skip.budget}"
        )
    if not sweep.all_agree:
        return EXIT_MISMATCH
    if sweep.skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from . import oracle as orc
    from . import tables as tbl

    solver = _solver_for(args)
    budget = _budget_for(args)
    mismatches = 0

    report = tbl.verify_against_references(solver=solver)
    print(f"references: {len(report.entries)} checked, {len(report.mismatches)} mismatches")
    for entry in report.mismatches:
        print(f"  {entry.name}: expected {entry.expected}, got {entry.computed}")
    mismatches += len(report.mismatches)

    for pegs in (3, 4):
        sweep = orc._tower_sweep(pegs, 10, budget, solver)
        bad = [r for r in sweep.reports if not r.agrees]
        print(
            f"oracle p={pegs}: {len(sweep.reports)} certified, "
            f"{len(bad)} disagreements, {len(sweep.skipped)} skipped"
        )
        for r in bad:
            print(f"  n={r.discs}: bfs {r.distance} != dp {r.dp_cost}")
        for skip in sweep.skipped:
            _err(
                f"oracle p={pegs}: skipped n={skip.discs} "
                f"(needs {skip.required} states, budget {skip.budget})"
            )
        mismatches += len(bad)

    print("FAIL" if mismatches else "PASS")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the domain code
        return EXIT_OK if exc.code == 0 else EXIT_DOMAIN
    try:
        return args.handler(args)
    except DomainError as exc:
        _err(str(exc))
        return EXIT_DOMAIN
    except ResourceBudgetError as exc:
        _err(str(exc))
        return EXIT_BUDGET
    except IllegalMove as exc:
        _err(str(exc))
        return EXIT_MISMATCH
    except HanoiError as exc:
        _err(str(exc))
        return EXIT_DOMAIN
    except OSError as exc:
        _err(f"output error: {exc}")
        return EXIT_DOMAIN
    except OverflowError as exc:  # a size no list on this platform can have, such as 2**63 pegs
        _err(f"size too large: {exc}")
        return EXIT_BUDGET
    except MemoryError:  # a size the budgets admit but this machine cannot hold
        _err("out of memory")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
