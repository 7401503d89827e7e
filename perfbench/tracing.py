"""Span recording around hanoilab's public entry points, from outside the package.

``traced(recorder)`` replaces module attributes and ``HanoiSolver`` methods
with wrappers for the duration of a ``with`` block.  Calls inside the
package resolve through module globals and methods, so they hit the
wrappers too and spans nest without any change to hanoilab.  On exit every
attribute is put back and checked to be the original object.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

#: (module, attribute) pairs wrapped in a traced pass; a dotted attribute
#: names a method of a class in that module.
TRACED = (
    ("oracle", "bfs_distance"),
    ("oracle", "certify_range"),
    ("oracle", "graph_metrics"),
    ("moves", "generate_three_peg"),
    ("moves", "generate_frame_stewart"),
    ("moves", "validate_sequence"),
    ("moves", "trace_to_csv"),
    ("moves", "gray_trace"),
    ("moves", "verify_subtower_independence"),
    ("recurrences", "HanoiSolver.__init__"),
    ("recurrences", "HanoiSolver.cost"),
    ("recurrences", "HanoiSolver.argmin_splits"),
    ("recurrences", "HanoiSolver.solve"),
    ("tables", "emit_table"),
    ("tables", "verify_against_references"),
    ("cli", "main"),
)

SOLVER_QUERIES = frozenset(
    f"recurrences.HanoiSolver.{m}" for m in ("cost", "argmin_splits", "solve")
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # operation id within the pass
    value: int | None  # size of the work the call reports, when it has one
    fill: bool  # solver query that raised its session's highest disc count


def _size(name: str, result: object) -> int | None:
    if name == "oracle.bfs_distance":
        return result.states_explored
    if name == "oracle.graph_metrics":
        return result.vertices
    if name in ("moves.generate_three_peg", "moves.generate_frame_stewart"):
        return len(result.moves)
    if name in ("moves.trace_to_csv", "tables.emit_table"):
        return len(result)  # ASCII text: characters are bytes
    return None


class Recorder:
    """Keeps spans in memory; ``op`` tags the spans of the running operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._highest: dict[tuple[int, int], int] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_name = self._stack[-1] if self._stack else (-1, "")
            fill = False
            if name == "recurrences.HanoiSolver.__init__":
                session = id(args[0])
                self._highest = {k: v for k, v in self._highest.items() if k[0] != session}
            elif name in SOLVER_QUERIES and parent_name not in SOLVER_QUERIES:
                fill = self._raises_highest(args, kwargs)
            index = len(self.spans)
            self.spans.append(None)  # filled in when the call returns
            self._stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op, None, fill)
            size = _size(name, result)
            if size is not None:
                self.spans[index] = self.spans[index]._replace(value=size)
            return result

        return wrapper

    def _raises_highest(self, args: tuple, kwargs: dict) -> bool:
        """Whether an outermost solver query asks for more discs than the
        session has been asked for at that peg count (three pegs never fill)."""
        solver = args[0]
        pegs = args[1] if len(args) > 1 else kwargs["pegs"]
        discs = args[2] if len(args) > 2 else kwargs["discs"]
        if pegs < 4:
            return False
        key = (id(solver), pegs)
        if discs <= self._highest.get(key, 1):
            return False
        self._highest[key] = discs
        return True


def _targets(package):
    for module_name, attr in TRACED:
        owner = importlib.import_module(f"{package.__name__}.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield f"{module_name}.{attr}", owner, leaf


def originals(package) -> dict[str, object]:
    """The unwrapped object behind every traced name."""
    return {name: vars(owner)[leaf] for name, owner, leaf in _targets(package)}


@contextmanager
def traced(package, recorder: Recorder):
    """Wrap every TRACED entry point of ``package`` while the block runs."""
    saved = []
    try:
        for name, owner, leaf in _targets(package):
            original = vars(owner)[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
        for owner, leaf, original in saved:
            if vars(owner)[leaf] is not original:
                raise RuntimeError(f"{owner.__name__}.{leaf} was not restored")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], cli_stdout_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own = self_times(spans)
    total: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    sizes: dict[str, int] = {}
    solver_s = fill_s = 0.0
    solver_calls = fill_calls = 0
    for s, self_s in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + self_s
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.value is not None:
            sizes[s.name] = sizes.get(s.name, 0) + s.value
        if s.name in SOLVER_QUERIES and (s.parent < 0 or spans[s.parent].name not in SOLVER_QUERIES):
            solver_calls += 1
            solver_s += s.end - s.start
            if s.fill:
                fill_calls += 1
                fill_s += s.end - s.start

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    generate = ("moves.generate_three_peg", "moves.generate_frame_stewart")
    bfs_s = total.get("oracle.bfs_distance", 0.0)
    states = sizes.get("oracle.bfs_distance", 0)
    generate_s = sum(total.get(n, 0.0) for n in generate)
    generated = sum(sizes.get(n, 0) for n in generate)
    traces = sum(calls.get(n, 0) for n in generate)
    return {
        "oracle.bfs_s": bfs_s,
        "oracle.bfs_calls": calls.get("oracle.bfs_distance", 0),
        "oracle.states_explored": states,
        "oracle.states_per_s": ratio(states, bfs_s),
        "oracle.metrics_s": total.get("oracle.graph_metrics", 0.0),
        "oracle.metrics_vertices": sizes.get("oracle.graph_metrics", 0),
        "oracle.certify_self_s": total.get("oracle.certify_range", 0.0),
        "moves.generate_s": generate_s,
        "moves.moves_generated": generated,
        "moves.moves_per_s": ratio(generated, generate_s),
        "moves.replay_s": inclusive.get("moves.validate_sequence", 0.0),
        "moves.replays_per_trace": ratio(calls.get("moves.validate_sequence", 0), traces),
        "moves.invariants_s": total.get("moves.gray_trace", 0.0)
        + total.get("moves.verify_subtower_independence", 0.0),
        "moves.csv_s": total.get("moves.trace_to_csv", 0.0),
        "moves.csv_bytes": sizes.get("moves.trace_to_csv", 0),
        "recurrences.solver_s": solver_s,
        "recurrences.solver_calls": solver_calls,
        "recurrences.sessions": calls.get("recurrences.HanoiSolver.__init__", 0),
        "recurrences.fill_calls": fill_calls,
        "recurrences.fill_s": fill_s,
        "recurrences.memo_hit_ratio": 1.0 - fill_calls / solver_calls if solver_calls else 0.0,
        "tables.emit_s": total.get("tables.emit_table", 0.0),
        "tables.csv_bytes": sizes.get("tables.emit_table", 0),
        "tables.verify_refs_s": inclusive.get("tables.verify_against_references", 0.0),
        "cli.self_s": total.get("cli.main", 0.0),
        "cli.stdout_bytes": cli_stdout_bytes,
        "cli.commands": calls.get("cli.main", 0),
    }


def module_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per hanoilab module (the first part of a span name)."""
    out: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        module = s.name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_s
    return out
