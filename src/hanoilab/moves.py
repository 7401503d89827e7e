"""Explicit move sequences: generation, replay validation, invariants.

Pegs are 0-based indices rendered as labels A, B, C, D, P5, P6, ...;
discs are 1-based ranks with 1 the smallest.  A configuration stores one
peg per disc -- stacking order on a peg is forced by rank, so the
mapping alone determines every stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    LARGER_ON_SMALLER,
    NOT_TOP_DISC,
    WRONG_SOURCE_PEG,
    DomainError,
    IllegalMove,
)
from .recurrences import HanoiSolver, _resolve

_LETTERS = "ABCD"


def peg_label(index: int) -> str:
    """Display label for a peg index: A, B, C, D, then P5, P6, ..."""
    if index < 0:
        raise DomainError(f"peg index must be non-negative, got {index}")
    return _LETTERS[index] if index < 4 else f"P{index + 1}"


@dataclass(frozen=True, slots=True)
class Move:
    """One disc transfer; source and target must differ."""

    disc: int
    source: int
    target: int

    def __post_init__(self) -> None:
        if self.disc < 1:
            raise DomainError(f"disc rank must be at least 1, got {self.disc}")
        if self.source == self.target:
            raise DomainError(f"move of disc {self.disc} has source == target")
        if self.source < 0 or self.target < 0:
            raise DomainError("peg indices must be non-negative")


@dataclass(frozen=True, slots=True)
class Configuration:
    """Legal assignment of every disc to a peg.

    ``pegs[i]`` is the peg of disc i+1.  Any assignment is legal because
    stack order is rank-forced (smaller always above larger).
    """

    num_pegs: int
    pegs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_pegs < 1:
            raise DomainError(f"need at least one peg, got {self.num_pegs}")
        for disc0, peg in enumerate(self.pegs):
            if not 0 <= peg < self.num_pegs:
                raise DomainError(f"disc {disc0 + 1} sits on invalid peg {peg}")

    @classmethod
    def perfect(cls, num_discs: int, num_pegs: int, peg: int = 0) -> "Configuration":
        """All discs stacked on one peg."""
        if num_discs < 0:
            raise DomainError(f"disc count must be non-negative, got {num_discs}")
        if not 0 <= peg < num_pegs:
            raise DomainError(f"peg {peg} out of range for {num_pegs} pegs")
        return cls(num_pegs, (peg,) * num_discs)

    @property
    def num_discs(self) -> int:
        return len(self.pegs)

    def peg_of(self, disc: int) -> int:
        return self.pegs[disc - 1]

    def top(self, peg: int) -> int | None:
        """Smallest (topmost) disc on a peg, or None when empty."""
        for disc0, q in enumerate(self.pegs):
            if q == peg:
                return disc0 + 1
        return None

    def stacks(self) -> list[list[int]]:
        """Per-peg disc lists, bottom (largest) first."""
        out: list[list[int]] = [[] for _ in range(self.num_pegs)]
        for disc in range(self.num_discs, 0, -1):
            out[self.pegs[disc - 1]].append(disc)
        return out

    def apply(self, move: Move) -> "Configuration":
        """Configuration after the move.  No legality check is done here;
        use :func:`validate_sequence` to replay with rule enforcement."""
        pegs = list(self.pegs)
        pegs[move.disc - 1] = move.target
        return Configuration(self.num_pegs, tuple(pegs))


@dataclass(frozen=True, slots=True)
class MoveTrace:
    """An initial configuration plus an ordered move list.

    Snapshots are recomputed on demand rather than stored.
    """

    initial: Configuration
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.moves)

    def configurations(self) -> Iterator[Configuration]:
        """Lazy per-step snapshots, starting with the initial state."""
        current = self.initial
        yield current
        for move in self.moves:
            current = current.apply(move)
            yield current

    def final(self) -> Configuration:
        current = self.initial
        for move in self.moves:
            current = current.apply(move)
        return current


def trace_to_csv(trace: MoveTrace) -> str:
    """Trace export: ``step,disc,from_label,to_label`` with 1-based steps."""
    lines = ["step,disc,from,to"]
    for step, move in enumerate(trace.moves, 1):
        lines.append(
            f"{step},{move.disc},{peg_label(move.source)},{peg_label(move.target)}"
        )
    return "\n".join(lines) + "\n"


def _emit_three(count: int, lowest: int, src: int, dst: int, spare: int, out: list[Move]) -> None:
    if count == 0:
        return
    _emit_three(count - 1, lowest, src, spare, dst, out)
    out.append(Move(lowest + count - 1, src, dst))
    _emit_three(count - 1, lowest, spare, dst, src, out)


def generate_three_peg(discs: int, source: int = 0, target: int = 2) -> MoveTrace:
    """Optimal three-peg trace (move n-1 aside, move largest, rebuild).

    Length is exactly 2**n - 1.
    """
    if discs < 0:
        raise DomainError(f"disc count must be non-negative, got {discs}")
    for peg in (source, target):
        if not 0 <= peg < 3:
            raise DomainError(f"peg {peg} out of range for 3 pegs")
    if source == target:
        raise DomainError("source and target pegs must differ")
    spare = 3 - source - target
    out: list[Move] = []
    _emit_three(discs, 1, source, target, spare, out)
    return MoveTrace(Configuration.perfect(discs, 3, source), tuple(out))


def _emit_multi(
    count: int,
    lowest: int,
    src: int,
    dst: int,
    pegs: tuple[int, ...],
    out: list[Move],
    solver: HanoiSolver,
    override: int | None = None,
) -> None:
    if count == 0:
        return
    if count == 1:
        out.append(Move(lowest, src, dst))
        return
    if len(pegs) == 3:
        spare = next(q for q in pegs if q != src and q != dst)
        _emit_three(count, lowest, src, dst, spare, out)
        return
    if override is None:
        k = solver.solve(len(pegs), count).canonical_split
    else:
        k = override
    # Park the k smallest on the lowest-index spare peg, shuttle the rest
    # with that peg frozen, then unpark.  Discs below the active block are
    # always larger, so they never constrain these sub-solves.
    staging = min(q for q in pegs if q != src and q != dst)
    shuttle_pegs = tuple(q for q in pegs if q != staging)
    _emit_multi(k, lowest, src, staging, pegs, out, solver)
    _emit_multi(count - k, lowest + k, src, dst, shuttle_pegs, out, solver)
    _emit_multi(k, lowest, staging, dst, pegs, out, solver)


def _top_split(pegs: int, discs: int, strategy: str | int) -> int | None:
    """Top-level parked-disc count a strategy forces; None keeps the optimum."""
    if discs < 0:
        raise DomainError(f"disc count must be non-negative, got {discs}")
    if pegs == 3 and strategy != "optimal":
        raise DomainError("three-peg traces only support the optimal strategy")
    if strategy == "optimal":
        return None
    if strategy == "balanced":
        return discs // 2 if discs >= 2 else None
    if isinstance(strategy, int) and not isinstance(strategy, bool):
        if not 1 <= strategy < discs:
            raise DomainError(
                f"fixed split must satisfy 1 <= k < n, got k={strategy} for n={discs}"
            )
        return strategy
    raise DomainError(f"unknown strategy {strategy!r}")


def generate_frame_stewart(
    pegs: int,
    discs: int,
    strategy: str | int = "optimal",
    solver: HanoiSolver | None = None,
    source: int = 0,
    target: int | None = None,
) -> MoveTrace:
    """Park / shuttle / rebuild trace for four or more pegs.

    ``strategy`` selects the top-level split: ``"optimal"`` uses the
    canonical optimal split at every level, ``"balanced"`` forces
    floor(n/2) and an integer k forces k, at the top level only (the
    sub-solves stay optimal; :func:`trace_length` gives the length).
    """
    if pegs < 4:
        raise DomainError(f"need at least 4 pegs, got {pegs}")
    override = _top_split(pegs, discs, strategy)
    if target is None:
        target = pegs - 1
    for peg in (source, target):
        if not 0 <= peg < pegs:
            raise DomainError(f"peg {peg} out of range for {pegs} pegs")
    if source == target:
        raise DomainError("source and target pegs must differ")

    out: list[Move] = []
    _emit_multi(
        discs, 1, source, target, tuple(range(pegs)), out, _resolve(solver), override
    )
    return MoveTrace(Configuration.perfect(discs, pegs, source), tuple(out))


def trace_length(
    pegs: int, discs: int, strategy: str | int = "optimal", solver: HanoiSolver | None = None
) -> int:
    """Exact length of the generated trace, computed without building it:
    T_p(n), or 2*T_p(k) + T_{p-1}(n-k) when the strategy forces top split k."""
    s = _resolve(solver)
    k = _top_split(pegs, discs, strategy)
    if k is None:
        return s.cost(pegs, discs)
    return 2 * s.cost(pegs, k) + s.cost(pegs - 1, discs - k)


def validate_sequence(initial: Configuration, moves: Sequence[Move]) -> Configuration:
    """Replay moves under the rules and return the final configuration.

    Every move must lift the top disc of its source peg onto a peg whose
    top disc (if any) is larger; otherwise :class:`IllegalMove` reports
    the 1-based step and the reason.
    """
    n = initial.num_discs
    where = list(initial.pegs)
    stacks = initial.stacks()
    for step, move in enumerate(moves, 1):
        if not 1 <= move.disc <= n:
            raise DomainError(f"move {step} references unknown disc {move.disc}")
        if move.source >= initial.num_pegs or move.target >= initial.num_pegs:
            raise DomainError(f"move {step} references a peg outside the board")
        actual = where[move.disc - 1]
        if actual != move.source:
            raise IllegalMove(
                step,
                WRONG_SOURCE_PEG,
                f"disc {move.disc} is on {peg_label(actual)}, "
                f"not {peg_label(move.source)}",
            )
        if stacks[move.source][-1] != move.disc:
            raise IllegalMove(
                step,
                NOT_TOP_DISC,
                f"disc {move.disc} is buried on {peg_label(move.source)}",
            )
        dest = stacks[move.target]
        if dest and dest[-1] < move.disc:
            raise IllegalMove(
                step,
                LARGER_ON_SMALLER,
                f"disc {move.disc} onto smaller disc {dest[-1]}",
            )
        stacks[move.source].pop()
        dest.append(move.disc)
        where[move.disc - 1] = move.target
    return Configuration(initial.num_pegs, tuple(where))


def disc_move_counts(trace: MoveTrace) -> tuple[int, ...]:
    """How often each disc moves; entry j-1 counts disc j.

    The trace is replayed first, so illegal traces raise.
    """
    validate_sequence(trace.initial, trace.moves)
    counts = [0] * trace.initial.num_discs
    for move in trace.moves:
        counts[move.disc - 1] += 1
    return tuple(counts)


@dataclass(frozen=True, slots=True)
class GrayReport:
    """Parity encoding of a three-peg trace.

    ``vectors[t]`` is a bitmask whose bit i-1 holds the move-count parity
    of disc i after t steps; ``flips[t-1]`` is the disc moved at step t.
    ``ruler_pattern`` records whether the flip at step t is always
    1 + (trailing zeros of t), the signature of the optimal solution.
    """

    vectors: tuple[int, ...]
    flips: tuple[int, ...]
    single_flip: bool
    ruler_pattern: bool


def _follows_ruler(moves: Sequence[Move]) -> bool:
    """Whether the disc moved at step t is always 1 + (trailing zeros of t)."""
    return all(
        move.disc == (step & -step).bit_length() for step, move in enumerate(moves, 1)
    )


def gray_trace(trace: MoveTrace) -> GrayReport:
    """Parity vectors and flip sequence of a three-peg trace."""
    if trace.initial.num_pegs != 3:
        raise DomainError(
            f"gray encoding is defined for 3-peg traces, got {trace.initial.num_pegs} pegs"
        )
    validate_sequence(trace.initial, trace.moves)
    vec = 0
    vectors = [0]
    flips: list[int] = []
    for move in trace.moves:
        vec ^= 1 << (move.disc - 1)
        vectors.append(vec)
        flips.append(move.disc)
    single = all(
        (a ^ b).bit_count() == 1 for a, b in zip(vectors, vectors[1:])
    )
    ruler = _follows_ruler(trace.moves)
    return GrayReport(tuple(vectors), tuple(flips), single, ruler)


def moment_trace(trace: MoveTrace, order: int) -> list[int]:
    """Weighted peg-index sums M_r(t) = sum(i**r * peg_i) after each step.

    Each move changes the sum by disc**r times the peg-index displacement.
    """
    if order < 1:
        raise DomainError(f"moment order must be at least 1, got {order}")
    validate_sequence(trace.initial, trace.moves)
    value = sum(
        (disc0 + 1) ** order * peg for disc0, peg in enumerate(trace.initial.pegs)
    )
    out = [value]
    for move in trace.moves:
        value += move.disc**order * (move.target - move.source)
        out.append(value)
    return out


@dataclass(frozen=True, slots=True)
class SubtowerReport:
    """What the trace does around its largest disc's single move.

    ``subtowers`` holds (home peg, discs) for every peg that is neither
    the largest disc's source nor its target at the critical moment; for
    three pegs the second subtower is the degenerate empty one.
    ``disjoint_outside_sink`` says the disc groups never share a peg
    other than the common target pile (the sink); ``independent`` says
    no move lands off the sink on a peg held by another group.  The two
    are equal on every legal trace: right after the critical move each
    spare peg holds one group, and only a landing move can add a second.
    """

    largest_disc: int
    largest_move_count: int
    single_largest_move: bool
    sink_peg: int | None
    subtowers: tuple[tuple[int, frozenset[int]], ...]
    blocks_avoid_largest: bool
    disjoint_outside_sink: bool
    independent: bool


def verify_subtower_independence(trace: MoveTrace) -> SubtowerReport:
    """Check the two-independent-subtowers structure of a trace.

    The report never raises on a structural miss: a largest disc that
    moves more (or less) than once is reported via
    ``largest_move_count`` with ``independent`` False.
    """
    if trace.initial.num_discs < 1:
        raise DomainError("trace has no discs")
    validate_sequence(trace.initial, trace.moves)
    return _subtowers(trace)


def _subtowers(trace: MoveTrace) -> SubtowerReport:
    """Subtower report of a trace with discs that has already been replayed."""
    cfg = trace.initial
    n = cfg.num_discs
    hits = [i for i, move in enumerate(trace.moves) if move.disc == n]
    if len(hits) != 1:
        return SubtowerReport(n, len(hits), False, None, (), False, False, False)
    split_at = hits[0]

    where = list(cfg.pegs)
    for move in trace.moves[:split_at]:
        where[move.disc - 1] = move.target
    critical = trace.moves[split_at]
    sink = critical.target
    # At this moment the source peg holds only the largest disc and the
    # target peg is empty, so every other disc sits on a spare peg, and
    # its group is named after that peg.
    group_of = where[: n - 1]
    subtowers = tuple(
        (q, frozenset(d for d, home in enumerate(group_of, 1) if home == q))
        for q in range(cfg.num_pegs)
        if q != critical.source and q != sink
    )
    held = [group_of.count(q) for q in range(cfg.num_pegs)]
    owner = [q if held[q] else None for q in range(cfg.num_pegs)]
    independent = True
    for move in trace.moves[split_at + 1 :]:
        g = group_of[move.disc - 1]
        if move.target != sink and owner[move.target] not in (None, g):
            independent = False
            break
        held[move.source] -= 1
        if not held[move.source]:
            owner[move.source] = None
        held[move.target] += 1
        owner[move.target] = g
    return SubtowerReport(n, 1, True, sink, subtowers, True, independent, independent)


def verify_trace(
    trace: MoveTrace, strategy: str | int = "optimal", solver: HanoiSolver | None = None
) -> tuple[str, ...]:
    """Failure messages of the replay, length, ruler (three pegs) and
    subtower (four pegs) checks; an empty tuple means the trace passed."""
    pegs, discs = trace.initial.num_pegs, trace.initial.num_discs
    failures: list[str] = []
    try:
        final = validate_sequence(trace.initial, trace.moves)
        if discs and final.pegs != (pegs - 1,) * discs:
            failures.append("replay does not end all-on-target")
    except IllegalMove as exc:
        failures.append(f"replay failed: {exc}")
        final = None
    predicted = trace_length(pegs, discs, strategy, solver)
    if len(trace) != predicted:
        failures.append(f"length {len(trace)} differs from predicted {predicted}")
    if final is not None and pegs == 3 and not _follows_ruler(trace.moves):
        failures.append("flip sequence does not follow the ruler pattern")
    if final is not None and pegs == 4 and discs >= 1:
        report = _subtowers(trace)
        if not report.single_largest_move:
            failures.append(
                f"largest disc moved {report.largest_move_count} times, expected once"
            )
        elif not report.independent:
            failures.append("subtowers interfere after the largest-disc move")
    return tuple(failures)
