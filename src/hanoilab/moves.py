"""Explicit move sequences: generation, replay validation, invariants.

Pegs are 0-based indices rendered as labels A, B, C, D, P5, P6, ...;
discs are 1-based ranks with 1 the smallest.  A configuration stores one
peg per disc -- stacking order on a peg is forced by rank, so the
mapping alone determines every stack.

Traces stream.  :func:`trace_chunks` yields a trace as chunks of at
most :data:`CHUNK_MOVES` ``(disc, source, target)`` tuples: lists, and
each kept block of at least half a chunk as a chunk of its own, the same
immutable object wherever it recurs.  :class:`TraceCsv` renders those
chunks as CSV and :class:`TraceCheck` replays and checks them in one
pass, so a trace of any length needs memory for one chunk plus
O(n * q**2), q = min(p, n + 2), for the generator's task stack, split
and plan caches and the CSV tails, plus one slot per peg and disc for
the replay's linked stacks, plus the generator's memo of
blocks -- optimal sub-solves of fewer than 4,096 moves -- plus, in the
check and the CSV, one pointer per move of each long block, two copies
of the replay's linked stacks until the block's second sighting, then
its before- and after-runs and, on four pegs, the groups under those
runs at each play after the critical move, plus fixed tables shared by
every trace and built on first use: two tuples of 4,095 ints for the
ruler and the 2,000 numerals of :func:`_numerals`.  The memo's
three-peg blocks never nest, so they hold at most the trace's own
moves; blocks on four or more pegs are kept only once they recur and
may nest, and the whole memo measured at most 1.22 times the trace's
own moves (see
:func:`_walk`): 12,285 of the 262,143 at p = 3, n = 18; 358,684 of the
16,252,929 at p = 4, n = 203; 300,776 of the 688,127 at p = 5, n = 460;
73,507 of the 60,417 at p = 6, n = 475.
:class:`MoveTrace` and the functions that take one hold a trace whole
for library callers; they are thin wrappers over the same path.

Per move, generation, the ruler check and CSV run list operations, and
the replay loop does the least a move needs: a three-peg tower taller
than a block splits like any other Frame-Stewart tower, at k = count - 1;
a three-peg block's moves index its table of 3 * count cycle moves
through the step template of :func:`_ruler_templates`, a block on more
pegs joins its park, shuttle and rebuild, and each kept block is then
spliced in wherever it recurs, a long one as its own chunk; the ruler
check compares slices of the disc template, the replay keeps linked
stacks (:func:`_replay`), on four pegs with the subtower test inside
the same loop (:class:`_SubtowerFold`), and each CSV chunk is one join
of cached numerals and move tails.  A long block is checked and
rendered once per distinct block, not per play: the check replays it at
its first sighting only, and from its second on swaps in its recorded
effect wherever that is sound (see :class:`TraceCheck`), and the CSV
reuses its list of tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    LARGER_ON_SMALLER,
    NOT_TOP_DISC,
    WRONG_SOURCE_PEG,
    DiscLimitError,
    DomainError,
    IllegalMove,
)
from .recurrences import HanoiSolver, _resolve

_LETTERS = "ABCD"

#: Moves per chunk of a streamed trace: enough to amortise the per-chunk
#: work, few enough that a chunk's memory is negligible.
CHUNK_MOVES = 4096

#: A move as it streams: (disc, source peg, target peg).
Step = tuple[int, int, int]


class _Block(tuple[Step, ...]):
    """A kept block of at least half a chunk, streamed as its own chunk:
    the same immutable object wherever the block recurs.  Only
    :func:`_walk` builds one, so its moves are tuples of ints and never
    change, and :class:`TraceCheck` and :class:`TraceCsv` may reuse what
    they learnt from it the last time it came by.  Shorter kept blocks
    stay lists, which extend a list chunk fastest."""

    __slots__ = ()


#: Steps per ruler template block: a fixed power of two, independent of
#: :data:`CHUNK_MOVES`, so the templates are the same whatever the chunk.
#: A memoised three-peg block has fewer moves, so it fits the templates.
_BLOCK = 1 << 12


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


def _chunked(moves: Iterable[Move]) -> Iterator[list[Step]]:
    """Move objects as a chunk stream."""
    it = iter(moves)
    while chunk := [(m.disc, m.source, m.target) for m in islice(it, CHUNK_MOVES)]:
        yield chunk


def _held(initial: Configuration, chunks: Iterable[Sequence[Step]]) -> MoveTrace:
    """A streamed trace held whole; equal moves share one Move object."""
    shared: dict[Step, Move] = {}
    moves = tuple(
        shared.get(m) or shared.setdefault(m, Move(*m)) for chunk in chunks for m in chunk
    )
    return MoveTrace(initial, moves)


@cache
def _numerals() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """0 .. 999 in decimal, plain and padded to three digits, built on
    first use: step q * 1000 + r renders as ``str(q)`` and the padded r,
    or as the plain r when q is 0."""
    return tuple(map(str, range(1000))), tuple(f"{r:03d}" for r in range(1000))


class _Tails(dict[Step, str]):
    """The ``,disc,from,to`` row tail of each move, rendered on first use
    from the labels of the pegs seen so far."""

    def __init__(self) -> None:
        super().__init__()
        self._labels: dict[int, str] = {}

    def __missing__(self, move: Step) -> str:
        disc, source, target = move
        labels = self._labels
        try:
            tail = f",{disc},{labels[source]},{labels[target]}\n"
        except KeyError:
            labels[source] = peg_label(source)
            labels[target] = peg_label(target)
            tail = f",{disc},{labels[source]},{labels[target]}\n"
        self[move] = tail
        return tail


class TraceCsv:
    """``step,disc,from,to`` rows of a streamed trace, one chunk at a time.

    Steps are 1-based and run on across chunks.  The ``,disc,from,to``
    tail of each distinct move is rendered once and then reused, and so
    is the list of tails of each block chunk of :func:`trace_chunks`,
    held with the block so that no other object takes its id.  A chunk's
    rows are one join of three pieces per row -- the step's thousands,
    its last three digits and the move's tail -- each filled in by slice
    assignment, so no row is formatted on its own.
    """

    HEADER = "step,disc,from,to\n"

    def __init__(self) -> None:
        self.steps = 0
        self._tails = _Tails()
        self._blocks: dict[int, tuple[_Block, list[str]]] = {}  # id -> block, tails

    def rows(self, chunk: Sequence[Step]) -> str:
        plain, padded = _numerals()
        pieces = [""] * (3 * len(chunk))
        at, step, stop = 0, self.steps + 1, self.steps + 1 + len(chunk)
        while step < stop:
            q, r = divmod(step, 1000)
            end = min(stop, (q + 1) * 1000)
            width = 3 * (end - step)
            if q:
                pieces[at : at + width : 3] = [str(q)] * (end - step)
            pieces[at + 1 : at + width : 3] = (padded if q else plain)[r : r + end - step]
            at += width
            step = end
        if type(chunk) is _Block:
            if id(chunk) not in self._blocks:
                self._blocks[id(chunk)] = chunk, list(map(self._tails.__getitem__, chunk))
            pieces[2::3] = self._blocks[id(chunk)][1]
        else:
            pieces[2::3] = map(self._tails.__getitem__, chunk)
        self.steps = stop - 1
        return "".join(pieces)


def trace_to_csv(trace: MoveTrace) -> str:
    """Trace export: ``step,disc,from_label,to_label`` with 1-based steps."""
    csv = TraceCsv()
    return csv.HEADER + "".join(csv.rows(chunk) for chunk in _chunked(trace.moves))


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


def trace_chunks(
    pegs: int,
    discs: int,
    strategy: str | int = "optimal",
    solver: HanoiSolver | None = None,
    source: int = 0,
    target: int | None = None,
) -> Iterator[Sequence[Step]]:
    """The trace as successive chunks of 1 .. :data:`CHUNK_MOVES` moves.

    Each kept block of at least ``CHUNK_MOVES // 2`` moves (see
    :func:`_walk`) that is not inside a block being captured comes as a
    chunk of its own: a private tuple, the same object at every play.
    Every other chunk is a list, full unless it is the last one or a
    block chunk follows it.

    The arguments are checked before this returns, so a bad call raises
    before any move is made.  ``strategy`` selects the top-level split
    as for :func:`generate_frame_stewart`; three pegs take only
    ``"optimal"``.  ``target`` defaults to the last peg.  On four or
    more pegs the walk asks the solver for the split of every sub-solve
    of two or more discs on four or more pegs, so the solver's disc
    ceiling must cover the largest: the whole tower, or under a forced
    split the park and, on five or more pegs, the shuttle.  Three-peg
    towers, and sub-solves of at most p - 2 discs on p pegs, which park
    one disc and take 2n - 1 moves, never ask the solver.
    """
    if pegs < 3:
        raise DomainError(f"need at least 3 pegs, got {pegs}")
    split = _top_split(pegs, discs, strategy)
    if target is None:
        target = pegs - 1
    for peg in (source, target):
        if not 0 <= peg < pegs:
            raise DomainError(f"peg {peg} out of range for {pegs} pegs")
    if source == target:
        raise DomainError("source and target pegs must differ")
    solver = _resolve(solver)
    if pegs > 3:
        asked = (discs,) if split is None else (split, discs - split) if pegs > 4 else (split,)
        for count in asked:
            if count > solver.max_discs:  # max_discs >= 1, so count >= 2
                raise DiscLimitError(count, solver.max_discs)
    return _walk(pegs, discs, source, target, split, solver)


def _walk(
    pegs: int, discs: int, source: int, target: int, split: int | None, solver: HanoiSolver
) -> Iterator[Sequence[Step]]:
    """Park / shuttle / rebuild without recursion: park the k smallest on
    the lowest-index spare peg, shuttle the rest with that peg frozen,
    then unpark.  Discs below the active block are always larger, so they
    never constrain these sub-solves, and an optimal sub-solve's moves
    depend only on (count, lowest disc, from, to, usable pegs).  On three
    pegs k is count - 1.

    A sub-solve shorter than ``fits`` moves is a block; a kept block
    stays in a memo for the rest of the trace and is spliced in wherever
    it recurs: copied into the pending list chunk or, when it has at
    least ``CHUNK_MOVES // 2`` moves and no capture is open, yielded
    whole after that chunk.  A three-peg block is built by :func:`_ruler`
    and kept at its first request.  A block on four or more pegs is its
    park, shuttle and rebuild joined together: its first request only
    splits it, its second splits it again and keeps the moves that makes,
    and every later one splices them.

    The memo's bound is part proven, part measured.  Proven: three-peg
    blocks never nest and each is played at least once, so together they
    hold at most the trace's own moves; every kept block on four or more
    pegs is shorter than ``fits`` and is played at least twice.  Such
    blocks nest, though, so that proof gives them no bound in the trace's
    length alone.  Measured: over p = 4 .. 12, 16, 24, 40, 100, 300 and
    600, with every n <= 512 whose trace fits the default state budget of
    2**24 states, the whole memo held at most 1.22 times the trace's own
    moves (73,507 for the 60,417 moves at p = 6, n = 475).  When n < p - 1
    every sub-solve parks one disc and none recurs, so it holds nothing.

    Besides those blocks a call holds its task stack, split and plan
    caches, the set of blocks asked for once, and at most one chunk plus
    the block being captured.  A sub-solve of at most p - 2 discs on p
    pegs parks one disc and takes 2n - 1 moves, each disc on a peg of its
    own, so a wide trace asks the solver for no cost table.  Such a trace
    uses only the n lowest pegs besides its ends, so the top plan holds
    the ends and pegs 0 .. n + 1, not all p: every sub-solve still has two
    pegs more than discs and parks on the same lowest spare peg, so the
    moves are the same."""
    if not discs:
        return
    fits = min(CHUNK_MOVES, _BLOCK)
    # (pegs, count) -> (canonical split, whether the sub-solve is a block)
    splits: dict[tuple[int, int], tuple[int, bool]] = {}
    # plan id -> [usable pegs, from, to, children]; the children (staging
    # peg, park plan, shuttle plan, rebuild plan) are filled in when the
    # plan first splits, as a two-peg shuttle plan never does
    plans: list[list] = []
    plan_ids: dict[tuple[tuple[int, ...], int, int], int] = {}

    def plan(usable: tuple[int, ...], src: int, dst: int) -> int:
        key = (usable, src, dst)
        if key not in plan_ids:
            plan_ids[key] = len(plans)
            plans.append([usable, src, dst, None])
        return plan_ids[key]

    def children(at: int) -> tuple[int, int, int, int]:
        usable, src, dst, _ = plans[at]
        staging = min(q for q in usable if q != src and q != dst)
        shuttle = tuple(q for q in usable if q != staging)
        kids = (
            staging, plan(usable, src, staging), plan(shuttle, src, dst), plan(usable, staging, dst)
        )
        plans[at][3] = kids
        return kids

    def kept(moves: list[Step]) -> list[Step] | _Block:
        # a list, which ``out +=`` copies in one step (it iterates a tuple
        # subclass), or from half a chunk up a block that streams whole
        return moves if len(moves) < CHUNK_MOVES // 2 else _Block(moves)

    # (count, lowest disc, plan) -> moves of a block; a task is its own key
    blocks: dict[tuple[int, int, int], list[Step] | _Block] = {}
    asked: set[tuple[int, int, int]] = set()  # blocks on p >= 4 requested once
    starts: list[int] = []  # where in ``out`` each open capture began
    out: list[Step] = []  # moves not yet cut into chunks
    top = plan(tuple(sorted({source, target, *range(min(pegs, discs + 2))})), source, target)
    # (count, lowest disc, plan), or (-count, ...) to close a capture;
    # popped last in, first out, so each level pushes rebuild, shuttle, park
    if split is None:
        tasks = [(discs, 1, top)]
    else:
        _, park, shuttle, rebuild = children(top)
        tasks = [(split, 1, rebuild), (discs - split, 1 + split, shuttle), (split, 1, park)]
    while tasks:
        if len(out) >= CHUNK_MOVES and not starts:
            rest = out[CHUNK_MOVES:]
            del out[CHUNK_MOVES:]
            yield out
            out = rest
            continue
        task = tasks.pop()
        block = blocks.get(task)
        if block is not None:
            if starts or type(block) is list:
                out += block
                continue
            if out:  # with no capture open, shorter than a chunk
                yield out
                out = []
            yield block
            continue
        count, lowest, at = task
        usable, src, dst, kids = plans[at]
        if count == 1:
            out.append((lowest, src, dst))
            continue
        if count < 0:
            blocks[-count, lowest, at] = kept(out[starts.pop() :])
            continue
        staging, park, shuttle, rebuild = kids or children(at)
        if len(usable) == 3:
            if 1 << count <= fits:
                block = blocks[task] = kept(_ruler(count, lowest, src, dst, staging))
                if type(block) is list:
                    out += block
                else:
                    tasks.append(task)  # streamed whole, as a kept block
                continue
            k = count - 1
        else:
            key = (len(usable), count)
            if key not in splits:
                if count <= key[0] - 2:  # one peg per disc: T_p(n) = 2n - 1
                    splits[key] = 1, 2 * count - 1 < fits
                else:
                    best = solver.solve(*key)
                    splits[key] = best.canonical_split, best.cost < fits
            k, short = splits[key]
            if short:
                if task in asked:
                    starts.append(len(out))
                    tasks.append((-count, lowest, at))
                else:
                    asked.add(task)
        tasks += ((k, lowest, rebuild), (count - k, lowest + k, shuttle), (k, lowest, park))
    for at in range(0, len(out), CHUNK_MOVES):
        yield out[at : at + CHUNK_MOVES]


@cache
def _ruler_templates() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The disc template and the step template of the ruler rule, built
    on first use and then shared: ``_BLOCK - 1`` ints each.

    Step t of a tower, 1 <= t < _BLOCK, moves disc j = 1 + (trailing
    zeros of t), which ``discs[t - 1]`` holds, and makes entry
    ``3 * j + (t >> j) % 3`` of the tower's cycle table (see
    :func:`_ruler`), which ``steps[t - 1]`` holds.  The disc at step
    m * _BLOCK + t is the same as at step t, so the ruler check reads the
    disc template for any step that is not a multiple of ``_BLOCK``.
    """
    discs = tuple((t & -t).bit_length() for t in range(1, _BLOCK))
    steps = tuple(3 * j + (t >> j) % 3 for t, j in enumerate(discs, 1))
    return discs, steps


def _ruler(count: int, lowest: int, src: int, dst: int, spare: int) -> list[Step]:
    """The optimal three-peg moves of a tower of ``count`` discs from
    ``lowest`` up, for 2**count <= ``_BLOCK``; a taller tower's list
    would be cut short at ``_BLOCK - 1`` moves.

    Step t moves the j-th smallest disc, j = 1 + (trailing zeros of t),
    for the (t >> j)-th time counting from 0.  That disc cycles
    src -> dst -> spare when count - j is even and src -> spare -> dst
    when it is odd (Hinz, Klavzar, Milutinovic & Petr, *The Tower of
    Hanoi -- Myths and Maths*, 2013).  Entry 3 * j + i of the table
    built here is the j-th smallest disc's i-th move of its cycle, so
    step t makes move ``table[3 * j + (t >> j) % 3]``, and the list is
    the step template of :func:`_ruler_templates` mapped through the
    table.
    """
    table: list[Step] = [(0, 0, 0)] * 3  # j = 0 is unused
    for j in range(1, count + 1):
        a, b, c = (src, dst, spare) if (count - j) % 2 == 0 else (src, spare, dst)
        disc = lowest + j - 1
        table += ((disc, a, b), (disc, b, c), (disc, c, a))
    return list(map(table.__getitem__, _ruler_templates()[1][: (1 << count) - 1]))


def generate_three_peg(discs: int, source: int = 0, target: int = 2) -> MoveTrace:
    """Optimal three-peg trace (move n-1 aside, move largest, rebuild).

    Length is exactly 2**n - 1.
    """
    chunks = trace_chunks(3, discs, source=source, target=target)
    return _held(Configuration.perfect(discs, 3, source), chunks)


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
    chunks = trace_chunks(pegs, discs, strategy, solver, source, target)
    return _held(Configuration.perfect(discs, pegs, source), chunks)


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


#: Replay state: ``(top, below)``.  ``top[q]`` is the top disc of peg q
#: and ``below[d]`` the disc under disc d; n + 1 marks an empty peg and
#: the bottom of a stack.  ``top`` has exactly p slots and ``below``
#: exactly n + 1, so a move from or onto peg p or above, or lifting the
#: bogus disc n + 1 off an empty peg, raises IndexError before anything
#: is written; a negative peg fails the legality test of :func:`_replay`.
_Linked = tuple[list[int], list[int]]


def _linked(initial: Configuration) -> _Linked:
    """Linked stacks of a configuration."""
    pegs, discs = initial.num_pegs, initial.num_discs
    top = [discs + 1] * pegs
    below = [discs + 1] * (discs + 1)
    for disc in range(discs, 0, -1):  # largest first, so smaller discs land on top
        peg = initial.pegs[disc - 1]
        below[disc] = top[peg]
        top[peg] = disc
    return top, below


def _stacks(state: _Linked) -> list[list[int]]:
    """Per-peg disc lists, bottom (largest) first, of linked stacks."""
    top, below = state
    bottom = len(below)
    stacks = []
    for disc in top:
        stack = []
        while disc != bottom:
            stack.append(disc)
            disc = below[disc]
        stacks.append(stack[::-1])
    return stacks


def _replay(
    state: _Linked,
    chunk: Sequence[Step],
    first: int,
    discs: int,
    fold: _SubtowerFold | None = None,
) -> None:
    """Apply a chunk of moves, numbered from step ``first``, to linked
    stacks, raising at the first one that breaks a rule.

    A legal move costs three tests and three stores: its disc must be the
    source peg's top and must not exceed the target peg's top, and
    neither peg may be negative, which would index ``top`` from its end.
    With a subtower ``fold`` it costs one test more, of the groups of its
    disc and of the disc it lands on (see :class:`_SubtowerFold`).  The
    loops count no steps; a rejected move's index is read off the moves
    left after it.
    """
    top, below = state
    moves = iter(chunk)
    try:
        if fold is None:
            for disc, src, dst in moves:
                if top[src] != disc or top[dst] < disc or src | dst < 0:
                    break
                top[src] = below[disc]
                below[disc] = top[dst]
                top[dst] = disc
            else:
                return
        else:
            group = fold.group
            for disc, src, dst in moves:
                under = top[dst]
                if top[src] != disc or under < disc or src | dst < 0:
                    break
                if not group[under] & group[disc]:
                    fold.meet(state, disc, src, dst)
                top[src] = below[disc]
                below[disc] = top[dst]  # not ``under``: a move onto its own peg changes nothing
                top[dst] = disc
            else:
                return
    except IndexError:  # a peg past the board, or disc n + 1
        pass
    index = len(chunk) - 1 - sum(1 for _ in moves)
    _reject(state, chunk[index], first + index, discs)


def _reject(state: _Linked, move: Step, step: int, discs: int) -> None:
    """Raise the error for a move that :func:`_replay` could not apply."""
    disc, src, dst = move
    if not 1 <= disc <= discs:
        raise DomainError(f"move {step} references unknown disc {disc}")
    stacks = _stacks(state)
    pegs = len(stacks)
    if not (0 <= src < pegs and 0 <= dst < pegs):
        raise DomainError(f"move {step} references a peg outside the board")
    actual = next(q for q, stack in enumerate(stacks) if disc in stack)
    if actual != src:
        raise IllegalMove(
            step,
            WRONG_SOURCE_PEG,
            f"disc {disc} is on {peg_label(actual)}, not {peg_label(src)}",
        )
    if stacks[src][-1] != disc:
        raise IllegalMove(step, NOT_TOP_DISC, f"disc {disc} is buried on {peg_label(src)}")
    raise IllegalMove(
        step, LARGER_ON_SMALLER, f"disc {disc} onto smaller disc {stacks[dst][-1]}"
    )


def validate_sequence(initial: Configuration, moves: Sequence[Move]) -> Configuration:
    """Replay moves under the rules and return the final configuration.

    Every move must lift the top disc of its source peg onto a peg whose
    top disc (if any) is larger; otherwise :class:`IllegalMove` reports
    the 1-based step and the reason.
    """
    state = _linked(initial)
    first = 1
    for chunk in _chunked(moves):
        _replay(state, chunk, first, initial.num_discs)
        first += len(chunk)
    where = [0] * initial.num_discs
    for peg, stack in enumerate(_stacks(state)):
        for disc in stack:
            where[disc - 1] = peg
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


def _follows_ruler(discs: tuple[int, ...], first: int) -> bool:
    """Whether the disc moved at each step t, counting from step
    ``first``, is 1 + (trailing zeros of t): slices of the disc template
    of :func:`_ruler_templates`, with the steps at multiples of
    ``_BLOCK`` computed one by one."""
    template = _ruler_templates()[0]
    at, step, stop = 0, first, first + len(discs)
    while step < stop:
        m, r = divmod(step, _BLOCK)
        if r:
            end = min(stop, (m + 1) * _BLOCK)
            if discs[at : at + end - step] != template[r - 1 : end - m * _BLOCK - 1]:
                return False
        else:
            end = step + 1
            if discs[at] != (step & -step).bit_length():
                return False
        at += end - step
        step = end
    return True


def gray_trace(trace: MoveTrace) -> GrayReport:
    """Parity vectors and flip sequence of a three-peg trace."""
    if trace.initial.num_pegs != 3:
        raise DomainError(
            f"gray encoding is defined for 3-peg traces, got {trace.initial.num_pegs} pegs"
        )
    validate_sequence(trace.initial, trace.moves)
    vec = 0
    vectors = [0]
    for move in trace.moves:
        vec ^= 1 << (move.disc - 1)
        vectors.append(vec)
    flips = tuple(move.disc for move in trace.moves)
    single = all(
        (a ^ b).bit_count() == 1 for a, b in zip(vectors, vectors[1:])
    )
    return GrayReport(tuple(vectors), flips, single, _follows_ruler(flips, 1))


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


class _SubtowerFold:
    """The subtower report of a trace with discs, folded into its replay:
    each chunk is passed to :func:`_replay` with the fold.

    ``group[d]`` is a bit set of the groups that disc d, or the bottom
    mark d = n + 1, may share a peg with.  Up to the largest disc's first
    move, the critical one, it is every bit (-1), and for the largest disc
    no bit.  At the critical move the source peg holds only the largest
    disc and the target peg is empty, so every other disc sits on a spare
    peg; it gets that peg's bit, and its group is named after that peg.
    So the replay passes to :meth:`meet` only a move of the largest disc,
    a landing on the largest disc, which is on the sink (its peg), and,
    after the critical move, a landing on a disc of another group.
    Testing the disc landed on equals testing the bottom disc of the
    target peg: while no landing off the sink has met another group, each
    peg off the sink holds one group.
    """

    def __init__(self, initial: Configuration) -> None:
        n = self.largest = initial.num_discs
        self._pegs = initial.num_pegs
        self.group = [-1] * (n + 2)
        self.group[n] = 0
        self.sink = initial.pegs[n - 1]  # the largest disc's peg
        self.hits = 0
        self.independent = True
        self._subtowers: tuple[tuple[int, frozenset[int]], ...] = ()

    @property
    def watching(self) -> bool:
        """Whether a landing can still change the report: after a single
        move of the largest disc, and before any interference."""
        return self.hits == 1 and self.independent

    def meet(self, state: _Linked, disc: int, src: int, dst: int) -> None:
        """Take in a legal move, before it is made, whose disc shares no
        group with the disc it lands on."""
        if disc != self.largest:
            if dst != self.sink:
                self.independent = False
            return
        self.hits += 1
        self.sink = dst
        if self.hits == 1:
            self._subtowers = tuple(
                (q, frozenset(stack))
                for q, stack in enumerate(_stacks(state))
                if q != src and q != dst
            )
            group = self.group
            for q, discs in self._subtowers:
                for d in discs:
                    group[d] = 1 << q

    def report(self) -> SubtowerReport:
        n = self.largest
        if self.hits != 1:
            return SubtowerReport(n, self.hits, False, None, (), False, False, False)
        independent = self.independent
        return SubtowerReport(
            n, 1, True, self.sink, self._subtowers, True, independent, independent
        )


def verify_subtower_independence(trace: MoveTrace) -> SubtowerReport:
    """Check the two-independent-subtowers structure of a trace.

    The report never raises on a structural miss: a largest disc that
    moves more (or less) than once is reported via
    ``largest_move_count`` with ``independent`` False.
    """
    if trace.initial.num_discs < 1:
        raise DomainError("trace has no discs")
    state = _linked(trace.initial)
    fold = _SubtowerFold(trace.initial)
    first = 1
    for chunk in _chunked(trace.moves):
        _replay(state, chunk, first, trace.initial.num_discs, fold)
        first += len(chunk)
    return fold.report()


def _runs(
    state: _Linked, pegs: tuple[int, ...], largest: int
) -> tuple[list[list[int]], list[int]]:
    """Per peg of ``pegs``: its discs up to ``largest``, top first, and
    the disc or bottom mark under them."""
    top, below = state
    runs, bases = [], []
    for peg in pegs:
        run = []
        disc = top[peg]
        while disc <= largest:
            run.append(disc)
            disc = below[disc]
        runs.append(run)
        bases.append(disc)
    return runs, bases


def _swap(state: _Linked, pegs: tuple[int, ...], runs: list[list[int]], bases: list[int]) -> None:
    """Put ``runs`` on ``pegs``, each on its base."""
    top, below = state
    for peg, run, disc in zip(pegs, runs, bases):
        for above in reversed(run):
            below[above] = disc
            disc = above
        top[peg] = disc


class _Seen:
    """What a check learnt of one block chunk: the block itself, held so
    that no other object takes its id, and its first play -- copies of the
    linked stacks before and after it, and whether the subtower check was
    watching (:attr:`_SubtowerFold.watching`) -- until its second sighting
    turns that into the block's effect: the largest disc c it moves, the
    pegs T it touches in increasing order and, per peg of T, its discs up
    to c, top first, before and after the block.  Also its last ruler
    verdict with the phase of its first step, and ``clean``: the groups of
    the discs under its runs (its bases) at each play while the check was
    watching.  A play that meets another group ends the watch for good, so
    while the check watches, each set in ``clean`` is one under which the
    block meets none."""

    __slots__ = ("block", "_first", "largest", "pegs", "before", "after", "ruler", "clean")

    def __init__(self, block: _Block, before: _Linked, after: _Linked, watched: bool) -> None:
        self.block = block
        self._first: tuple[_Linked, _Linked, bool] | None = before, after, watched
        self.largest = 0
        self.pegs: tuple[int, ...] = ()
        self.before: list[list[int]] = []
        self.after: list[list[int]] = []
        self.ruler: tuple[int, bool] | None = None
        self.clean: set[tuple[int, ...]] = set()

    def learn(self, group: list[int] | None) -> None:
        """Turn the first play, which was legal, into the block's effect;
        ``group`` is the subtower groups of the discs where it was watched."""
        if self._first is None:
            return
        before, after, watched = self._first
        self._first = None
        block = self.block
        self.largest = max(block, default=(0,))[0]
        touched = set(map(itemgetter(1), block))
        touched.update(map(itemgetter(2), block))
        self.pegs = tuple(sorted(touched))
        self.before, bases = _runs(before, self.pegs, self.largest)
        self.after = _runs(after, self.pegs, self.largest)[0]
        if watched:
            self.clean.add(tuple(map(group.__getitem__, bases)))

    def follows_ruler(self, first: int) -> bool:
        """:func:`_follows_ruler` of the block from step ``first``.  With
        no step at a multiple of ``_BLOCK`` the verdict reads the slice of
        the disc template at ``first % _BLOCK``, so it is kept per block
        for the last such phase."""
        phase = first % _BLOCK
        if self.ruler is None or self.ruler[0] != phase:
            verdict = _follows_ruler(tuple(map(itemgetter(0), self.block)), first)
            if not phase or phase + len(self.block) > _BLOCK:
                return verdict
            self.ruler = phase, verdict
        return self.ruler[1]


class TraceCheck:
    """Every check of :func:`verify_trace`, folded over a chunk stream.

    Feed the chunks in order with :meth:`feed`, then read
    :meth:`failures`.  An illegal move ends the replay, and with it the
    ruler and subtower checks, which need a legal trace; the moves after
    it are still counted for the length check.  On four pegs the subtower
    check runs inside the replay (see :class:`_SubtowerFold`).

    A block chunk of :func:`trace_chunks` is replayed move by move at its
    first sighting, between two copies of the linked stacks.  At its
    second sighting those copies give its effect: the largest disc c it
    moves, the set T of pegs it touches and, per peg of T, the run of
    discs <= c at its top before and after.  From that sighting on, if
    every peg of T shows the recorded before-run, the after-runs are
    swapped in, in O(c + |T|); otherwise the block is replayed move by move, so an
    illegal move is still reported at its step.  This is sound: the block
    moves only discs <= c between pegs of T, and each of its legality
    tests compares one of those discs with the top of a peg of T.  Discs
    <= c sit above every larger disc, so with the same runs every test
    reads the same top, or a disc larger than c either way, and the block
    ends on the recorded runs.  A block played once costs a replay and
    the two copies, in O(n + p).

    The subtower check adds two conditions.  A block that moves the
    largest disc is always replayed, so that each move of that disc is
    counted.  And after the critical move, until a landing off the sink
    meets another group, a block is swapped in only where it is known to
    meet none.  That depends only on its runs and on the groups of the
    discs under them, its bases: every disc it lands on is a disc of its
    runs or a base, and the groups and the sink stay fixed.  So each play
    with the recorded runs keeps the groups of the bases, and the effect
    is swapped in for those groups; a play that meets another group
    settles the check.  Before the critical move no landing can fail, and
    after a failure or a second move of the largest disc no landing
    counts.

    The ruler verdict of a block is reused where the block starts at the
    same step modulo ``_BLOCK`` and no step of it is a multiple of
    ``_BLOCK`` (:meth:`_Seen.follows_ruler`).  Every other chunk is
    replayed move by move.
    """

    def __init__(
        self,
        initial: Configuration,
        strategy: str | int = "optimal",
        solver: HanoiSolver | None = None,
    ) -> None:
        self._initial = initial
        self.moves = 0
        self._strategy = strategy
        self._solver = solver
        self._state = _linked(initial)
        self._illegal: IllegalMove | None = None
        self._ruler_ok = True
        self._subtowers = (
            _SubtowerFold(initial) if initial.num_pegs == 4 and initial.num_discs else None
        )
        self._seen: dict[int, _Seen] = {}  # id of each block chunk fed

    def feed(self, chunk: Sequence[Step]) -> None:
        first = self.moves + 1
        self.moves += len(chunk)
        if self._illegal is not None:
            return
        seen = None
        try:
            if type(chunk) is _Block:
                seen = self._play(chunk, first)
            else:
                _replay(self._state, chunk, first, self._initial.num_discs, self._subtowers)
        except IllegalMove as exc:
            self._illegal = exc
            return
        if self._initial.num_pegs == 3 and self._ruler_ok:
            if seen is None:
                self._ruler_ok = _follows_ruler(tuple(map(itemgetter(0), chunk)), first)
            else:
                self._ruler_ok = seen.follows_ruler(first)

    def _play(self, block: _Block, first: int) -> _Seen:
        """Check a block chunk by the block rule; what is known of it."""
        state, discs, fold = self._state, self._initial.num_discs, self._subtowers
        group = fold and fold.group
        seen = self._seen.get(id(block))
        if seen is None:
            before = state[0][:], state[1][:]
            watching = fold is not None and fold.watching
            _replay(state, block, first, discs, fold)
            after = state[0][:], state[1][:]
            seen = self._seen[id(block)] = _Seen(block, before, after, watching)
            return seen
        seen.learn(group)
        runs, bases = _runs(state, seen.pegs, seen.largest)
        key = None
        if runs == seen.before:
            if fold is None or seen.largest < discs and not fold.watching:
                _swap(state, seen.pegs, seen.after, bases)
                return seen
            if seen.largest < discs:
                key = tuple(map(group.__getitem__, bases))
                if key in seen.clean:
                    _swap(state, seen.pegs, seen.after, bases)
                    return seen
        _replay(state, block, first, discs, fold)
        if key is not None:
            seen.clean.add(key)
        return seen

    def failures(self) -> tuple[str, ...]:
        """Failure messages of the replay, length, ruler (three pegs) and
        subtower (four pegs) checks; empty when the trace passed."""
        pegs, discs = self._initial.num_pegs, self._initial.num_discs
        top, below = self._state
        held, disc = 0, top[pegs - 1]
        while disc <= discs:  # down the target's stack to the bottom mark n + 1
            held, disc = held + 1, below[disc]
        failures: list[str] = []
        if self._illegal is not None:
            failures.append(f"replay failed: {self._illegal}")
        elif discs and held != discs:
            failures.append("replay does not end all-on-target")
        predicted = trace_length(pegs, discs, self._strategy, self._solver)
        if self.moves != predicted:
            failures.append(f"length {self.moves} differs from predicted {predicted}")
        if self._illegal is None and pegs == 3 and not self._ruler_ok:
            failures.append("flip sequence does not follow the ruler pattern")
        if self._illegal is None and self._subtowers is not None:
            report = self._subtowers.report()
            if not report.single_largest_move:
                failures.append(
                    f"largest disc moved {report.largest_move_count} times, expected once"
                )
            elif not report.independent:
                failures.append("subtowers interfere after the largest-disc move")
        return tuple(failures)


def verify_trace(
    trace: MoveTrace, strategy: str | int = "optimal", solver: HanoiSolver | None = None
) -> tuple[str, ...]:
    """Failure messages of the replay, length, ruler (three pegs) and
    subtower (four pegs) checks; an empty tuple means the trace passed."""
    check = TraceCheck(trace.initial, strategy, solver)
    for chunk in _chunked(trace.moves):
        check.feed(chunk)
    return check.failures()
