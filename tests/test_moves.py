import gc
import inspect
import random
import sys
import tracemalloc
from collections import Counter, namedtuple
from itertools import islice, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilab.errors import (
    LARGER_ON_SMALLER,
    NOT_TOP_DISC,
    WRONG_SOURCE_PEG,
    DiscLimitError,
    DomainError,
    IllegalMove,
)
from hanoilab.moves import (
    Configuration,
    Move,
    MoveTrace,
    TraceCheck,
    TraceCsv,
    disc_move_counts,
    generate_frame_stewart,
    generate_three_peg,
    gray_trace,
    moment_trace,
    peg_label,
    trace_chunks,
    trace_length,
    trace_to_csv,
    validate_sequence,
    verify_subtower_independence,
    verify_trace,
)
import hanoilab.moves as moves_module
from hanoilab.cli import main
from hanoilab.recurrences import HanoiSolver, fs_split, t3_closed, tp_optimal


def legal_moves(config: Configuration) -> list[Move]:
    tops: dict[int, int] = {}
    for disc in range(1, config.num_discs + 1):
        tops.setdefault(config.pegs[disc - 1], disc)
    out = []
    for peg, disc in sorted(tops.items()):
        for dest in range(config.num_pegs):
            if dest == peg:
                continue
            if dest not in tops or tops[dest] > disc:
                out.append(Move(disc, peg, dest))
    return out


def random_walk(rng: random.Random, pegs: int, discs: int, steps: int) -> MoveTrace:
    start = Configuration(
        pegs, tuple(rng.randrange(pegs) for _ in range(discs))
    )
    current = start
    moves = []
    for _ in range(steps):
        options = legal_moves(current)
        move = rng.choice(options)
        moves.append(move)
        current = current.apply(move)
    return MoveTrace(start, tuple(moves))


def brute_force_subtowers(trace: MoveTrace):
    """(subtowers, independent) by the documented definition, or None
    unless the largest disc moves exactly once: after each later move, no
    peg other than the sink holds discs of two groups."""
    n = trace.initial.num_discs
    hits = [i for i, move in enumerate(trace.moves) if move.disc == n]
    if len(hits) != 1:
        return None
    critical = trace.moves[hits[0]]
    snapshots = list(trace.configurations())
    home = snapshots[hits[0]].pegs
    subtowers = tuple(
        (q, frozenset(d for d in range(1, n) if home[d - 1] == q))
        for q in range(trace.initial.num_pegs)
        if q not in (critical.source, critical.target)
    )
    for config in snapshots[hits[0] + 2 :]:
        holder: dict[int, int] = {}
        for d in range(1, n):
            peg = config.pegs[d - 1]
            if peg != critical.target and holder.setdefault(peg, home[d - 1]) != home[d - 1]:
                return subtowers, False
    return subtowers, True


def _cuts_around(rng: random.Random, hits: list[int], length: int) -> list[set[int]]:
    """Chunk boundaries that put the move at each index in ``hits`` at the
    start of a chunk, inside one and at its end, each with a random cut
    elsewhere; a boundary at i starts a chunk with move i."""
    cut_sets = []
    for hit in hits:
        for around in ({hit}, {hit - 1, hit + 2}, {hit + 1}):
            cuts = around | {rng.randint(1, max(1, length - 1))}
            cut_sets.append({c for c in cuts if 0 < c < length})
    return cut_sets


def _folded(trace: MoveTrace, cuts: set[int]):
    """verify_subtower_independence with the moves cut into chunks at ``cuts``."""
    moves = [(m.disc, m.source, m.target) for m in trace.moves]
    state = moves_module._linked(trace.initial)
    fold = moves_module._SubtowerFold(trace.initial)
    bounds = [0, *sorted(cuts), len(moves)]
    for start, stop in zip(bounds, bounds[1:]):
        moves_module._replay(state, moves[start:stop], start + 1, trace.initial.num_discs, fold)
    return fold.report()


# Three discs on four pegs: after the largest disc moves, disc 1 lands on
# the peg that holds disc 2's group.
INTERFERING_WALK = MoveTrace(
    Configuration.perfect(3, 4),
    (
        Move(1, 0, 1), Move(2, 0, 2), Move(3, 0, 3), Move(1, 1, 2),
        Move(1, 2, 1), Move(2, 2, 3), Move(1, 1, 3),
    ),
)


class ReferenceSubtowerFold:
    """The per-move subtower fold the library ran in a loop of its own
    before the subtower test moved into the replay, kept unchanged as the
    reference: it reads chunks that have already been replayed, and
    tracks each peg's bottom disc after the critical move."""

    def __init__(self, initial: Configuration) -> None:
        self._pegs = initial.num_pegs
        self._largest = initial.num_discs
        self._where = [-1, *initial.pegs]  # disc -> peg up to the critical move
        self._hits = 0
        self._sink = None
        self._subtowers = ()
        # after the critical move: each disc's group, and per peg its bottom
        # disc (0 if empty), which names the one group a peg off the sink holds
        self._group_of = None
        self._bottom = []
        self._independent = True

    def feed(self, chunk) -> None:
        largest, moves = self._largest, iter(chunk)
        if self._group_of is None:
            where = self._where
            for disc, src, dst in moves:
                if disc == largest:
                    self._hits += 1
                    self._split(src, dst)
                    break
                where[disc] = dst
            else:
                return
        if self._independent:
            group_of, bottom, sink = self._group_of, self._bottom, self._sink
            for disc, src, dst in moves:
                if disc == largest:
                    self._hits += 1
                    continue
                if bottom[src] == disc:
                    bottom[src] = 0
                under = bottom[dst]
                if not under:
                    bottom[dst] = disc
                elif dst != sink and group_of[under] != group_of[disc]:
                    self._independent = False
                    break
        # moves after a failed check count only towards the largest disc's
        self._hits += [move[0] for move in moves].count(largest)

    def _split(self, src: int, dst: int) -> None:
        group_of = self._group_of = self._where[: self._largest]
        self._sink = dst
        self._subtowers = tuple(
            (q, frozenset(d for d, home in enumerate(group_of) if home == q))
            for q in range(self._pegs)
            if q != src and q != dst
        )
        bottom = self._bottom = [0] * self._pegs
        for disc in range(1, self._largest):  # larger discs sit lower
            bottom[group_of[disc]] = disc

    def report(self):
        """(largest disc's move count, sink, subtowers, independent)."""
        if self._hits != 1:
            return self._hits, None, (), False
        return 1, self._sink, self._subtowers, self._independent


# The recursive generators and the per-Move CSV loop the library used
# before traces streamed, kept unchanged as the independent reference.
def _emit_three(count: int, lowest: int, src: int, dst: int, spare: int, out: list[Move]) -> None:
    if count == 0:
        return
    _emit_three(count - 1, lowest, src, spare, dst, out)
    out.append(Move(lowest + count - 1, src, dst))
    _emit_three(count - 1, lowest, spare, dst, src, out)


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


def reference_csv(moves: list[Move]) -> str:
    lines = ["step,disc,from,to"]
    for step, move in enumerate(moves, 1):
        lines.append(
            f"{step},{move.disc},{peg_label(move.source)},{peg_label(move.target)}"
        )
    return "\n".join(lines) + "\n"


def reference_moves(pegs, discs, strategy, solver, source, target) -> list[Move]:
    out: list[Move] = []
    if pegs == 3:
        _emit_three(discs, 1, source, target, 3 - source - target, out)
        return out
    if strategy == "balanced":
        override = discs // 2 if discs >= 2 else None
    else:
        override = None if strategy == "optimal" else strategy
    _emit_multi(discs, 1, source, target, tuple(range(pegs)), out, solver, override)
    return out


def reference_replay(initial: Configuration, moves) -> list[list[int]]:
    """Per-peg stacks (bottom first) after replaying ``(disc, source,
    target)`` moves, raising the library's error for the first bad one:
    unknown disc, then a peg off the board (negative ones included), then
    wrong source, buried disc and larger on smaller."""
    pegs, discs = initial.num_pegs, initial.num_discs
    stacks = initial.stacks()
    for step, (disc, src, dst) in enumerate(moves, 1):
        if not 1 <= disc <= discs:
            raise DomainError(f"move {step} references unknown disc {disc}")
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
        if stacks[dst] and stacks[dst][-1] < disc:
            raise IllegalMove(
                step, LARGER_ON_SMALLER, f"disc {disc} onto smaller disc {stacks[dst][-1]}"
            )
        stacks[src].pop()
        stacks[dst].append(disc)
    return stacks


# A move that skips Move's own checks, so the replay sees any values.
RawMove = namedtuple("RawMove", "disc source target")


def assert_chunk_contract(chunks: list, size: int) -> None:
    """The chunk stream at chunk size ``size``: a chunk holds 1 .. size
    moves; a chunk shorter than size is the last one or is followed by a
    block chunk; a block chunk has at least size // 2 moves, and where an
    equal block chunk recurs it is the same object.  Every other chunk is
    a list."""
    blocks: dict = {}
    for at, chunk in enumerate(chunks):
        assert 1 <= len(chunk) <= size
        if type(chunk) is moves_module._Block:
            assert len(chunk) >= size // 2
            assert blocks.setdefault(chunk, chunk) is chunk
            continue
        assert type(chunk) is list
        if len(chunk) < size and at + 1 < len(chunks):
            assert type(chunks[at + 1]) is moves_module._Block


class TestLabels:
    def test_cyclic_letters_then_numbered(self):
        assert [peg_label(i) for i in range(6)] == ["A", "B", "C", "D", "P5", "P6"]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            peg_label(-1)


class TestConfiguration:
    def test_top_and_peg_of(self):
        config = Configuration(4, (1, 0, 1, 1, 3))  # B: 4 3 1, A: 2, C empty, D: 5
        assert [config.top(q) for q in range(4)] == [2, 1, None, 5]
        assert [config.peg_of(disc) for disc in range(1, 6)] == [1, 0, 1, 1, 3]
        assert [Configuration.perfect(0, 3).top(q) for q in range(3)] == [None] * 3
        assert Configuration.perfect(1, 3, 2).top(2) == 1


class TestThreePeg:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_length_and_replay(self, n):
        trace = generate_three_peg(n)
        assert len(trace) == 2**n - 1
        final = validate_sequence(trace.initial, trace.moves)
        assert final == Configuration.perfect(n, 3, 2)

    def test_three_discs_seven_moves(self):
        assert len(generate_three_peg(3)) == 7

    def test_ten_discs_end_on_target(self):
        trace = generate_three_peg(10)
        assert len(trace) == 1023
        assert validate_sequence(trace.initial, trace.moves).pegs == (2,) * 10

    def test_custom_pegs(self):
        trace = generate_three_peg(4, source=1, target=0)
        assert validate_sequence(trace.initial, trace.moves) == Configuration.perfect(
            4, 3, 0
        )

    def test_rejects_equal_endpoints(self):
        with pytest.raises(DomainError):
            generate_three_peg(3, source=1, target=1)

    def test_streams_past_the_solver_ceiling(self):
        """A three-peg tower splits at count - 1 without asking the solver,
        so its disc ceiling does not limit a three-peg trace."""
        # a 12-disc block, the move of disc 13 and the next 12-disc block
        chunks = islice(trace_chunks(3, 600, solver=HanoiSolver(max_discs=10)), 3)
        first = [move for chunk in chunks for move in chunk]
        assert len(first) == 2**13 - 1
        # the first 2**13 - 1 moves of a tower of 13 or more discs depend only
        # on the parity of its height, so 14 discs stand in for 600
        expected = reference_moves(3, 14, "optimal", None, 0, 2)[: len(first)]
        assert first == [(m.disc, m.source, m.target) for m in expected]


class TestFrameStewart:
    def test_eight_discs_optimal(self, solver):
        trace = generate_frame_stewart(4, 8, "optimal", solver)
        assert len(trace) == 33
        assert validate_sequence(trace.initial, trace.moves) == Configuration.perfect(
            8, 4, 3
        )

    def test_thirteen_discs_balanced(self, solver):
        assert len(generate_frame_stewart(4, 13, "balanced", solver)) == 161

    def test_two_discs(self, solver):
        assert len(generate_frame_stewart(4, 2, "optimal", solver)) == 3

    @pytest.mark.parametrize("n", range(2, 11))
    def test_fixed_split_lengths(self, n, solver):
        for k in range(1, n):
            trace = generate_frame_stewart(4, n, k, solver)
            assert len(trace) == fs_split(n, k, solver)
            validate_sequence(trace.initial, trace.moves)

    @pytest.mark.parametrize("pegs", [5, 6])
    def test_more_pegs_hit_their_optimum(self, pegs, solver):
        for n in range(0, 11):
            trace = generate_frame_stewart(pegs, n, "optimal", solver)
            assert len(trace) == tp_optimal(pegs, n, solver).cost
            final = validate_sequence(trace.initial, trace.moves)
            assert final == Configuration.perfect(n, pegs, pegs - 1)

    def test_balanced_single_disc(self, solver):
        assert len(generate_frame_stewart(4, 1, "balanced", solver)) == 1

    def test_rejects_three_pegs(self):
        with pytest.raises(DomainError):
            generate_frame_stewart(3, 4)

    def test_disc_ceiling_is_checked_before_any_move(self):
        """A call that would ask the solver for more discs than its ceiling
        raises before it returns: the whole tower, the park or, on five or
        more pegs, the shuttle of a forced split."""
        ceiling = HanoiSolver(max_discs=100)
        for pegs, discs, strategy, over in [
            (5, 101, "optimal", 101),
            (5, 250, 100, 150),
            (6, 250, 120, 120),
            (4, 300, 101, 101),
        ]:
            with pytest.raises(DiscLimitError, match=f"disc count {over} exceeds"):
                trace_chunks(pegs, discs, strategy, ceiling)

    def test_disc_ceiling_allows_what_the_walk_never_asks(self):
        """At the ceiling the whole trace streams; a four-peg shuttle and a
        three-peg tower run on three pegs, which never ask the solver."""
        ceiling = HanoiSolver(max_discs=100)
        moves = sum(map(len, trace_chunks(5, 200, 100, ceiling)))
        assert moves == 2 * ceiling.cost(5, 100) + ceiling.cost(4, 100)
        for chunks in (trace_chunks(4, 250, 100, ceiling), trace_chunks(3, 600, solver=ceiling)):
            head = list(islice(chunks, 8))
            assert_chunk_contract(head[:-1], moves_module.CHUNK_MOVES)
            assert sum(map(len, head)) > moves_module.CHUNK_MOVES

    def test_rejects_bad_fixed_split(self):
        with pytest.raises(DomainError):
            generate_frame_stewart(4, 5, 9)
        with pytest.raises(DomainError):
            generate_frame_stewart(4, 5, 0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(DomainError):
            generate_frame_stewart(4, 5, "fastest")


class TestValidate:
    def test_empty_moves_identity(self):
        config = Configuration(3, (0, 1, 2))
        assert validate_sequence(config, ()) == config

    def test_replays_generated_trace(self):
        trace = generate_three_peg(4)
        assert validate_sequence(trace.initial, trace.moves) == trace.final()

    def test_larger_on_smaller(self):
        config = Configuration(3, (0, 1))
        with pytest.raises(IllegalMove) as err:
            validate_sequence(config, (Move(2, 1, 0),))
        assert err.value.reason == LARGER_ON_SMALLER
        assert err.value.step == 1

    def test_not_top_disc(self):
        config = Configuration(3, (0, 0))
        with pytest.raises(IllegalMove) as err:
            validate_sequence(config, (Move(2, 0, 1),))
        assert err.value.reason == NOT_TOP_DISC

    def test_wrong_source_peg(self):
        config = Configuration(3, (0, 0))
        with pytest.raises(IllegalMove) as err:
            validate_sequence(config, (Move(1, 1, 2),))
        assert err.value.reason == WRONG_SOURCE_PEG

    def test_step_index_is_one_based(self):
        config = Configuration(3, (0, 0))
        moves = (Move(1, 0, 1), Move(2, 0, 2), Move(2, 2, 1))
        with pytest.raises(IllegalMove) as err:
            validate_sequence(config, moves)
        assert err.value.step == 3

    def test_unknown_disc_rejected(self):
        config = Configuration(3, (0,))
        with pytest.raises(DomainError):
            validate_sequence(config, (Move(2, 0, 1),))

    def test_move_with_equal_pegs_rejected(self):
        with pytest.raises(DomainError):
            Move(1, 0, 0)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    @settings(max_examples=50)
    def test_random_walks_validate(self, seed):
        rng = random.Random(seed)
        trace = random_walk(rng, rng.randint(3, 5), rng.randint(1, 5), rng.randint(0, 25))
        final = validate_sequence(trace.initial, trace.moves)
        assert final == trace.final()


class TestDiscMoveCounts:
    def test_four_disc_profile(self):
        assert disc_move_counts(generate_three_peg(4)) == (8, 4, 2, 1)

    def test_single_disc(self):
        assert disc_move_counts(generate_three_peg(1)) == (1,)

    def test_smallest_disc_moves_every_other_step(self):
        counts = disc_move_counts(generate_three_peg(6))
        assert counts[0] == 32

    @pytest.mark.parametrize("n", range(1, 11))
    def test_power_law(self, n):
        counts = disc_move_counts(generate_three_peg(n))
        assert counts == tuple(2 ** (n - j) for j in range(1, n + 1))
        assert sum(counts) == 2**n - 1


class TestGray:
    def test_two_disc_flip_sequence(self):
        report = gray_trace(generate_three_peg(2))
        assert report.flips == (1, 2, 1)
        assert report.single_flip and report.ruler_pattern

    def test_empty_tower(self):
        report = gray_trace(generate_three_peg(0))
        assert report.vectors == (0,)
        assert report.flips == ()
        assert report.single_flip and report.ruler_pattern

    def test_four_discs_ruler(self):
        report = gray_trace(generate_three_peg(4))
        assert len(report.flips) == 15
        assert report.ruler_pattern

    def test_consecutive_vectors_differ_in_one_bit(self):
        report = gray_trace(generate_three_peg(6))
        for a, b in zip(report.vectors, report.vectors[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_non_optimal_walk_breaks_ruler_only(self):
        config = Configuration.perfect(1, 3, 0)
        trace = MoveTrace(config, (Move(1, 0, 1), Move(1, 1, 2)))
        report = gray_trace(trace)
        assert report.single_flip
        assert not report.ruler_pattern

    def test_rejects_four_peg_trace(self):
        with pytest.raises(DomainError):
            gray_trace(generate_frame_stewart(4, 3))


class TestMoments:
    def test_single_move_delta_is_disc(self):
        for disc in (1, 2, 5):
            # disc sits alone on peg 0, everything smaller parked on peg 2
            pegs = tuple(2 if d < disc else 0 for d in range(1, disc + 1))
            trace = MoveTrace(Configuration(3, pegs), (Move(disc, 0, 1),))
            values = moment_trace(trace, 1)
            assert values[1] - values[0] == disc

    def test_three_disc_total_displacement(self):
        values = moment_trace(generate_three_peg(3), 1)
        assert values[-1] - values[0] == (1 + 2 + 3) * 2

    def test_second_moment_two_discs(self):
        trace = generate_three_peg(2)
        values = moment_trace(trace, 2)
        deltas = [b - a for a, b in zip(values, values[1:])]
        expected = [
            move.disc**2 * (move.target - move.source) for move in trace.moves
        ]
        assert deltas == expected

    def test_moment_law_on_random_walks(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(50):
            trace = random_walk(rng, rng.randint(3, 5), rng.randint(1, 6), 30)
            for order in (1, 2):
                values = moment_trace(trace, order)
                for (a, b), move in zip(zip(values, values[1:]), trace.moves):
                    assert b - a == move.disc**order * (move.target - move.source)

    def test_rejects_zero_order(self):
        with pytest.raises(DomainError):
            moment_trace(generate_three_peg(2), 0)


class TestSubtowers:
    def test_optimal_eight_disc_trace_is_independent(self, solver):
        report = verify_subtower_independence(generate_frame_stewart(4, 8, "optimal", solver))
        assert report.single_largest_move
        assert report.independent
        assert report.disjoint_outside_sink
        homes = dict(report.subtowers)
        assert homes[1] | homes[2] == set(range(1, 8))

    def test_single_disc_trivially_independent(self, solver):
        report = verify_subtower_independence(generate_frame_stewart(4, 1, "optimal", solver))
        assert report.independent
        assert all(not discs for _, discs in report.subtowers)

    def test_three_peg_degenerate_second_set(self):
        report = verify_subtower_independence(generate_three_peg(5))
        assert report.independent
        assert len(report.subtowers) == 1
        assert report.subtowers[0][1] == frozenset({1, 2, 3, 4})

    def test_largest_moving_twice_is_reported_not_raised(self):
        config = Configuration.perfect(2, 3, 0)
        moves = (Move(1, 0, 1), Move(2, 0, 2), Move(2, 2, 0), Move(2, 0, 2), Move(1, 1, 2))
        report = verify_subtower_independence(MoveTrace(config, moves))
        assert report.largest_move_count == 3
        assert not report.single_largest_move
        assert not report.independent

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_optimal_four_peg_trace(self, n, solver):
        report = verify_subtower_independence(generate_frame_stewart(4, n, "optimal", solver))
        assert report.single_largest_move and report.independent

    def test_interleaving_swaps_preserve_validity(self, solver):
        performed = 0
        for n in range(2, 13):
            trace = generate_frame_stewart(4, n, "optimal", solver)
            report = verify_subtower_independence(trace)
            group_of = {d: home for home, ds in report.subtowers for d in ds}
            start = next(
                i for i, m in enumerate(trace.moves) if m.disc == report.largest_disc
            ) + 1
            moves = list(trace.moves)
            for i in range(start, len(moves) - 1):
                a, b = moves[i], moves[i + 1]
                if group_of.get(a.disc) == group_of.get(b.disc):
                    continue
                if {a.source, a.target} & {b.source, b.target}:
                    continue  # moves contend for a peg: order stays fixed
                swapped = moves[:i] + [b, a] + moves[i + 2 :]
                assert len(swapped) == len(moves)
                final = validate_sequence(trace.initial, tuple(swapped))
                assert final == trace.final()
                performed += 1
        assert performed > 0  # the check must not be vacuous

    def test_interfering_walk_is_reported(self):
        report = verify_subtower_independence(INTERFERING_WALK)
        assert report.single_largest_move
        assert not report.independent
        assert not report.disjoint_outside_sink

    def test_random_walks_match_brute_force_scan(self):
        """The report matches the brute-force scan and the per-move fold
        of :class:`ReferenceSubtowerFold` however the walk is cut into
        chunks: each of the largest disc's moves is put at the start, in
        the middle and at the end of a chunk, with random cuts besides.  A
        walk with one broken move fails the replay the same way."""
        rng = random.Random(20240601)
        single = interfering = twice = 0
        for _ in range(3000):
            pegs, discs = rng.randint(3, 5), rng.randint(1, 5)
            trace = random_walk(rng, pegs, discs, rng.randint(0, 40))
            report = verify_subtower_independence(trace)
            expected = brute_force_subtowers(trace)
            assert report.disjoint_outside_sink == report.independent
            reference = ReferenceSubtowerFold(trace.initial)
            reference.feed([(m.disc, m.source, m.target) for m in trace.moves])
            assert reference.report() == (
                report.largest_move_count, report.sink_peg, report.subtowers, report.independent
            )
            hits = [i for i, move in enumerate(trace.moves) if move.disc == discs]
            assert report.largest_move_count == len(hits)
            for cuts in _cuts_around(rng, hits, len(trace)):
                assert _folded(trace, cuts) == report
            if len(hits) > 1:
                twice += 1
                broken = list(trace.moves)
                broken[hits[1]] = Move(discs, broken[hits[1]].target, broken[hits[1]].source)
                illegal = MoveTrace(trace.initial, tuple(broken))
                with pytest.raises(IllegalMove) as err:
                    verify_subtower_independence(illegal)
                for cuts in _cuts_around(rng, hits, len(trace)):
                    with pytest.raises(IllegalMove) as cut_err:
                        _folded(illegal, cuts)
                    assert str(cut_err.value) == str(err.value)
            if expected is None:
                assert not report.single_largest_move and not report.independent
                continue
            single += 1
            interfering += not expected[1]
            assert (report.subtowers, report.independent) == expected
        # every branch is reached
        assert single > 100 and interfering > 100 and twice > 100


class TestTraceExport:
    def test_single_move_csv(self):
        assert trace_to_csv(generate_three_peg(1)) == "step,disc,from,to\n1,1,A,C\n"

    def test_header_always_present(self):
        assert trace_to_csv(generate_three_peg(0)) == "step,disc,from,to\n"

    def test_row_format(self):
        text = trace_to_csv(generate_frame_stewart(4, 2))
        assert text == "step,disc,from,to\n1,1,A,B\n2,2,A,D\n3,1,B,D\n"


class TestSnapshots:
    def test_lazy_snapshots_match_replay(self):
        trace = generate_three_peg(3)
        snaps = list(trace.configurations())
        assert len(snaps) == len(trace) + 1
        assert snaps[0] == trace.initial
        assert snaps[-1] == trace.final()

    def test_every_prefix_is_legal(self):
        trace = generate_frame_stewart(4, 5)
        for stop in range(len(trace) + 1):
            validate_sequence(trace.initial, trace.moves[:stop])


def _strategies(pegs: int, discs: int) -> list:
    if pegs == 3:
        return ["optimal"]
    return ["optimal", "balanced", *range(1, discs)]


def _generate(pegs: int, discs: int, strategy, solver) -> MoveTrace:
    if pegs == 3:
        return generate_three_peg(discs)
    return generate_frame_stewart(pegs, discs, strategy, solver)


class TestTraceChecks:
    @pytest.mark.parametrize("pegs", [3, 4, 5, 6])
    def test_length_and_checks_match_every_generated_trace(self, pegs, solver):
        for n in range(13):
            for strategy in _strategies(pegs, n):
                trace = _generate(pegs, n, strategy, solver)
                assert trace_length(pegs, n, strategy, solver) == len(trace)
                assert verify_trace(trace, strategy, solver) == ()

    def test_length_needs_no_trace(self):
        assert trace_length(3, 64) == 2**64 - 1

    def test_strategy_sets_the_expected_length(self, solver):
        trace = generate_frame_stewart(4, 13, "balanced", solver)
        assert verify_trace(trace, "balanced", solver) == ()
        assert verify_trace(trace, "optimal", solver) == (
            "length 161 differs from predicted 97",
        )

    def test_three_pegs_take_only_the_optimal_strategy(self):
        with pytest.raises(DomainError, match="three-peg traces only support"):
            trace_length(3, 4, "balanced")
        with pytest.raises(DomainError, match="three-peg traces only support"):
            trace_length(3, 4, 2)

    def test_rejects_bad_strategies(self):
        with pytest.raises(DomainError, match="fixed split"):
            trace_length(4, 5, 9)
        with pytest.raises(DomainError, match="unknown strategy"):
            trace_length(4, 5, "fastest")
        with pytest.raises(DomainError, match="non-negative"):
            trace_length(4, -1, 1)

    def test_illegal_swap_fails_replay(self):
        trace = generate_three_peg(3)
        moves = (trace.moves[1], trace.moves[0]) + trace.moves[2:]
        failures = verify_trace(MoveTrace(trace.initial, moves))
        assert len(failures) == 1
        assert failures[0].startswith("replay failed: illegal move at step 1")

    def test_wrong_target_peg(self):
        assert verify_trace(generate_three_peg(3, target=1)) == (
            "replay does not end all-on-target",
        )

    def test_truncated_trace(self, solver):
        trace = generate_frame_stewart(4, 5, "optimal", solver)
        failures = verify_trace(MoveTrace(trace.initial, trace.moves[:-1]), solver=solver)
        assert failures[:2] == (
            "replay does not end all-on-target",
            "length 12 differs from predicted 13",
        )

    def test_longer_three_peg_walk_breaks_ruler(self):
        walk = MoveTrace(Configuration.perfect(1, 3), (Move(1, 0, 1), Move(1, 1, 2)))
        assert verify_trace(walk) == (
            "length 2 differs from predicted 1",
            "flip sequence does not follow the ruler pattern",
        )

    def test_largest_disc_moved_twice_on_four_pegs(self):
        walk = MoveTrace(Configuration.perfect(1, 4), (Move(1, 0, 1), Move(1, 1, 3)))
        assert verify_trace(walk) == (
            "length 2 differs from predicted 1",
            "largest disc moved 2 times, expected once",
        )

    @pytest.mark.parametrize("pegs", [3, 4, 5])
    def test_negative_pegs_are_off_the_board(self, pegs):
        """A negative peg is not counted from the end of the board."""
        for bad in range(-2 * pegs - 2, 0):
            for move in ((1, 0, bad), (1, bad, 1)):
                check = TraceCheck(Configuration.perfect(1, pegs))
                with pytest.raises(DomainError) as err:
                    check.feed([move])
                assert str(err.value) == "move 1 references a peg outside the board"

    def test_interfering_walk(self):
        assert verify_trace(INTERFERING_WALK) == (
            "length 7 differs from predicted 5",
            "subtowers interfere after the largest-disc move",
        )

    @pytest.mark.parametrize("pegs", [3, 4])
    def test_replays_once(self, pegs, monkeypatch, capsys):
        """verify_trace and ``moves --verify`` check every step exactly
        once, in order, over a trace of more than one chunk: each by the
        move-by-move replay or by one swap of a block's recorded runs, and
        a block is replayed move by move only at its first sighting."""
        discs = 16 if pegs == 3 else 46
        checked, replays, applied = [], Counter(), []
        fed = [0, 0]  # first step and moves of the chunk being fed
        real_feed, real_replay = TraceCheck.feed, moves_module._replay
        real_swap = moves_module._swap

        def feed(self, chunk):
            fed[:] = self.moves + 1, len(chunk)
            real_feed(self, chunk)

        def replay(stacks, chunk, first, n, *fold):
            checked.extend(range(first, first + len(chunk)))
            if type(chunk) is moves_module._Block:
                replays[chunk] += 1
            return real_replay(stacks, chunk, first, n, *fold)

        def swap(stacks, pegs, runs, bases):
            real_swap(stacks, pegs, runs, bases)
            checked.extend(range(fed[0], sum(fed)))
            applied.append(fed[0])

        monkeypatch.setattr(TraceCheck, "feed", feed)
        monkeypatch.setattr(moves_module, "_replay", replay)
        monkeypatch.setattr(moves_module, "_swap", swap)
        trace = generate_three_peg(discs) if pegs == 3 else generate_frame_stewart(4, discs)
        steps = list(range(1, len(trace) + 1))
        assert len(trace) > moves_module.CHUNK_MOVES
        assert verify_trace(trace) == ()
        assert checked == steps and not replays  # a held trace streams as lists
        checked.clear()
        assert main(["moves", "--pegs", str(pegs), "--discs", str(discs), "--verify"]) == 0
        capsys.readouterr()
        assert checked == steps
        assert max(replays.values(), default=0) <= 1
        if pegs == 3:  # 16 plays of 3 distinct 12-disc blocks
            assert len(replays) == 3 and len(applied) == 13

    def test_public_checks_still_replay(self):
        trace = generate_three_peg(3)
        illegal = MoveTrace(trace.initial, (trace.moves[1],) + trace.moves[2:])
        with pytest.raises(IllegalMove):
            gray_trace(illegal)
        with pytest.raises(IllegalMove):
            verify_subtower_independence(illegal)


def _streamed_csv(pegs, discs, strategy, solver, source, target) -> str:
    csv = TraceCsv()
    chunks = trace_chunks(pegs, discs, strategy, solver, source, target)
    return csv.HEADER + "".join(csv.rows(chunk) for chunk in chunks)


class TestAgainstRecursiveReference:
    @pytest.mark.parametrize("pegs", [3, 4, 5, 6])
    def test_moves_and_csv_bytes(self, pegs, solver):
        pairs = [(a, b) for a in range(pegs) for b in range(pegs) if a != b]
        for n in range(13):
            for strategy in _strategies(pegs, n):
                for source, target in pairs:
                    expected = reference_moves(pegs, n, strategy, solver, source, target)
                    if pegs == 3:
                        trace = generate_three_peg(n, source, target)
                    else:
                        trace = generate_frame_stewart(pegs, n, strategy, solver, source, target)
                    assert trace.moves == tuple(expected)
                    text = reference_csv(expected)
                    assert trace_to_csv(trace) == text
                    assert _streamed_csv(pegs, n, strategy, solver, source, target) == text

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_chunk_size_streams_the_reference(self, data):
        """The chunks keep the chunk contract and concatenate to the
        reference trace, and the one-pass check gives the same verdict
        whatever the chunk size."""
        solver = HanoiSolver()
        pegs = data.draw(st.integers(3, 7), label="pegs")
        discs = data.draw(st.integers(0, 10 if pegs == 3 else 16), label="discs")
        strategy = data.draw(st.sampled_from(_strategies(pegs, discs)), label="strategy")
        source, target = data.draw(st.permutations(range(pegs)), label="pegs order")[:2]
        size = data.draw(st.integers(1, 40), label="chunk size")
        with mock.patch.object(moves_module, "CHUNK_MOVES", size):
            chunks = list(trace_chunks(pegs, discs, strategy, solver, source, target))
        assert_chunk_contract(chunks, size)
        expected = reference_moves(pegs, discs, strategy, solver, source, target)
        assert [move for chunk in chunks for move in chunk] == [
            (m.disc, m.source, m.target) for m in expected
        ]
        check = TraceCheck(Configuration.perfect(discs, pegs, source), strategy, solver)
        for chunk in chunks:
            check.feed(chunk)
        ends_elsewhere = discs and target != pegs - 1
        assert check.failures() == (
            ("replay does not end all-on-target",) if ends_elsewhere else ()
        )
        assert check.moves == len(expected)

    def test_illegal_step_is_numbered_across_chunks(self):
        trace = generate_three_peg(13)
        cut = moves_module.CHUNK_MOVES
        moves = list(trace.moves)
        moves[cut - 1], moves[cut] = moves[cut], moves[cut - 1]
        with pytest.raises(IllegalMove) as err:
            validate_sequence(trace.initial, moves)
        assert err.value.step in (cut, cut + 1)
        failures = verify_trace(MoveTrace(trace.initial, tuple(moves)))
        assert failures == (f"replay failed: {err.value}",)


class TestRulerTemplates:
    """The templates cover steps 1 .. 4,095, so a tower of 13 or more
    discs splits into 12-disc blocks and single moves of its larger discs,
    and the ruler check computes each multiple of 4,096 on its own."""

    @pytest.mark.parametrize("lowest", [1, 5])
    def test_ruler_is_the_recursive_tower(self, lowest):
        for src, dst, spare in permutations(range(3)):
            for count in range(13):
                expected: list[Move] = []
                _emit_three(count, lowest, src, dst, spare, expected)
                assert moves_module._ruler(count, lowest, src, dst, spare) == [
                    (m.disc, m.source, m.target) for m in expected
                ]

    @pytest.mark.parametrize("size", [4096, 4095, 1000, 5000, 10000])
    @pytest.mark.parametrize(
        "pegs, discs, strategy", [(3, 13, "optimal"), (3, 14, "optimal"), (4, 80, 66)]
    )
    def test_streams_the_reference_ruler(self, pegs, discs, strategy, size, solver):
        """Above 4,096 moves per chunk, blocks are still cut to fit the
        templates; (4, 80, fixed:66) shuttles a 14-disc three-peg tower,
        which starts in a partly filled chunk."""
        with mock.patch.object(moves_module, "CHUNK_MOVES", size):
            chunks = list(trace_chunks(pegs, discs, strategy, solver))
        assert_chunk_contract(chunks, size)
        assert [move for chunk in chunks for move in chunk] == [
            (m.disc, m.source, m.target)
            for m in reference_moves(pegs, discs, strategy, solver, 0, pegs - 1)
        ]
        check = TraceCheck(Configuration.perfect(discs, pegs), strategy, solver)
        for chunk in chunks:
            check.feed(chunk)
        assert check.failures() == ()

    @pytest.mark.parametrize("size", [4096, 1000])
    @pytest.mark.parametrize("step", [4096, 8192])
    def test_ruler_failure_at_a_block_boundary(self, step, size):
        """Disc 1 steps aside and back at ``step``, so the trace stays
        legal but another disc moves there."""
        moves = [move for chunk in trace_chunks(3, 14) for move in chunk]
        disc, src, dst = moves[step - 2]  # the smallest disc moves just before
        assert disc == 1
        spare = 3 - src - dst
        moves[step - 1 : step - 1] = [(1, dst, spare), (1, spare, dst)]
        check = TraceCheck(Configuration.perfect(14, 3))
        for at in range(0, len(moves), size):
            check.feed(moves[at : at + size])
        assert check.failures() == (
            f"length {len(moves)} differs from predicted {len(moves) - 2}",
            "flip sequence does not follow the ruler pattern",
        )

    @pytest.mark.parametrize("size", [4096, 4095, 1000, 5000])
    def test_each_step_of_the_ruler_is_checked(self, size):
        """A single wrong disc fails the ruler check, whether it falls on
        a block boundary or inside a block, and however the steps are cut."""
        discs = tuple(move[0] for chunk in trace_chunks(3, 14) for move in chunk)

        def follows(flips):
            return all(
                moves_module._follows_ruler(flips[at : at + size], at + 1)
                for at in range(0, len(flips), size)
            )

        assert follows(discs)
        for step in (1, 4095, 4096, 4097, 8191, 8192, 12288, 16383):
            changed = list(discs)
            changed[step - 1] += 1
            assert not follows(tuple(changed)), step


def block_spans(pegs, count, solver, size, split=None, at=0) -> list[tuple[int, int]]:
    """(index of the first move, moves) of each memoised three-peg block
    of two or more discs in a Frame-Stewart trace at chunk size ``size``,
    in order, from the reference's park / shuttle / rebuild recursion and
    the solver's costs; a three-peg tower of ``size`` or more moves splits
    at count - 1."""
    if count < 2:
        return []
    if pegs == 3:
        if 1 << count <= size:
            return [(at, 2**count - 1)]
        half = 2 ** (count - 1)
        return block_spans(3, count - 1, solver, size, None, at) + block_spans(
            3, count - 1, solver, size, None, at + half
        )
    k = solver.solve(pegs, count).canonical_split if split is None else split
    shuttle = at + solver.cost(pegs, k)
    rebuild = shuttle + solver.cost(pegs - 1, count - k)
    return (
        block_spans(pegs, k, solver, size, None, at)
        + block_spans(pegs - 1, count - k, solver, size, None, shuttle)
        + block_spans(pegs, k, solver, size, None, rebuild)
    )


def block_spec(moves: list[tuple[int, int, int]]) -> tuple[int, int, int, int, int]:
    """(count, lowest disc, from, to, spare) of a three-peg tower of two or
    more discs, read off its moves: the largest disc moves once, in the
    middle, and the tower uses three pegs."""
    _, src, dst = moves[len(moves) // 2]
    (spare,) = {peg for _, a, b in moves for peg in (a, b)} - {src, dst}
    return len(moves).bit_length(), min(disc for disc, _, _ in moves), src, dst, spare


def memo_of(pegs, discs, strategy, solver):
    """(moves, moves the memo keeps, of them in three-peg blocks) of a
    whole trace, read from the generator's locals as it yields its last
    chunk, when the memo is fullest."""
    chunks = trace_chunks(pegs, discs, strategy, solver)
    moves = kept = three = 0
    for chunk in chunks:
        moves += len(chunk)
        local = chunks.gi_frame.f_locals
        kept = sum(map(len, local["blocks"].values()))
        three = sum(
            len(block)
            for (_, _, plan), block in local["blocks"].items()
            if len(local["plans"][plan][0]) == 3
        )
    return moves, kept, three


def walk_census(pegs, discs, strategy, solver):
    """Per block on four or more pegs (a task of two or more discs there
    shorter than a chunk): how often the walk popped it and how often it
    split it, counted by tracing the lines of ``_walk`` that look the
    task up and that split it; and the tasks kept in the memo at the
    end."""
    lines, first = inspect.getsourcelines(moves_module._walk)
    lookup = first + next(i for i, line in enumerate(lines) if "blocks.get(task)" in line)
    split = first + next(i for i, line in enumerate(lines) if "tasks += ((k," in line)
    popped, splits = Counter(), Counter()
    code = moves_module._walk.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in (lookup, split):
            names = frame.f_locals
            count, _, plan = task = names["task"]
            usable = len(names["plans"][plan][0])
            if count > 1 and usable > 3 and solver.cost(usable, count) < moves_module.CHUNK_MOVES:
                (popped if frame.f_lineno == lookup else splits)[task] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    chunks = trace_chunks(pegs, discs, strategy, solver)
    sys.settrace(calls)
    try:
        for _ in chunks:
            kept = set(chunks.gi_frame.f_locals["blocks"])
    finally:
        sys.settrace(None)
    return popped, splits, kept


class TestBlockMemo:
    """An optimal sub-solve shorter than a chunk is a block.  A three-peg
    block is built once per trace; a block on four or more pegs is kept
    once it is asked for a second time.  A kept block is spliced into the
    chunk stream wherever it recurs."""

    @pytest.mark.parametrize("size", [4096, 8])
    @pytest.mark.parametrize(
        "pegs, discs, strategy",
        [(3, 14, "optimal"), (4, 40, "optimal"), (4, 40, 30), (5, 90, "optimal"), (6, 150, 100)],
    )
    def test_ruler_runs_once_per_distinct_block(self, pegs, discs, strategy, size, solver):
        """Each distinct three-peg block of fewer than CHUNK_MOVES moves is
        built by the ruler once, also where it lies inside a kept block on
        more pegs; a longer three-peg tower splits into such blocks and
        never reaches the ruler."""
        real = moves_module._ruler
        built = []

        def counting(*spec):
            built.append(spec)
            return real(*spec)

        with mock.patch.object(moves_module, "_ruler", counting):
            with mock.patch.object(moves_module, "CHUNK_MOVES", size):
                chunks = list(trace_chunks(pegs, discs, strategy, solver))
        expected = [
            (m.disc, m.source, m.target)
            for m in reference_moves(pegs, discs, strategy, solver, 0, pegs - 1)
        ]
        split = moves_module._top_split(pegs, discs, strategy)
        spans = block_spans(pegs, discs, solver, size, split)
        occurring = [block_spec(expected[at : at + n]) for at, n in spans]
        assert len(set(occurring)) < len(occurring)  # short blocks recur
        assert sorted(built) == sorted(set(occurring))
        assert all(1 << count <= size for count, *_ in built)
        assert_chunk_contract(chunks, size)
        assert [move for chunk in chunks for move in chunk] == expected

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_blocks_splice_across_chunk_boundaries(self, size, solver):
        """Blocks of exactly size - 1 moves land in partly filled chunks,
        and blocks end exactly on a chunk boundary; the chunks keep the
        chunk contract and the stream is the reference trace."""
        into_partial = on_boundary = 0
        for pegs in (4, 5):
            for discs in range(2, 15):
                for strategy in _strategies(pegs, discs):
                    split = moves_module._top_split(pegs, discs, strategy)
                    spans = block_spans(pegs, discs, solver, size, split)
                    into_partial += sum(at % size > 0 and n == size - 1 for at, n in spans)
                    on_boundary += sum((at + n) % size == 0 for at, n in spans)
                    with mock.patch.object(moves_module, "CHUNK_MOVES", size):
                        chunks = list(trace_chunks(pegs, discs, strategy, solver))
                    assert_chunk_contract(chunks, size)
                    assert [move for chunk in chunks for move in chunk] == [
                        (m.disc, m.source, m.target)
                        for m in reference_moves(pegs, discs, strategy, solver, 0, pegs - 1)
                    ]
        assert into_partial > 10 and on_boundary > 10

    @pytest.mark.parametrize("stop", [None, 80])
    def test_nothing_outlives_the_trace(self, stop, solver):
        """The blocks a trace keeps are freed with its generator, whether
        the trace is read to the end or dropped after ``stop`` chunks."""
        # fill the solver's and the ruler's caches
        lengths = list(map(len, trace_chunks(5, 460, solver=solver)))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            chunks = trace_chunks(5, 460, solver=solver)
            read = sum(map(len, islice(chunks, stop)))
            assert read == sum(lengths[:stop]) and sum(lengths) == 688_127
            del chunks
            gc.collect()  # also empties the free lists, which tracemalloc counts as held
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start > 512 * 1024  # the 300,776 moves of its blocks, while it runs
        assert left - start < 64 * 1024

    def test_one_peg_per_disc(self, solver):
        """With n <= p - 2 discs each disc can rest on a peg of its own:
        T_p(n) = 2n - 1, reached only by parking one disc, which is what
        the walk assumes for such a sub-solve without asking the solver."""
        for pegs in range(4, 65):
            for discs in range(2, pegs - 1):
                best = solver.solve(pegs, discs)
                assert (best.cost, best.argmin_splits) == (2 * discs - 1, (1,)), (pegs, discs)

    def test_wide_traces_never_ask_the_solver(self):
        """Each sub-solve of a 1050-disc tower on 1100 pegs has at most
        p - 2 discs on its p pegs, so the walk leaves no cost table."""
        solver = HanoiSolver(max_discs=1050)
        with mock.patch.object(solver, "solve", side_effect=AssertionError("solver asked")):
            chunks = list(trace_chunks(1100, 1050, solver=solver))
        assert solver._memo == {}
        check = TraceCheck(Configuration.perfect(1050, 1100), solver=solver)
        for chunk in chunks:
            check.feed(chunk)
        assert check.failures() == () and check.moves == 2099

    def test_a_wide_board_holds_one_slot_per_peg(self, solver):
        """A 5-move trace on a million pegs: the walk's plans hold the n + 2
        lowest pegs and the end check counts the target's discs down its
        stack, so only the replay's one slot per peg grows with p."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            check = TraceCheck(Configuration.perfect(3, 10**6), solver=solver)
            for chunk in trace_chunks(10**6, 3, solver=solver):
                check.feed(chunk)
            failures = check.failures()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert failures == () and check.moves == 5
        # 69 MiB with every peg in each plan and a disc list per peg
        assert peak - start < 16 * 2**20

    @pytest.mark.parametrize(
        "pegs, discs, strategy",
        [(4, 40, "optimal"), (5, 90, "optimal"), (6, 150, 100), (6, 469, "optimal"), (8, 512, 500)],
    )
    def test_blocks_on_more_pegs_split_at_most_twice(self, pegs, discs, strategy, solver):
        """A block on four or more pegs splits on its first and second
        request and is kept after the second; from the third request on it
        is spliced, so it never splits a third time."""
        popped, splits, kept = walk_census(pegs, discs, strategy, solver)
        assert popped and max(popped.values()) >= 3  # some blocks recur often
        for task, requests in popped.items():
            assert splits[task] == min(requests, 2)
            assert (task in kept) == (requests >= 2)
        assert set(splits) <= set(popped)

    @pytest.mark.parametrize(
        "pegs, discs, strategy",
        [
            # the seeded traces of the benchmark at seed 1
            (3, 18, "optimal"),
            (4, 80, "optimal"),
            (4, 80, 68),
            (5, 231, "optimal"),
            (5, 224, 163),
            (6, 469, "optimal"),
            (6, 435, 277),
            # the largest memo measured against its trace, and wide spaces
            (6, 475, "optimal"),
            (7, 466, "optimal"),
            (6, 472, 324),
            (300, 512, "optimal"),
            (600, 512, "optimal"),
        ],
    )
    def test_memo_stays_within_the_stated_bound(self, pegs, discs, strategy, solver):
        """The three-peg blocks hold at most the trace's own moves (proven:
        they never nest), and the whole memo at most 1.22 times them (the
        measured bound); with n < p - 1 no sub-solve recurs, so the memo
        stays empty."""
        moves, kept, three = memo_of(pegs, discs, strategy, solver)
        assert moves == trace_length(pegs, discs, strategy, solver)
        assert three <= moves
        assert kept <= 1.22 * moves
        if discs < pegs - 1:
            assert kept == 0

    @pytest.mark.parametrize("pegs", [*range(4, 13), 16, 24, 40, 100, 300, 600])
    def test_memo_bound_over_a_sweep(self, pegs, solver):
        """Every 7th disc count up to 512 whose trace has at most 60,000
        moves keeps the memo within 1.22 times the trace's moves."""
        for discs in range(2, 513, 7):
            if solver.cost(pegs, discs) > 60_000:
                break
            moves, kept, three = memo_of(pegs, discs, "optimal", solver)
            assert three <= moves and kept <= 1.22 * moves, (discs, moves, kept)


class TestReplayErrors:
    """The linked-stack replay gives the same error, at the same step, as
    the stack-based reference, for one corrupted move in a legal walk."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_corrupted_move(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="walk seed"))
        pegs, discs = data.draw(st.integers(3, 5)), data.draw(st.integers(1, 5))
        walk = random_walk(rng, pegs, discs, data.draw(st.integers(0, 30), label="steps"))
        moves = [(m.disc, m.source, m.target) for m in walk.moves]
        bad = (
            data.draw(st.integers(0, discs + 2), label="disc"),
            data.draw(st.integers(-pegs - 1, pegs + 1), label="source"),
            data.draw(st.integers(-pegs - 1, pegs + 1), label="target"),
        )
        moves.insert(data.draw(st.integers(0, len(moves)), label="at"), bad)
        size = data.draw(st.integers(1, 8), label="chunk size")
        try:
            stacks = reference_replay(walk.initial, moves)
        except (DomainError, IllegalMove) as exc:
            expected = exc
        else:
            expected = None

        with mock.patch.object(moves_module, "CHUNK_MOVES", size):
            raw = [RawMove(*move) for move in moves]
            if expected is None:
                final = validate_sequence(walk.initial, raw)
                assert final.stacks() == stacks
            else:
                with pytest.raises(type(expected)) as err:
                    validate_sequence(walk.initial, raw)
                assert str(err.value) == str(expected)

        check = TraceCheck(walk.initial)

        def feed():
            for at in range(0, len(moves), size):
                check.feed(moves[at : at + size])

        if isinstance(expected, DomainError):
            with pytest.raises(DomainError) as err:
                feed()
            assert str(err.value) == str(expected)
            return
        feed()
        replay = [f for f in check.failures() if f.startswith("replay")]
        if isinstance(expected, IllegalMove):
            assert replay == [f"replay failed: {expected}"]
        else:
            on_target = len(stacks[pegs - 1]) == discs
            assert replay == ([] if on_target else ["replay does not end all-on-target"])


def _after(config: Configuration, move) -> Configuration | None:
    """The configuration after one move, or None where the move is illegal."""
    try:
        stacks = reference_replay(config, [move])
    except (DomainError, IllegalMove):
        return None
    where = [0] * config.num_discs
    for peg, stack in enumerate(stacks):
        for disc in stack:
            where[disc - 1] = peg
    return Configuration(config.num_pegs, tuple(where))


def _checked(initial: Configuration, chunks) -> tuple:
    """(failures, moves) of a TraceCheck fed ``chunks``, or the message of
    the DomainError that feeding raised."""
    check = TraceCheck(initial)
    try:
        for chunk in chunks:
            check.feed(chunk)
    except DomainError as exc:
        return ("raised", str(exc))
    return check.failures(), check.moves


def _reference_checked(initial: Configuration, chunks) -> tuple:
    """What :func:`_checked` gives, from the stack-based replay and the
    per-move subtower fold of :class:`ReferenceSubtowerFold`."""
    pegs, discs = initial.num_pegs, initial.num_discs
    moves = [tuple(move) for chunk in chunks for move in chunk]
    failures = []
    try:
        stacks = reference_replay(initial, moves)
    except DomainError as exc:
        return ("raised", str(exc))
    except IllegalMove as exc:
        failures.append(f"replay failed: {exc}")
    else:
        if discs and len(stacks[pegs - 1]) != discs:
            failures.append("replay does not end all-on-target")
    predicted = trace_length(pegs, discs)
    if len(moves) != predicted:
        failures.append(f"length {len(moves)} differs from predicted {predicted}")
    if failures and failures[0].startswith("replay failed"):
        return tuple(failures), len(moves)
    if pegs == 3 and any(disc != (t & -t).bit_length() for t, (disc, _, _) in enumerate(moves, 1)):
        failures.append("flip sequence does not follow the ruler pattern")
    if pegs == 4 and discs:
        fold = ReferenceSubtowerFold(initial)
        fold.feed(moves)
        hits, _, _, independent = fold.report()
        if hits != 1:
            failures.append(f"largest disc moved {hits} times, expected once")
        elif not independent:
            failures.append("subtowers interfere after the largest-disc move")
    return tuple(failures), len(moves)


def _after_all(config: Configuration | None, moves) -> Configuration | None:
    """The configuration after legal ``moves``, or None."""
    for move in moves:
        config = config and _after(config, move)
    return config


def four_peg_stream(rng: random.Random, discs: int) -> tuple[Configuration, list]:
    """A stream of block chunks and list chunks on four pegs from a random
    start, in which the largest disc moves about once, sometimes twice.

    Blocks are short walks of the discs up to some c, most walked back
    again, so that they recur before and after the largest disc's move,
    on runs that may sit on discs of other groups; a block with the
    largest disc is played where it is legal, like any other.  List
    chunks are walks of one to three moves, so the largest disc's moves
    fall at the start, the middle and the end of a chunk, and now and
    then a junk move."""
    pegs = 4
    home = Configuration(pegs, tuple(rng.randrange(pegs) for _ in range(discs)))
    largest_moves = rng.choice([1, 1, 1, 2])

    def walk(config, largest, steps):
        nonlocal largest_moves
        moves = []
        for _ in range(steps):
            options = [
                m for m in legal_moves(config)
                if m.disc <= largest and (m.disc < discs or largest_moves and rng.random() < 0.3)
            ]
            if not options:
                break
            move = rng.choice(options)
            largest_moves -= move.disc == discs
            moves.append((move.disc, move.source, move.target))
            config = config.apply(move)
        return moves

    blocks = []
    for _ in range(rng.randint(1, 4)):
        saved, largest_moves = largest_moves, 1
        moves = walk(home, rng.randint(1, discs), rng.randint(1, 6))
        largest_moves = saved
        if rng.random() < 0.8:
            moves += [(disc, b, a) for disc, a, b in reversed(moves)]
        if moves:
            blocks.append(moves_module._Block(moves))
    stream, state = [], home
    for _ in range(rng.randint(1, 40)):
        playable = [block for block in blocks if _after_all(state, block) is not None]
        if rng.random() < 0.5 and playable:
            chunk = rng.choice(playable)
        elif rng.random() < 0.02:
            chunk = [(rng.randint(0, discs + 1), rng.randrange(-1, pegs + 1), rng.randrange(pegs))]
        else:
            chunk = walk(state, discs, rng.randint(1, 3))
        if chunk:
            state = _after_all(state, chunk)
            stream.append(chunk)
        if state is None:
            break
    return home, stream


class TestBlockChunks:
    """A block chunk is checked by its recorded effect from its second
    sighting on, wherever its before-runs match; the verdict is always
    that of the same moves fed as plain lists."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_block_streams_check_as_plain_lists(self, seed, pegs, discs):
        """Streams of a few blocks, played from many states between list
        chunks of legal walks and of junk moves."""
        rng = random.Random(seed)
        home = Configuration(pegs, tuple(rng.randrange(pegs) for _ in range(discs)))

        def junk():
            """A move that may be illegal, off the board, on a negative peg
            or of an unknown disc."""
            peg = range(-2 * pegs - 2, 2 * pegs + 2)
            return rng.randint(-1, discs + 2), rng.choice(peg), rng.choice(peg)

        def walk(config, largest, steps):
            """A legal walk of the discs up to ``largest``, most walked back
            again so that they leave the state as they found it."""
            config, moves = Configuration(pegs, config.pegs[:largest]), []
            for _ in range(steps):
                move = rng.choice(legal_moves(config))
                moves.append((move.disc, move.source, move.target))
                config = config.apply(move)
            if rng.random() < 0.8:
                moves += [(disc, b, a) for disc, a, b in reversed(moves)]
            return moves

        # blocks walk from ``home``; a few hold a junk move
        blocks = []
        for _ in range(rng.randint(1, 3)):
            moves = walk(home, rng.randint(1, discs), rng.randint(1, 8))
            if rng.random() < 0.1:
                moves[rng.randrange(len(moves))] = junk()
            blocks.append(moves_module._Block(moves))
        # list chunks walk from the current state, or hold one junk move
        stream, state = [], home
        for _ in range(rng.randint(1, 40)):
            kind = rng.random()
            if kind < 0.5:
                chunk = rng.choice(blocks)
            elif kind < 0.55 or state is None:
                chunk = [junk()]
            else:
                chunk = walk(state, discs, rng.randint(1, 3))
            for move in chunk:
                state = state and _after(state, move)
            stream.append(chunk)
        assert _checked(home, stream) == _checked(home, [list(chunk) for chunk in stream])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_four_peg_streams_check_as_the_reference(self, seed, discs):
        """Four-peg streams around the largest disc's moves (see
        :func:`four_peg_stream`) check as the per-move subtower fold and
        the stack-based replay do, and as the same moves fed as lists."""
        home, stream = four_peg_stream(random.Random(seed), discs)
        expected = _reference_checked(home, stream)
        assert _checked(home, stream) == expected
        assert _checked(home, [list(chunk) for chunk in stream]) == expected

    def test_four_peg_streams_reach_every_case(self, monkeypatch):
        """The streams of :func:`four_peg_stream` reach each case of the
        block rule on four pegs: a block first seen before the critical
        move and swapped in after it, a block replayed after the critical
        move because the groups under its runs changed, a largest disc in
        a block, interference found and a largest disc that moves twice."""
        cases = Counter()
        real_swap, real_replay = moves_module._swap, moves_module._replay
        current = {}

        def swap(state, pegs, runs, bases):
            fold = current["check"]._subtowers
            if fold.hits == 1:
                seen = current["seen"]
                cases["swapped after the critical move"] += 1
                cases["first seen before it"] += seen in current["early"]
            real_swap(state, pegs, runs, bases)

        def replay(state, chunk, first, n, *fold):
            if type(chunk) is moves_module._Block and fold[0].watching:
                seen = current["check"]._seen.get(id(chunk))
                if seen and seen.clean and seen.pegs:
                    runs, _ = moves_module._runs(state, seen.pegs, seen.largest)
                    cases["replayed with new groups"] += runs == seen.before
            real_replay(state, chunk, first, n, *fold)

        monkeypatch.setattr(moves_module, "_swap", swap)
        monkeypatch.setattr(moves_module, "_replay", replay)
        rng = random.Random(20261020)
        for _ in range(400):
            home, stream = four_peg_stream(rng, rng.randint(2, 6))
            check = current["check"] = TraceCheck(home)
            current["early"] = early = set()
            try:
                for chunk in stream:
                    if type(chunk) is moves_module._Block:
                        current["seen"] = check._seen.get(id(chunk))
                        cases["largest disc in a block"] += max(chunk)[0] == home.num_discs
                    check.feed(chunk)
                    if type(chunk) is moves_module._Block and not check._subtowers.hits:
                        early.add(check._seen[id(chunk)])
            except DomainError as exc:
                assert _reference_checked(home, stream) == ("raised", str(exc))
                continue
            failures = check.failures()
            cases["interfering"] += "subtowers interfere after the largest-disc move" in failures
            cases["moved twice"] += "largest disc moved 2 times, expected once" in failures
            assert failures == _reference_checked(home, stream)[0]
        assert len(cases) == 6 and min(cases.values()) >= 3, cases

    @pytest.mark.parametrize("twice", [False, True])
    def test_interfering_walk_in_blocks(self, twice):
        """INTERFERING_WALK, and a walk whose largest disc moves twice,
        cut into block and list chunks at every pair of cuts, with each
        block played twice, as recorded and again once swapped in."""
        moves = [(m.disc, m.source, m.target) for m in INTERFERING_WALK.moves]
        if twice:
            moves[5:5] = [(3, 3, 0), (3, 0, 3)]  # disc 3 moves away and back
        home = INTERFERING_WALK.initial
        for a in range(len(moves)):
            for b in range(a + 1, len(moves) + 1):
                block = moves_module._Block(moves[a:b])
                undo = [(d, y, x) for d, x, y in reversed(block)]
                stream = [moves[:a], block, undo, block, moves[b:]]
                stream = [chunk for chunk in stream if chunk]
                expected = _reference_checked(home, stream)
                assert _checked(home, stream) == expected
                assert _checked(home, [list(chunk) for chunk in stream]) == expected
                hits = sum(disc == 3 for chunk in stream for disc, _, _ in chunk)
                assert expected[0][-1] == (
                    "subtowers interfere after the largest-disc move" if hits == 1
                    else f"largest disc moved {hits} times, expected once"
                )

    def test_a_block_needs_its_whole_runs(self):
        """Disc 1 tops peg A as when the block was recorded, but disc 2 has
        moved under it to peg D: the block is replayed and fails there."""
        there = moves_module._Block([(1, 0, 2), (2, 0, 1), (1, 2, 1)])  # discs 1, 2 from A to B
        back = [(1, 1, 2), (2, 1, 0), (1, 2, 0)]
        stream = [there, back, there, back, [(1, 0, 1), (2, 0, 3), (1, 1, 0)], there]
        failures, moves = _checked(Configuration.perfect(4, 4), stream)
        assert failures[0] == (
            "replay failed: illegal move at step 17: wrong-source-peg (disc 2 is on D, not A)"
        )
        assert _checked(Configuration.perfect(4, 4), map(list, stream)) == (failures, moves)

    def test_a_freed_block_keeps_its_id(self):
        """The check holds each block it has seen, so a new block never
        takes the id of one that was recorded and then dropped."""
        away_and_back, away = ((1, 0, 1), (1, 1, 0)), ((1, 0, 1), (1, 1, 2))
        check = TraceCheck(Configuration.perfect(2, 3))
        plain = TraceCheck(Configuration.perfect(2, 3))
        for _ in range(20):
            block = moves_module._Block(away_and_back)
            for _ in range(3):
                check.feed(block)
                plain.feed(list(block))
            del block
            check.feed(moves_module._Block(away))
            plain.feed(list(away))
            check.feed([(1, 2, 0)])
            plain.feed([(1, 2, 0)])
        assert check.failures() == plain.failures()
        assert not any(f.startswith("replay failed") for f in check.failures())

    def test_other_chunks_are_replayed_move_by_move(self):
        """A plain tuple may hold moves that change between feeds, so only
        the generator's blocks are checked by their recorded effect."""
        moves = ([1, 0, 1], [1, 1, 0])
        check = TraceCheck(Configuration.perfect(1, 5))
        for _ in range(3):
            check.feed(moves)
        moves[1][2] = 4  # disc 1 now ends on the target peg
        check.feed(moves)
        assert check.failures() == ("length 8 differs from predicted 1",)

    @pytest.mark.parametrize(
        "pegs, discs, strategy, size",
        [
            (3, 14, "optimal", 4096),
            (4, 80, 66, 4096),
            (3, 14, "optimal", 8),
            (4, 40, 30, 8),
            (5, 60, "optimal", 8),
        ],
    )
    def test_block_rows_are_the_reference_csv(self, pegs, discs, strategy, size, solver):
        """A recurring block chunk reuses its rendered tails, under step
        numbers that run on."""
        expected = reference_moves(pegs, discs, strategy, solver, 0, pegs - 1)
        with mock.patch.object(moves_module, "CHUNK_MOVES", size):
            chunks = list(trace_chunks(pegs, discs, strategy, solver))
            text = _streamed_csv(pegs, discs, strategy, solver, 0, pegs - 1)
        blocks = [chunk for chunk in chunks if type(chunk) is moves_module._Block]
        assert len({id(block) for block in blocks}) < len(blocks)  # blocks recur
        assert text == reference_csv(expected)
