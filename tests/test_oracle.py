import gc
import itertools
import math
import random
import time
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hanoilab.oracle
from hanoilab.errors import DiscLimitError, DomainError, HanoiError, StateBudgetExceeded
from hanoilab.moves import Configuration
from hanoilab.oracle import (
    DEFAULT_METRICS_BUDGET,
    DEFAULT_STATE_BUDGET,
    SkippedLevel,
    _block_layers,
    _block_queue,
    _block_search,
    _build_masks,
    _cone,
    _dense_layers,
    _dense_search,
    _expand,
    _fold_split,
    _fold_tables,
    _gate_tables,
    _layers,
    _members,
    _middle_search,
    _move_tables,
    _orbit_codes,
    _search,
    _tower_sweep,
    _used_pegs,
    bfs_distance,
    certify_range,
    geodesic_uniqueness,
    graph_metrics,
    neighbors,
    pack,
    perfect_state,
    tower_distance,
    unpack,
)
from hanoilab.recurrences import HanoiSolver, t3_closed


def build_graph(pegs, discs):
    """The whole state graph, via an unrelated library, for cross-checks."""
    graph = nx.Graph()
    size = pegs**discs
    graph.add_nodes_from(range(size))
    for code in range(size):
        for other in neighbors(code, pegs, discs):
            graph.add_edge(code, other)
    return graph


class TestPacking:
    def test_roundtrip_examples(self):
        config = Configuration(4, (0, 3, 2))
        assert unpack(pack(config), 4, 3) == config

    @given(st.data())
    @settings(max_examples=80)
    def test_roundtrip_random(self, data):
        pegs = data.draw(st.integers(min_value=3, max_value=5))
        discs = data.draw(st.integers(min_value=0, max_value=6))
        assignment = data.draw(
            st.tuples(*[st.integers(0, pegs - 1) for _ in range(discs)])
        )
        config = Configuration(pegs, assignment)
        assert unpack(pack(config), pegs, discs) == config

    def test_perfect_state_codes(self):
        assert perfect_state(3, 2, 0) == 0
        assert perfect_state(3, 2, 2) == 8  # both digits equal 2
        assert unpack(perfect_state(4, 5, 3), 4, 5) == Configuration.perfect(5, 4, 3)

    @pytest.mark.parametrize("pegs, discs, peg", [(1, 3, 0), (3, -1, 0), (2, 3, 1)])
    def test_perfect_state_rejects_bad_spaces(self, pegs, discs, peg):
        with pytest.raises(DomainError):
            perfect_state(pegs, discs, peg)

    def test_code_out_of_range(self):
        with pytest.raises(DomainError):
            unpack(9, 3, 2)


class TestNeighbors:
    def test_single_disc_moves_anywhere(self):
        assert len(neighbors(perfect_state(3, 1, 0), 3, 1)) == 2

    def test_two_discs_three_pegs(self):
        moves = neighbors(perfect_state(3, 2, 0), 3, 2)
        assert len(moves) == 2  # only the small disc may move

    def test_two_discs_four_pegs(self):
        assert len(neighbors(perfect_state(4, 2, 0), 4, 2)) == 3

    def test_empty_board(self):
        assert neighbors(0, 3, 0) == []

    @given(st.data())
    @settings(max_examples=60)
    def test_symmetry(self, data):
        pegs = data.draw(st.integers(min_value=3, max_value=4))
        discs = data.draw(st.integers(min_value=1, max_value=5))
        code = data.draw(st.integers(min_value=0, max_value=pegs**discs - 1))
        for other in neighbors(code, pegs, discs):
            assert code in neighbors(other, pegs, discs)

    @given(st.data())
    @settings(max_examples=60)
    def test_every_state_has_moves(self, data):
        pegs = data.draw(st.integers(min_value=3, max_value=4))
        discs = data.draw(st.integers(min_value=1, max_value=5))
        code = data.draw(st.integers(min_value=0, max_value=pegs**discs - 1))
        count = len(neighbors(code, pegs, discs))
        assert 2 <= count <= pegs * (pegs - 1)


def table_successors(code, pegs, discs):
    """Successors of a state read from the BFS kernel's move tables."""
    base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
    high, low = divmod(code, base)
    occ = low_occupied[low]
    out = [code + delta for delta in low_deltas[low]]
    for bit, src_offset, to in high_moves[high]:
        if not occ & bit:
            out += [
                code - src_offset + end_offset
                for end_bit, end_offset in to
                if not occ & end_bit
            ]
    return sorted(out)


def table_degree_sum(pegs, discs):
    """Sum of the degrees of all states, read from the move tables: the
    reference for the closed-form edge count of `graph_metrics`."""
    _, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
    return sum(
        len(deltas)
        + sum(
            not occ & end_bit
            for bit, _, to in moves
            if not occ & bit
            for end_bit, _ in to
        )
        for moves in high_moves
        for occ, deltas in zip(low_occupied, low_deltas)
    )


# Every space with p in 3..7 and at most 4,096 states, n = 0 and 1 included.
SMALL_SPACES = [
    (pegs, discs)
    for pegs in range(3, 8)
    for discs in range(8)
    if pegs**discs <= 4096
]


class TestMoveTables:
    @pytest.mark.parametrize("pegs,discs", SMALL_SPACES)
    def test_successors_match_neighbors(self, pegs, discs):
        for code in range(pegs**discs):
            expected = sorted(neighbors(code, pegs, discs))
            assert table_successors(code, pegs, discs) == expected

    @pytest.mark.parametrize("pegs,discs", [(16, 6), (24, 5)])
    def test_wide_spaces_build_small_tables(self, pegs, discs):
        assert pegs**discs <= DEFAULT_STATE_BUDGET
        _move_tables.cache_clear()
        started = time.perf_counter()
        base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
        elapsed = time.perf_counter() - started
        _move_tables.cache_clear()
        low, high = discs // 2, discs - discs // 2
        assert base == pegs**low
        assert len(low_occupied) == len(low_deltas) == pegs**low
        assert len(high_moves) == pegs**high
        assert max(map(len, low_deltas)) <= low * (pegs - 1)
        for moves in high_moves:
            assert len(moves) <= high
            assert all(len(to) < pegs for _, _, to in moves)
        assert elapsed < 1.0

    def test_tables_built_after_budget_check(self, monkeypatch):
        def unaffordable(*args):
            raise AssertionError(f"tables built for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_move_tables", unaffordable)
        monkeypatch.setattr(hanoilab.oracle, "_orbit_codes", unaffordable)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", unaffordable)
        monkeypatch.setattr(hanoilab.oracle, "_build_masks", unaffordable)
        with pytest.raises(StateBudgetExceeded):
            bfs_distance(4, 20)
        with pytest.raises(StateBudgetExceeded):
            bfs_distance(5, 20, 1, 2)
        with pytest.raises(StateBudgetExceeded):
            tower_distance(5, 20)
        with pytest.raises(StateBudgetExceeded):
            graph_metrics(3, 13)

    @pytest.mark.parametrize("call", [bfs_distance, tower_distance], ids=lambda f: f.__name__)
    def test_disc_ceiling_checked_before_the_search(self, monkeypatch, call):
        def unaffordable(pegs, discs):
            raise AssertionError(f"move tables built for ({pegs}, {discs})")

        monkeypatch.setattr(hanoilab.oracle, "_move_tables", unaffordable)
        with pytest.raises(DiscLimitError):
            call(4, 10, solver=HanoiSolver(max_discs=9))


class ReadCounter(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def reference_layers(pegs, discs, source, depth=None):
    """The geodesic count of every state of each BFS layer from ``source``,
    one dict per layer, by a plain BFS over `neighbors()`; the layers up to
    ``depth`` only, when it is given."""
    layers = [{source: 1}]
    seen = {source}
    while depth is None or len(layers) <= depth:
        nxt = {}
        for u, paths in layers[-1].items():
            for v in neighbors(u, pegs, discs):
                if v not in seen:
                    nxt[v] = nxt.get(v, 0) + paths
        if not nxt:
            break
        seen.update(nxt)
        layers.append(nxt)
    return layers


def first_use(code, pegs, discs):
    """The code with the pegs 1..p-1 renamed in order of first use,
    smallest disc first: the canonical form of the middle-state search's
    fold."""
    names = {}
    digits = []
    for q in unpack(code, pegs, discs).pegs:
        if q:
            q = names.setdefault(q, 1 + len(names))
        digits.append(q)
    return pack(Configuration(pegs, tuple(digits)))


def relabelled_orbit(code, pegs, discs):
    """Every code that a relabelling of the pegs 1..p-1 makes of ``code``."""
    digits = unpack(code, pegs, discs).pegs
    return {
        pack(Configuration(pegs, tuple((0, *perm)[q] for q in digits)))
        for perm in itertools.permutations(range(1, pegs))
    }


class TestLayers:
    @pytest.mark.parametrize("pegs,discs", [(4, 6)])
    def test_high_table_read_only_where_two_pegs_are_free(self, pegs, discs):
        # a high disc moves only between two pegs that hold no low disc
        base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
        counted = ReadCounter(high_moves)
        moves = (base, low_occupied, low_deltas, counted)
        layers = _layers(pegs, discs, 0, moves, identity_fold(pegs, discs))
        assert sum(len(layer) for _, layer, _ in layers) == pegs**discs
        low = discs // 2
        free = sum(
            len(set(unpack(code, pegs, low).pegs)) <= pegs - 2 for code in range(base)
        )
        assert counted.reads == free * pegs ** (discs - low)

    @pytest.mark.parametrize("discs", [2, 5, 9])
    def test_exhausted_queue_reads_high_table_once_per_gate_state(self, monkeypatch, discs):
        # on three pegs the gate states are the 3 perfect towers of the low
        # block in each of the 3**ceil(n/2) copies, and each exits once
        (base, low_occupied, low_deltas, high_moves), *gates = _gate_tables(3, discs)
        counted = ReadCounter(high_moves)
        monkeypatch.setattr(
            hanoilab.oracle,
            "_gate_tables",
            lambda p, n: ((base, low_occupied, low_deltas, counted), *gates),
        )
        arrived = _block_queue(3, discs, 0, None)[1]
        copies = 3 ** (discs - discs // 2)
        assert len(arrived) == copies
        assert counted.reads == 3 * copies <= 3**discs

    @pytest.mark.parametrize("pegs,discs", SMALL_SPACES)
    def test_matches_reference_bfs(self, pegs, discs):
        # the count pass from every layer of an unfolded search is the whole ball
        size = pegs**discs
        sources = {0, size - 1, *random.Random(size).sample(range(size), min(2, size))}
        moves, fold = _move_tables(pegs, discs), identity_fold(pegs, discs)
        for source in sorted(sources):
            expected = reference_layers(pegs, discs, source)
            layers, seen = searched_layers(pegs, discs, source, fold)
            assert [set(layer) for layer in layers] == [set(layer) for layer in expected]
            got = list(_cone(pegs, moves, fold, seen, dict(enumerate(layers))))
            assert got == list(enumerate(expected))

    @pytest.mark.parametrize("pegs,discs", [(p, n) for p, n in SMALL_SPACES if p >= 4])
    def test_folded_matches_reference_bfs(self, pegs, discs):
        # a folded layer lists one canonical code per orbit, whose mass is its
        # size times the count of each of its states; the fold fixes the tower
        # on peg 0 only, so the search runs from it
        moves, fold = _move_tables(pegs, discs), _fold_tables(pegs, discs)
        expected = [orbit_masses(layer, pegs, discs) for layer in reference_layers(pegs, discs, 0)]
        layers, seen = searched_layers(pegs, discs, 0, fold)
        assert [set(layer) for layer in layers] == [set(masses) for masses in expected]
        got = [
            (d, folded_masses(counts, fold))
            for d, counts in _cone(pegs, moves, fold, seen, dict(enumerate(layers)))
        ]
        assert got == list(enumerate(expected))

    @pytest.mark.parametrize("pegs,discs", SMALL_SPACES)
    def test_every_tag_is_its_own_layers(self, pegs, discs):
        # a code whose orbit an earlier layer reached takes its orbit's tag, so
        # every tagged code, canonical or not, carries the tag of its own layer
        folds = [identity_fold(pegs, discs)] + [_fold_tables(pegs, discs)] * (pegs >= 4)
        for fold in folds:
            _, seen = searched_layers(pegs, discs, 0, fold)
            for d, layer in enumerate(reference_layers(pegs, discs, 0)):
                assert {seen[v] for v in layer} <= {0, 1 + d % 3}
            assert all(seen[v] for v in range(pegs**discs) if first_use(v, pegs, discs) == v)

    @pytest.mark.parametrize("pegs,discs", [(p, n) for p, n in SMALL_SPACES if p >= 4])
    def test_cone_masses_match_reference_bfs(self, pegs, discs):
        # the cone of the middle-state search: every orbit on a geodesic from
        # the source to a state of R at its least depth, for every disc count
        moves, fold = _move_tables(pegs, discs), _fold_tables(pegs, discs)
        layers = reference_layers(pegs, discs, 0)
        starts, cone = middle_cone(pegs, discs, layers)
        expected = []
        for d, states in enumerate(cone):
            orbits = {first_use(v, pegs, discs) for v in states}
            masses = orbit_masses(layers[d], pegs, discs)
            expected.append({r: masses[r] for r in masses if r in orbits})
        _, seen = searched_layers(pegs, discs, 0, fold)
        got = [folded_masses(counts, fold) for _, counts in _cone(pegs, moves, fold, seen, starts)]
        assert got == expected

    @pytest.mark.parametrize("pegs,discs", [(4, 3), (5, 2), (6, 4), (12, 2)])
    def test_fold_must_fix_the_source(self, pegs, discs):
        moves, fold = _move_tables(pegs, discs), _fold_tables(pegs, discs)
        for source in (1, pegs**discs - 1, perfect_state(pegs, discs, 2)):
            with pytest.raises(HanoiError, match="moves the source"):
                next(_layers(pegs, discs, source, moves, fold))
        assert next(_layers(pegs, discs, 0, moves, fold))[:2] == (0, [0])


# One search on (pegs, discs) under the budget b, for each budgeted entry point.
GATED_CALLS = [
    pytest.param(lambda p, n, b: bfs_distance(p, n, state_budget=b), 4, 3, id="bfs_distance"),
    pytest.param(lambda p, n, b: tower_distance(p, n, state_budget=b), 4, 3, id="tower_distance"),
    pytest.param(
        lambda p, n, b: geodesic_uniqueness(n, state_budget=b), 3, 4, id="geodesic_uniqueness"
    ),
    pytest.param(lambda p, n, b: graph_metrics(p, n, metrics_budget=b), 3, 4, id="graph_metrics"),
]


class TestBudgetGate:
    @pytest.mark.parametrize("call, pegs, discs", GATED_CALLS)
    def test_admits_exactly_the_state_count(self, call, pegs, discs):
        size = pegs**discs
        call(pegs, discs, size)
        with pytest.raises(StateBudgetExceeded) as err:
            call(pegs, discs, size - 1)
        assert (err.value.required, err.value.budget) == (size, size - 1)

    @pytest.mark.parametrize("pegs, discs", [(3, 4), (4, 3)])
    def test_sweep_skips_a_level_one_state_short(self, pegs, discs, solver):
        size = pegs**discs
        sweep = certify_range(pegs, discs, state_budget=size, solver=solver)
        assert [r.discs for r in sweep.reports] == list(range(1, discs + 1))
        assert sweep.skipped == ()
        sweep = certify_range(pegs, discs, state_budget=size - 1, solver=solver)
        assert [r.discs for r in sweep.reports] == list(range(1, discs))
        assert sweep.skipped == (SkippedLevel(discs, size, size - 1),)


class TestDistances:
    def test_three_pegs_three_discs(self):
        report = bfs_distance(3, 3)
        assert report.distance == 7
        assert report.dp_cost == 7 and report.agrees

    def test_four_pegs_five_discs(self):
        assert bfs_distance(4, 5).distance == 13

    def test_four_pegs_seven_discs(self):
        report = bfs_distance(4, 7)
        assert report.distance == 25 and report.agrees

    def test_zero_discs(self):
        report = bfs_distance(3, 0)
        assert report.distance == 0
        assert report.geodesic_count == 1
        assert report.states_explored == 1

    def test_source_equals_target(self):
        code = perfect_state(3, 3, 0)
        report = bfs_distance(3, 3, source=code, target=code)
        assert report.distance == 0
        assert report.dp_cost is None and report.agrees is None

    def test_non_perfect_endpoints_skip_dp(self):
        report = bfs_distance(3, 2, source=1, target=5)
        assert report.dp_cost is None

    def test_symmetry_of_distance(self):
        a = perfect_state(4, 4, 0)
        b = perfect_state(4, 4, 2)
        assert bfs_distance(4, 4, a, b).distance == bfs_distance(4, 4, b, a).distance

    def test_spare_peg_relabelling_is_invariant(self):
        source = perfect_state(4, 5, 0)
        distances = {
            bfs_distance(4, 5, source, perfect_state(4, 5, peg)).distance
            for peg in (1, 2, 3)
        }
        assert distances == {13}

    def test_budget_checked_before_allocation(self):
        with pytest.raises(StateBudgetExceeded) as err:
            bfs_distance(4, 20)
        assert err.value.required == 4**20

    @pytest.mark.parametrize("call", [bfs_distance, graph_metrics], ids=lambda f: f.__name__)
    def test_budget_error_for_sizes_too_long_to_print(self, call):
        # 4**8000 has 4,817 digits, past CPython's int-to-str limit
        with pytest.raises(StateBudgetExceeded) as err:
            call(4, 8000)
        assert err.value.required == 4**8000
        assert "needs at least 10^4816 states" in str(err.value)

    @pytest.mark.parametrize("pegs,discs", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3)])
    def test_against_networkx(self, pegs, discs):
        graph = build_graph(pegs, discs)
        source = perfect_state(pegs, discs, 0)
        target = perfect_state(pegs, discs, pegs - 1)
        report = bfs_distance(pegs, discs)
        assert report.distance == nx.shortest_path_length(graph, source, target)
        expected_paths = len(list(nx.all_shortest_paths(graph, source, target)))
        assert report.geodesic_count == expected_paths

    @pytest.mark.parametrize("pegs,discs", [(3, 4), (3, 5), (4, 3), (4, 4), (5, 3)])
    def test_random_pairs_against_networkx(self, pegs, discs):
        graph = build_graph(pegs, discs)
        rng = random.Random(pegs * 100 + discs)
        size = pegs**discs
        for _ in range(12):
            source, target = rng.randrange(size), rng.randrange(size)
            report = bfs_distance(pegs, discs, source, target)
            distance = nx.shortest_path_length(graph, source, target)
            assert report.distance == distance
            paths = nx.all_shortest_paths(graph, source, target)
            assert report.geodesic_count == len(list(paths))
            within = nx.single_source_shortest_path_length(graph, source, distance)
            assert report.states_explored == len(within)


class TestGeodesics:
    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_three_peg_solution_is_unique(self, n):
        assert geodesic_uniqueness(n) == 1

    def test_four_pegs_have_many(self):
        assert bfs_distance(4, 4).geodesic_count == 22


# Every perfect-tower space with p in 3..8 and at most 65,536 states.
TOWER_SPACES = [
    (pegs, discs)
    for pegs in range(3, 9)
    for discs in range(17)
    if pegs**discs <= 65_536
]


class TestTowerDistance:
    @pytest.mark.parametrize("pegs,discs", TOWER_SPACES)
    def test_matches_full_bfs(self, pegs, discs, solver):
        half = tower_distance(pegs, discs, solver=solver)
        full = bfs_distance(pegs, discs, solver=solver)
        assert (half.pegs, half.discs) == (pegs, discs)
        assert half.distance == full.distance
        assert half.geodesic_count == full.geodesic_count
        assert half.dp_cost == full.dp_cost
        assert half.agrees is full.agrees is True
        assert half.states_explored <= full.states_explored

    @pytest.mark.parametrize("pegs,discs", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3)])
    def test_against_networkx(self, pegs, discs):
        graph = build_graph(pegs, discs)
        source = perfect_state(pegs, discs, 0)
        target = perfect_state(pegs, discs, pegs - 1)
        report = tower_distance(pegs, discs)
        assert report.distance == nx.shortest_path_length(graph, source, target)
        expected_paths = len(list(nx.all_shortest_paths(graph, source, target)))
        assert report.geodesic_count == expected_paths

    def test_zero_discs(self):
        report = tower_distance(4, 0)
        assert (report.distance, report.geodesic_count, report.states_explored) == (0, 1, 1)
        assert report.dp_cost == 0 and report.agrees

    def test_budget_checked_before_allocation(self, monkeypatch):
        def unaffordable(*args):
            raise AssertionError(f"tables built for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_move_tables", unaffordable)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", unaffordable)
        with pytest.raises(StateBudgetExceeded) as err:
            tower_distance(4, 20)
        assert err.value.required == 4**20

    def test_memory_is_a_byte_per_state(self):
        # with warm tables the search holds a tag byte per state of the 4**10
        # smaller-disc states (1 MiB), its two widest layers and the cone;
        # a count slot per state besides took 11.8 MiB
        _middle_search(4, 11)
        tracemalloc.start()
        try:
            rows = _middle_search(4, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[-1][:2] == (65, 74_056_628)
        assert peak < 5 << 20

    def test_searches_half_deep(self, solver):
        # the full BFS explores all 4**10 = 1,048,576 states here
        report = tower_distance(4, 10, solver=solver)
        assert (report.distance, report.geodesic_count) == (49, 2178)
        assert report.states_explored == 50_428
        assert report.orbits_explored == 25_278
        assert report.agrees


# Per peg count in 4..16, the most discs n <= p - 1 that the default budget
# admits: 75 spaces in all.
WIDE_TOWERS = [
    (pegs, max(n for n in range(1, pegs) if pegs**n <= DEFAULT_STATE_BUDGET))
    for pegs in range(4, 17)
]


class TestWideTowers:
    @pytest.mark.parametrize("pegs,top", WIDE_TOWERS)
    def test_closed_form(self, pegs, top, solver):
        # With n <= p - 1 a state of R at depth n - 1 has moved each smaller
        # disc once, smallest first, onto an empty middle peg: one path to
        # each of (p-2)!/(p-1-n)! states, so D = 2n - 1 and G is their number.
        # There the cone is most of the ball, the count pass's hardest case.
        sweep = _tower_sweep(pegs, top, DEFAULT_STATE_BUDGET, solver)
        assert [(r.discs, r.distance, r.geodesic_count) for r in sweep.reports] == [
            (n, 2 * n - 1, math.perm(pegs - 2, n - 1)) for n in range(1, top + 1)
        ]
        assert sweep.all_agree and sweep.skipped == ()


def tower_moves(pegs_of: list[int], discs: int, peg: int) -> int:
    """Moves that take discs 1 .. ``discs`` of a three-peg state, disc k on
    peg ``pegs_of[k]``, to a tower on ``peg``: a disc off its target moves
    there once, after the discs above it have gone to the third peg, and
    then the 2**(k-1) - 1 moves of the tower above it follow."""
    moves = 0
    for k in range(discs, 0, -1):
        if pegs_of[k] != peg:
            moves += 1 << (k - 1)
            peg = 3 - pegs_of[k] - peg
    return moves


def hinz_candidates(source: int, target: int, discs: int) -> tuple[int, int]:
    """The two path lengths of Hinz's rule (Hinz, "Shortest paths between
    regular states of the Tower of Hanoi", Information Sciences 63, 1992)
    between two three-peg codes, or (0, 0) for equal states.  Let d be the
    largest disc on which they differ, on peg a in the source and b in the
    target, and c the third peg.  A geodesic moves disc d once, a -> b with
    the smaller discs on c, or twice, a -> c -> b with them on b and then
    on a; each candidate path is unique, and the larger discs never move."""
    s = [0, *unpack(source, 3, discs).pegs]
    t = [0, *unpack(target, 3, discs).pegs]
    d = max((k for k in range(1, discs + 1) if s[k] != t[k]), default=0)
    if not d:
        return 0, 0
    a, b = s[d], t[d]
    c = 3 - a - b
    once = tower_moves(s, d - 1, c) + 1 + tower_moves(t, d - 1, c)
    twice = tower_moves(s, d - 1, b) + tower_moves(t, d - 1, a) + (1 << (d - 1)) + 1
    return once, twice


def hinz_distance(source: int, target: int, discs: int) -> tuple[int, int]:
    """(distance, geodesic count) of two three-peg codes by Hinz's rule."""
    once, twice = hinz_candidates(source, target, discs)
    if once == twice == 0:
        return 0, 1
    distance = min(once, twice)
    return distance, (once == distance) + (twice == distance)


def tied_pair(rng: random.Random, discs: int) -> tuple[int, int] | None:
    """Two codes whose candidates tie, so that they have two geodesics:
    a random source and larger discs, and the target's discs below d
    found disc by disc, largest first, so that tower_moves to c exceeds
    tower_moves to a by what the source leaves over; None if no such
    target exists for the source drawn."""
    d = rng.randint(2, discs)
    a, b = rng.sample(range(3), 2)
    c = 3 - a - b
    s = [0] + [rng.randrange(3) for _ in range(discs)]
    s[d] = a
    want = (1 << (d - 1)) + tower_moves(s, d - 1, b) - tower_moves(s, d - 1, c)
    t = s[:]
    t[d] = b

    def place(k: int, to_c: int, to_a: int, left: int) -> bool:
        if k == 0:
            return left == 0
        if abs(left) >= 1 << k:  # the discs up to k shift the gap by less
            return False
        for peg in rng.sample(range(3), 3):
            t[k] = peg
            step = 1 << (k - 1)
            gain = (step if peg != to_c else 0) - (step if peg != to_a else 0)
            next_c = to_c if peg == to_c else 3 - peg - to_c
            next_a = to_a if peg == to_a else 3 - peg - to_a
            if place(k - 1, next_c, next_a, left - gain):
                return True
        return False

    if not place(d - 1, c, a, want):
        return None
    code = lambda pegs_of: pack(Configuration(3, tuple(pegs_of[1:])))  # noqa: E731
    return code(s), code(t)


class TestHinzReference:
    """``bfs_distance`` on three pegs against Hinz's two-candidate rule,
    which shares no code or argument with the block kernel's gate-state
    search."""

    def test_every_pair_of_four_discs(self):
        for source in range(3**4):
            for target in range(3**4):
                report = bfs_distance(3, 4, source, target)
                assert (report.distance, report.geodesic_count) == hinz_distance(
                    source, target, 4
                ), (source, target)

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_pairs(self, data):
        discs = data.draw(st.integers(0, 15), label="discs")
        source = data.draw(st.integers(0, 3**discs - 1), label="source")
        target = data.draw(st.integers(0, 3**discs - 1), label="target")
        report = bfs_distance(3, discs, source, target)
        assert (report.distance, report.geodesic_count) == hinz_distance(source, target, discs)

    @pytest.mark.parametrize("discs", [2, 3, 5, 8, 11, 13, 15])
    def test_pairs_with_two_geodesics(self, discs):
        """Ties are rare among random pairs (0.03% at n = 12), so pairs
        are built to have two geodesics."""
        rng = random.Random(1992 + discs)
        pairs = [pair for pair in (tied_pair(rng, discs) for _ in range(60)) if pair][:3]
        assert len(pairs) == 3
        for pair in pairs:
            once, twice = hinz_candidates(*pair, discs)
            assert once == twice > 0
            report = bfs_distance(3, discs, *pair)
            assert (report.distance, report.geodesic_count) == (once, 2)


def counting_tower_rows(monkeypatch):
    """Record the (pegs, discs) of every `_tower_rows` search."""
    calls = []
    real = hanoilab.oracle._tower_rows

    def counted(pegs, discs):
        calls.append((pegs, discs))
        return real(pegs, discs)

    monkeypatch.setattr(hanoilab.oracle, "_tower_rows", counted)
    return calls


class TestTowerSweep:
    @pytest.mark.parametrize("pegs,top", [(4, 10), (5, 8), (6, 7), (3, 12)])
    def test_one_search_matches_per_disc_searches(self, monkeypatch, pegs, top, solver):
        expected = tuple(tower_distance(pegs, n, solver=solver) for n in range(1, top + 1))
        calls = counting_tower_rows(monkeypatch)
        sweep = _tower_sweep(pegs, top, DEFAULT_STATE_BUDGET, solver)
        assert (sweep.pegs, sweep.reports, sweep.skipped) == (pegs, expected, ())
        assert calls == [(pegs, top)]

    def test_one_layered_search_over_the_smaller_discs(self, monkeypatch, solver):
        # the middle-state search of n discs runs over the n-1 smaller ones
        calls = []
        real = hanoilab.oracle._layers

        def counted(pegs, discs, source, moves, fold):
            calls.append((pegs, discs))
            return real(pegs, discs, source, moves, fold)

        monkeypatch.setattr(hanoilab.oracle, "_layers", counted)
        _tower_sweep(4, 10, DEFAULT_STATE_BUDGET, solver)
        assert calls == [(4, 9)]

    @pytest.mark.parametrize("pegs,top,admitted", [(4, 9, 6), (5, 7, 3), (3, 8, 5), (4, 3, 0)])
    def test_budget_admits_a_prefix(self, monkeypatch, pegs, top, admitted, solver):
        budget = max(pegs**admitted, 1)
        expected = tuple(tower_distance(pegs, n, solver=solver) for n in range(1, admitted + 1))
        calls = counting_tower_rows(monkeypatch)
        sweep = _tower_sweep(pegs, top, budget, solver)
        assert sweep.reports == expected
        assert sweep.skipped == tuple(
            SkippedLevel(n, pegs**n, budget) for n in range(admitted + 1, top + 1)
        )
        assert calls == ([(pegs, admitted)] if admitted else [])

    def test_disc_ceiling_checked_before_the_search(self, monkeypatch):
        # the first admitted disc count above the ceiling fails, as per-n calls did
        def no_search(*args):
            raise AssertionError(f"searched {args}")

        monkeypatch.setattr(hanoilab.oracle, "_tower_rows", no_search)
        with pytest.raises(DiscLimitError, match="disc count 6 exceeds"):
            _tower_sweep(4, 8, DEFAULT_STATE_BUDGET, HanoiSolver(max_discs=5))
        # a disc count the budget refuses is skipped before its ceiling is read
        monkeypatch.undo()
        sweep = _tower_sweep(4, 8, 4**5, HanoiSolver(max_discs=5))
        assert [r.discs for r in sweep.reports] == [1, 2, 3, 4, 5]


def identity_fold(pegs, discs):
    """Tables in the layout of `_fold_tables` that rename no peg, so every
    orbit is one state, every canonical form is the code itself and every
    entry reads k = 0, whose orbit size is 1."""
    base = pegs ** (discs // 2)
    highs = pegs ** (discs - discs // 2)
    high_canon = [h * base for h in range(highs)]
    return base, list(range(base)), [0] * base, 1, high_canon, bytes(highs), [1]


def searched_layers(pegs, discs, source, fold):
    """The layers of a `_layers` search run until it is exhausted, each
    copied when it is yielded, and the tag array it leaves."""
    layers = []
    for _, layer, seen in _layers(pegs, discs, source, _move_tables(pegs, discs), fold):
        layers.append(list(layer))
    return layers, seen


def orbit_masses(layer, pegs, discs):
    """The plain counts of a layer summed per first-use orbit."""
    masses = {}
    for v, paths in layer.items():
        r = first_use(v, pegs, discs)
        masses[r] = masses.get(r, 0) + paths
    return masses


def folded_masses(counts, fold):
    """The mass |O| * c of each representative of a `_cone` layer."""
    sizes = fold[-1]
    return {r: sizes[k] * c for (r, c), k in zip(counts.items(), _used_pegs(fold, list(counts)))}


def middle_cone(pegs, discs, layers):
    """The starts of the middle-state search over this space and the states
    of their cone, per layer, by plain BFS layers: for every m <= discs,
    the first layer that holds an m-disc state of R (no disc on peg 0 or
    p-1), whose representatives start, and every state on a shortest path
    to those states."""
    starts, reached = {}, {}
    for m in range(discs + 1):
        for d, layer in enumerate(layers):
            middle = {
                v for v in layer
                if v < pegs**m and all(0 < q < pegs - 1 for q in unpack(v, pegs, discs).pegs[:m])
            }
            if middle:
                starts[d] = sorted({first_use(v, pegs, discs) for v in middle})
                reached.setdefault(d, set()).update(middle)
                break
    cone = [set() for _ in range(max(starts) + 1)]
    for d in range(max(starts), -1, -1):
        cone[d] |= reached.get(d, set())
        if d:
            cone[d - 1] = {u for v in cone[d] for u in neighbors(v, pegs, discs) if u in layers[d - 1]}
    return starts, cone


def middle_reference(pegs, discs):
    """(distance, geodesics, states, orbits) between the towers on pegs 0
    and p-1 by plain BFS, with no fold: D = 2 d_R + 1 and G from the layers
    of the n-1 smaller discs, each state tested for R (no disc on peg 0 or
    p-1), and the half-depth ball of the n-disc space with its codes that
    are canonical under the relabellings of the middle pegs."""
    if not discs:
        return 0, 1, 1, 1
    for d, layer in enumerate(reference_layers(pegs, discs - 1, 0)):
        middle = [
            paths
            for v, paths in layer.items()
            if all(0 < q < pegs - 1 for q in unpack(v, pegs, discs - 1).pegs)
        ]
        if middle:
            break
    ball = [v for layer in reference_layers(pegs, discs, 0, d + 1) for v in layer]
    free = tuple(range(1, pegs - 1))
    orbits = sum(is_canonical(v, pegs, discs, free) for v in ball)
    return 2 * d + 1, sum(c * c for c in middle), len(ball), orbits


def nx_search(graph, source, target):
    """(distance, geodesic count, states within the distance) by networkx."""
    depth = nx.single_source_shortest_path_length(graph, source)
    paths = {source: 1}
    for v in sorted(depth, key=depth.__getitem__)[1:]:
        paths[v] = sum(paths[u] for u in graph[v] if depth[u] == depth[v] - 1)
    distance = depth[target]
    return distance, paths[target], sum(d <= distance for d in depth.values())


def is_canonical(code, pegs, discs, free):
    """True when the pegs in ``free`` are first used in ascending order."""
    used = []
    for q in unpack(code, pegs, discs).pegs:
        if q in free and q not in used:
            used.append(q)
    return used == list(free[: len(used)])


def shared_empty_pairs(pegs, discs, count=12):
    """Seeded state pairs that both leave at least two pegs empty."""
    rng = random.Random(pegs * 100 + discs)
    pairs = []
    for _ in range(count):
        used = rng.sample(range(pegs), rng.randint(1, pegs - 2))
        source, target = (
            pack(Configuration(pegs, tuple(rng.choice(used) for _ in range(discs))))
            for _ in range(2)
        )
        pairs.append((source, target))
    return pairs


# Every perfect-tower space with p in 4..8 and at most 2**16 states.
FOLDED_TOWERS = [(pegs, discs) for pegs, discs in TOWER_SPACES if pegs >= 4]
# Searches that fold nothing: only tower_distance on four or more pegs folds.
UNFOLDED_CALLS = [
    pytest.param(lambda: tower_distance(3, 6), id="three-peg towers"),
    pytest.param(lambda: bfs_distance(3, 6), id="three-peg bfs"),
    pytest.param(lambda: bfs_distance(4, 5, 0, pack(Configuration(4, (1, 2, 2, 1, 2)))),
                 id="one shared empty peg"),
    pytest.param(lambda: bfs_distance(5, 4, 7, 600), id="no shared empty peg"),
    pytest.param(lambda: graph_metrics(4, 3), id="graph_metrics"),
]


class TestOrbitFold:
    @pytest.mark.parametrize("pegs,discs", FOLDED_TOWERS)
    @pytest.mark.parametrize("call", [bfs_distance, tower_distance], ids=lambda f: f.__name__)
    def test_folded_matches_unfolded(self, monkeypatch, call, pegs, discs, solver):
        report = call(pegs, discs, solver=solver)
        fields = (report.distance, report.geodesic_count, report.states_explored)
        assert (report.dp_cost, report.agrees) == (solver.cost(pegs, discs) if discs else 0, True)
        # only the middle-state search folds; bfs_distance counts every state as an orbit
        if call is bfs_distance:
            monkeypatch.setattr(hanoilab.oracle, "_dense_search", layers_search)
            plain = call(pegs, discs, solver=solver)
            assert (*fields, report.orbits_explored) == (
                plain.distance, plain.geodesic_count, plain.states_explored, plain.orbits_explored
            )
            assert report.orbits_explored == report.states_explored
        else:
            assert (*fields, report.orbits_explored) == middle_reference(pegs, discs)
            if discs >= 2:
                assert report.orbits_explored < report.states_explored

    @pytest.mark.parametrize(
        "pegs,discs", [(4, 5), (5, 4), (5, 5), (6, 4), (6, 5), (7, 4)]
    )
    def test_shared_empty_pegs(self, pegs, discs):
        pairs = shared_empty_pairs(pegs, discs)
        reports = [bfs_distance(pegs, discs, *pair) for pair in pairs]
        if pegs**discs <= 2401:
            graph = build_graph(pegs, discs)
            expected = [nx_search(graph, *pair) for pair in pairs]
        else:
            expected = [layers_search(pegs, discs, *pair)[:3] for pair in pairs]
        got = [(r.distance, r.geodesic_count, r.states_explored) for r in reports]
        assert got == expected
        assert all(r.orbits_explored == r.states_explored for r in reports)

    @pytest.mark.parametrize("pegs,discs", [(4, 6), (5, 5), (6, 4), (7, 4)])
    def test_layers_yield_canonical_codes(self, pegs, discs):
        free = tuple(range(1, pegs))
        yielded = []
        moves, fold = _move_tables(pegs, discs), _fold_tables(pegs, discs)
        for _, layer, _ in _layers(pegs, discs, 0, moves, fold):
            yielded += layer
        assert len(yielded) == len(set(yielded))
        assert all(is_canonical(code, pegs, discs, free) for code in yielded)

    @pytest.mark.parametrize(
        "pegs,discs", [(p, n) for p, n in SMALL_SPACES if p >= 4] + [(12, 2), (16, 2)]
    )
    def test_fold_entries_count_the_digits(self, pegs, discs):
        # every entry's canonical code, k and orbit size, against the code's digits
        base, low_canon, low_ids, width, high_canon, high_k, sizes = _fold_tables(pegs, discs)
        assert len(high_k) == len(high_canon) == pegs**discs // base * width
        for v in range(pegs**discs):
            high, low = divmod(v, base)
            i = high * width + low_ids[low]
            k = len(set(unpack(v, pegs, discs).pegs) - {0})
            assert (high_canon[i] + low_canon[low], high_k[i]) == (first_use(v, pegs, discs), k)
            if pegs <= 6:
                assert sizes[k] == len(relabelled_orbit(v, pegs, discs))
            else:
                assert sizes[k] == math.perm(pegs - 1, k)

    @pytest.mark.parametrize("pegs,top", [(4, 9), (5, 7), (6, 6), (7, 5), (8, 5), (12, 4)])
    def test_split_leaves_the_rows_unchanged(self, monkeypatch, pegs, top):
        # the fold's own split, against the middle one of the move tables
        assert _fold_split(pegs, top - 1) != (top - 1) // 2
        _fold_tables.cache_clear()
        rows = hanoilab.oracle._tower_rows(pegs, top)
        monkeypatch.setattr(hanoilab.oracle, "_fold_split", lambda p, m: m // 2)
        _fold_tables.cache_clear()
        assert hanoilab.oracle._tower_rows(pegs, top) == rows
        _fold_tables.cache_clear()

    @pytest.mark.parametrize(
        "pegs,discs,low", [(4, 8, 5), (4, 11, 6), (5, 9, 6), (8, 7, 5), (12, 5, 4), (16, 5, 4)]
    )
    def test_split_minimises_the_entries(self, pegs, discs, low):
        assert _fold_split(pegs, discs) == low

    @pytest.mark.parametrize("call", UNFOLDED_CALLS)
    def test_fewer_than_two_shared_empty_pegs_never_fold(self, monkeypatch, call):
        def no_fold(*args):
            raise AssertionError(f"fold tables built for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_fold)
        report = call()
        if not hasattr(report, "diameter"):
            assert report.orbits_explored == report.states_explored

    @pytest.mark.parametrize(
        "pegs,discs,distance,geodesics,states",
        [(5, 7, 19, 32_598, 78_125), (6, 7, 17, 431_064, 279_936), (4, 10, 49, 2178, 1_048_576)],
    )
    def test_full_ball_orbits(self, pegs, discs, distance, geodesics, states):
        report = bfs_distance(pegs, discs)
        assert (report.distance, report.geodesic_count) == (distance, geodesics)
        assert report.states_explored == report.orbits_explored == states == pegs**discs


def layers_search(pegs, discs, source, target):
    """(distance, geodesics, states, orbits) from an unfolded `_layers` BFS
    and the `_cone` count pass, which `TestLayers` checks against
    `reference_layers`."""
    moves, fold = _move_tables(pegs, discs), identity_fold(pegs, discs)
    explored = 0
    layers = _layers(pegs, discs, source, moves, fold)
    for d, layer, seen in layers:
        explored += len(layer)
        if seen[target]:
            next(layers, None)  # the walk reads the neighbours of the target's layer
            *_, (_, counts) = _cone(pegs, moves, fold, seen, {d: [target]})
            return d, counts[target], explored, explored
    raise AssertionError("target never reached")


def dense_pairs(pegs, discs, count=6):
    """Seeded random pairs, a pair with s = t and an adjacent pair, then the
    perfect towers and pairs that leave two or more pegs empty at both ends."""
    rng = random.Random(pegs * 100 + discs)
    size = pegs**discs
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]
    source = rng.randrange(size)
    pairs.append((source, source))
    if discs:
        pairs.append((source, rng.choice(neighbors(source, pegs, discs))))
    pairs.append((0, size - 1))
    return pairs + shared_empty_pairs(pegs, discs, 4)


# Every space with p in 3..8 and at most 2**15 states, n = 0 included.
DENSE_SPACES = [
    (pegs, discs)
    for pegs in range(3, 9)
    for discs in range(12)
    if pegs**discs <= 2**15
]


def full_walk(pegs, discs, source, target):
    """(distance, geodesics, states, orbits) by the dense layers out to the
    target and a walk back over `neighbors()` through every layer of the
    interval to the source, the walk every pair takes."""
    layers = []
    for layer in _dense_layers(_build_masks(pegs, discs), source):
        layers.append(layer)
        if layer >> target & 1:
            break
    counts = {target: 1}
    for layer in reversed(layers[:-1]):
        nearer = set(_members(layer))
        farther, counts = counts, {}
        for v, paths in farther.items():
            for u in neighbors(v, pegs, discs):
                if u in nearer:
                    counts[u] = counts.get(u, 0) + paths
    explored = sum(layer.bit_count() for layer in layers)
    return len(layers) - 1, counts[source], explored, explored


def counting_walk(monkeypatch):
    """The codes whose neighbours are read, in order, from here on."""
    walked = []
    real = hanoilab.oracle._neighbors

    def counted(state, pegs, discs):
        walked.append(state)
        return real(state, pegs, discs)

    monkeypatch.setattr(hanoilab.oracle, "_neighbors", counted)
    return walked


# Tower spaces whose pairs must match the full walk, n = 0 and 1 included.
TOWER_SPACES = [
    *((4, n) for n in range(10)),
    *((5, n) for n in range(8)),
    *((6, n) for n in range(7)),
    *((7, n) for n in range(6)),
    *((12, n) for n in range(1, 5)),
]


def expand_moves(code, tables):
    """States one move from ``code``, read from the group tables."""
    return _members(_expand(1 << code, tables) & ~(1 << code))


def table_bits(tables):
    return sum(tops.bit_length() + base.bit_length() for _, tops, base in tables)


class TestDenseSearch:
    @pytest.mark.parametrize("pegs,discs", SMALL_SPACES)
    def test_masks_give_the_legal_moves(self, pegs, discs):
        tables = _build_masks(pegs, discs)
        assert len(tables) == discs
        assert table_bits(tables) <= 2 * discs * pegs**discs
        for code in range(pegs**discs):
            assert expand_moves(code, tables) == sorted(neighbors(code, pegs, discs))

    @pytest.mark.parametrize("pegs,discs", [(512, 2), (64, 3), (256, 3)])
    def test_wide_spaces_build_masks_quickly(self, pegs, discs):
        # every pair on p >= 4 runs the dense kernel, so the tables must cost
        # time in proportion to their bits, 2n per state, not to the p**2 peg
        # pairs or to n(p - 1) shift masks (1.3 GiB at (256,3))
        started = time.perf_counter()
        tables = _build_masks(pegs, discs)
        elapsed = time.perf_counter() - started
        assert len(tables) == discs
        assert table_bits(tables) <= 2 * discs * pegs**discs
        for code in random.Random(pegs).sample(range(pegs**discs), 6):
            assert expand_moves(code, tables) == sorted(neighbors(code, pegs, discs))
        assert elapsed < 1.0

    @pytest.mark.parametrize("pegs", range(4, 9))
    def test_expand_gives_the_neighbours_of_a_set(self, pegs):
        rng = random.Random(pegs)
        for discs in range(1, 6):
            size = pegs**discs
            if size > 4096:
                break
            tables = _build_masks(pegs, discs)
            for density in (0.001, 0.05, 0.5):
                states = {v for v in range(size) if rng.random() < density}
                union = {u for v in states for u in neighbors(v, pegs, discs)}
                bits = sum(1 << v for v in states)
                assert _members(_expand(bits, tables) & ~bits) == sorted(union - states)

    @pytest.mark.parametrize("pegs,discs", DENSE_SPACES)
    def test_matches_layers(self, monkeypatch, pegs, discs):
        pairs = dense_pairs(pegs, discs)
        for pair in pairs:
            assert _dense_search(pegs, discs, *pair) == layers_search(pegs, discs, *pair)
            if pegs == 3:
                assert _dense_search(pegs, discs, *pair) == _search(pegs, discs, *pair)
        reports = [bfs_distance(pegs, discs, *pair) for pair in pairs]
        monkeypatch.setattr(hanoilab.oracle, "_dense_search", layers_search)
        assert [bfs_distance(pegs, discs, *pair) for pair in pairs] == reports

    @pytest.mark.parametrize(
        "target,expected",
        [
            (100165, (586, 1, 22133)),
            (53881, (1196, 1, 66407)),
            (152299, (1690, 1, 110739)),
            (161439, (1966, 1, 154875)),
        ],
    )
    def test_seeded_three_peg_pairs(self, target, expected):
        # the (3,11) pairs of the benchmark's seed-1 graph workload
        report = bfs_distance(3, 11, 88295, target)
        assert (report.distance, report.geodesic_count, report.states_explored) == expected

    @pytest.mark.parametrize("pegs,discs", [(4, 4), (4, 5), (5, 3), (5, 4), (6, 3)])
    def test_against_networkx(self, pegs, discs):
        graph = build_graph(pegs, discs)
        for source, target in dense_pairs(pegs, discs):
            distance, geodesics, explored, orbits = _dense_search(pegs, discs, source, target)
            assert (distance, geodesics, explored) == nx_search(graph, source, target)
            assert orbits == explored

    @pytest.mark.parametrize("pegs,discs", TOWER_SPACES)
    def test_tower_pairs_match_the_full_walk(self, pegs, discs):
        top = pegs**discs - 1
        expected = full_walk(pegs, discs, 0, top)
        assert _dense_search(pegs, discs, 0, top) == expected
        report = bfs_distance(pegs, discs)
        fields = (report.distance, report.geodesic_count, report.states_explored)
        assert (*fields, report.orbits_explored) == expected

    @pytest.mark.parametrize("pegs,discs", [(4, n) for n in range(6)] + [(5, n) for n in range(5)])
    def test_every_ordered_tower_pair(self, pegs, discs):
        graph = build_graph(pegs, discs)
        towers = sorted({perfect_state(pegs, discs, q) for q in range(pegs)})
        for source, target in itertools.product(towers, repeat=2):
            report = bfs_distance(pegs, discs, source, target)
            fields = (report.distance, report.geodesic_count, report.states_explored)
            assert fields == nx_search(graph, source, target)
            assert report.orbits_explored == report.states_explored
            assert report.agrees is (None if source == target and discs else True)

    @pytest.mark.parametrize("pegs,discs", [s for s in DENSE_SPACES if s[0] >= 4])
    def test_arbitrary_pairs_walk_to_the_source(self, monkeypatch, pegs, discs):
        # towers included: every pair walks back through every layer
        pairs = dense_pairs(pegs, discs)
        walked = counting_walk(monkeypatch)
        for pair in pairs:
            walked.clear()
            got = _dense_search(pegs, discs, *pair)
            searched = len(walked)
            walked.clear()
            assert got == full_walk(pegs, discs, *pair)
            assert searched == len(walked)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: bfs_distance(3, 6, 100, 600), id="three pegs"),
            pytest.param(lambda: tower_distance(4, 6), id="tower_distance"),
            pytest.param(lambda: graph_metrics(3, 5), id="graph_metrics"),
        ],
    )
    def test_three_pegs_and_folds_build_no_masks(self, monkeypatch, call):
        def no_masks(*args):
            raise AssertionError(f"shift masks built for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_build_masks", no_masks)
        call()

    @pytest.mark.parametrize("pegs,discs", [(4, 5), (5, 4), (6, 4), (7, 4)])
    def test_unfolded_pairs_never_enter_layers(self, monkeypatch, pegs, discs):
        # on four or more pegs every pair, towers included, runs the dense kernel
        pairs = dense_pairs(pegs, discs)
        expected = [layers_search(pegs, discs, *pair) for pair in pairs]

        def no_layers(*args):
            raise AssertionError(f"_layers or _fold_tables entered for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_layers", no_layers)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_layers)
        got = [bfs_distance(pegs, discs, *pair) for pair in pairs]
        assert [
            (r.distance, r.geodesic_count, r.states_explored, r.orbits_explored) for r in got
        ] == expected

    @pytest.mark.parametrize("pegs,discs", [(4, 5), (5, 4), (6, 3)])
    def test_metrics_never_enter_layers(self, monkeypatch, pegs, discs):
        # on four or more pegs the eccentricity sweeps run the dense kernel too,
        # and the edges come from the closed form, not from the move tables
        expected = max(eccentricity(pegs, discs, v) for v in range(pegs**discs))

        def no_layers(*args):
            raise AssertionError(f"_layers or a move or fold table entered for {args}")

        for name in ("_layers", "_move_tables", "_fold_tables"):
            monkeypatch.setattr(hanoilab.oracle, name, no_layers)
        assert graph_metrics(pegs, discs).diameter == expected

    @pytest.mark.parametrize("pegs,discs", [(4, 5), (5, 4), (7, 3), (4, 0)])
    def test_dense_layers_match_layers(self, pegs, discs):
        size = pegs**discs
        sources = {0, size - 1, *random.Random(size).sample(range(size), min(4, size))}
        moves, fold = _move_tables(pegs, discs), identity_fold(pegs, discs)
        for source in sorted(sources):
            layers = [layer for _, layer, _ in _layers(pegs, discs, source, moves, fold)]
            expected = [sum(1 << v for v in layer) for layer in layers]
            assert list(_dense_layers(_build_masks(pegs, discs), source)) == expected

    @pytest.mark.parametrize("pegs,discs", [(4, 0), (4, 5), (5, 4), (7, 3)])
    def test_members_round_trip(self, pegs, discs):
        size = pegs**discs
        rng = random.Random(size)
        sets = [set(), {0}, {size - 1}]
        sets += [set(rng.sample(range(size), rng.randint(1, size))) for _ in range(8)]
        for codes in sets:
            assert _members(sum(1 << v for v in codes)) == sorted(codes)


class TestBlockSearch:
    @pytest.mark.parametrize("discs", range(5))
    def test_every_pair_matches_layers(self, discs):
        size = 3**discs
        for source, target in itertools.product(range(size), repeat=2):
            got = _block_search(3, discs, source, target)
            assert got == layers_search(3, discs, source, target)

    @pytest.mark.parametrize("discs", range(5, 11))
    def test_random_pairs_match_layers(self, discs):
        for pair in dense_pairs(3, discs, count=12):
            assert _block_search(3, discs, *pair) == layers_search(3, discs, *pair)

    def test_against_networkx(self):
        graph = build_graph(3, 6)
        for source, target in dense_pairs(3, 6, count=20):
            distance, geodesics, explored, orbits = _block_search(3, 6, source, target)
            assert (distance, geodesics, explored) == nx_search(graph, source, target)
            assert orbits == explored

    @pytest.mark.parametrize(
        "pegs,discs", [(4, n) for n in range(6)] + [(5, n) for n in range(5)]
    )
    def test_many_gates_per_copy(self, pegs, discs):
        # on p >= 4 most low codes leave two pegs free, so each copy has many
        # gates and a path may enter it at several; three pegs have three
        if discs >= 2:
            assert len(_gate_tables(pegs, discs)[1]) > 3
        for pair in dense_pairs(pegs, discs, count=12):
            assert _block_search(pegs, discs, *pair) == layers_search(pegs, discs, *pair)

    @pytest.mark.parametrize("discs", range(13))
    def test_tower_pair_matches_mirror_search(self, discs):
        # bfs_distance and tower_distance both run the block kernel on three
        # pegs, so the independent checks are the closed form and a plain BFS
        # over the half-depth ball, with the mirror sum of its two last layers
        full, half = bfs_distance(3, discs), tower_distance(3, discs)
        assert (full.distance, full.geodesic_count) == (half.distance, half.geodesic_count)
        assert (half.distance, half.geodesic_count) == (t3_closed(discs), 1)
        radius = (half.distance + 1) // 2
        layers = reference_layers(3, discs, 0, radius)
        assert half.states_explored == half.orbits_explored == sum(map(len, layers))
        top, mirror = 3**discs - 1, layers[half.distance - radius]
        assert sum(c * mirror.get(top - v, 0) for v, c in layers[radius].items()) == 1

    @pytest.mark.parametrize("discs", [0, 1, 6, 9])
    def test_three_peg_towers_never_enter_layers(self, monkeypatch, discs, solver):
        expected = tower_distance(3, discs, solver=solver)

        def no_layers(*args):
            raise AssertionError(f"_layers or _fold_tables entered for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_layers", no_layers)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_layers)
        assert tower_distance(3, discs, solver=solver) == expected
        assert geodesic_uniqueness(discs) == 1
        if discs:
            sweep = _tower_sweep(3, discs, DEFAULT_STATE_BUDGET, solver)
            assert sweep.reports[-1] == expected

    @pytest.mark.parametrize("discs", [1, 4, 7, 9])
    def test_three_peg_pairs_never_enter_layers(self, monkeypatch, discs):
        pairs = dense_pairs(3, discs)
        expected = [layers_search(3, discs, *pair) for pair in pairs]

        def no_layers(*args):
            raise AssertionError(f"_layers or _fold_tables entered for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_layers", no_layers)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_layers)
        got = [bfs_distance(3, discs, *pair) for pair in pairs]
        assert [
            (r.distance, r.geodesic_count, r.states_explored, r.orbits_explored) for r in got
        ] == expected

    @pytest.mark.parametrize("discs", range(9))
    def test_layers_match_reference_bfs(self, discs):
        # every source up to n = 4, seeded sources beyond
        size = 3**discs
        if discs <= 4:
            sources = range(size)
        else:
            sources = sorted({0, size - 1, *random.Random(size).sample(range(size), 4)})
        for source in sources:
            expected = [set(layer) for layer in reference_layers(3, discs, source)]
            assert [set(layer) for layer in _block_layers(3, discs, source)] == expected

    @pytest.mark.parametrize("discs", [0, 1, 2, 6, 9])
    def test_three_peg_metrics_never_enter_layers(self, monkeypatch, discs):
        # the eccentricity sweeps run the block kernel, like every three-peg search
        def no_layers(*args):
            raise AssertionError(f"_layers or _fold_tables entered for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_layers", no_layers)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_layers)
        metrics = graph_metrics(3, discs)
        assert (metrics.diameter, metrics.bfs_runs) == (2**discs - 1, max(discs, 1))

    def test_memory_is_not_per_state(self):
        # tables included: no byte or count slot per state of the 1,594,323
        _move_tables.cache_clear()
        _gate_tables.cache_clear()
        tracemalloc.start()
        try:
            report = bfs_distance(3, 13, 5, 1593322)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.distance, report.geodesic_count) == (8180, 1)
        assert report.states_explored == 1_560_531
        assert peak < 6 << 20


def relabel(code, pegs, discs, perm):
    """The state with every disc moved from peg q to peg perm[q]."""
    config = unpack(code, pegs, discs)
    return pack(Configuration(pegs, tuple(perm[q] for q in config.pegs)))


def eccentricity(pegs, discs, source):
    """Depth of the last layer of an unfolded BFS from ``source``."""
    layers = _layers(pegs, discs, source, _move_tables(pegs, discs), identity_fold(pegs, discs))
    return max(d for d, *_ in layers)


# Every space with p in 3..9 and at most 729 states, n = 0 and 1 included.
SWEPT_SPACES = [
    (pegs, discs)
    for pegs in range(3, 10)
    for discs in range(7)
    if pegs**discs <= 729
]

# Every space with p in 3..8 that the default metrics budget admits, n = 0 included.
EDGE_SPACES = [
    (pegs, discs)
    for pegs in range(3, 9)
    for discs in range(13)
    if pegs**discs <= DEFAULT_METRICS_BUDGET
]


class TestMetrics:
    def test_single_disc_triangle(self):
        metrics = graph_metrics(3, 1)
        assert (metrics.vertices, metrics.edges, metrics.diameter) == (3, 3, 1)

    def test_two_discs(self):
        metrics = graph_metrics(3, 2)
        assert metrics.vertices == 9
        assert metrics.edges == 12
        assert metrics.diameter == 3

    def test_five_discs_diameter(self):
        assert graph_metrics(3, 5).diameter == 31

    @pytest.mark.parametrize("pegs,discs", [(3, 3), (4, 2), (4, 3), (5, 2)])
    def test_against_networkx(self, pegs, discs):
        graph = build_graph(pegs, discs)
        metrics = graph_metrics(pegs, discs)
        assert metrics.edges == graph.number_of_edges()
        assert metrics.diameter == nx.diameter(graph)
        expected = nx.eccentricity(graph)
        for v in graph:
            assert eccentricity(pegs, discs, v) == expected[v]

    @pytest.mark.parametrize("pegs,discs", EDGE_SPACES)
    def test_edges_match_move_table_degree_sum(self, monkeypatch, pegs, discs):
        # the closed form against the move tables; the diameter, tested apart,
        # is patched out, as its sweeps take about a minute over these spaces
        monkeypatch.setattr(hanoilab.oracle, "_diameter", lambda p, n: (0, 0))
        assert 2 * graph_metrics(pegs, discs).edges == table_degree_sum(pegs, discs)

    @pytest.mark.parametrize("pegs", [3, 4])
    def test_zero_discs(self, pegs):
        metrics = graph_metrics(pegs, 0)
        assert (metrics.vertices, metrics.edges, metrics.diameter) == (1, 0, 0)

    def test_budget(self):
        with pytest.raises(StateBudgetExceeded):
            graph_metrics(3, 13)

    @pytest.mark.parametrize("pegs,discs", SWEPT_SPACES)
    def test_diameter_matches_all_vertex_sweep(self, pegs, discs):
        expected = max(eccentricity(pegs, discs, v) for v in range(pegs**discs))
        assert graph_metrics(pegs, discs).diameter == expected

    @pytest.mark.parametrize("discs", range(10))
    def test_three_peg_diameter(self, discs):
        assert graph_metrics(3, discs).diameter == 2**discs - 1

    @pytest.mark.parametrize("pegs,discs,diameter", [(3, 7, 127), (4, 5, 13)])
    def test_few_bfs_runs(self, pegs, discs, diameter):
        # the all-vertex sweep ran one BFS per state: 2,187 and 1,024 here
        metrics = graph_metrics(pegs, discs)
        assert metrics.diameter == diameter
        assert 1 <= metrics.bfs_runs <= 20

    @pytest.mark.parametrize("seed", range(40))
    def test_bounding_sweep_on_random_graphs(self, monkeypatch, seed):
        # On every Hanoi space with p^n <= 4,096 the first source, a perfect
        # tower, already has the largest eccentricity, so a bound too tight
        # goes unseen there; random graphs with one orbit per vertex start
        # the sweep anywhere.
        rng = random.Random(seed)
        graph = nx.gnp_random_graph(rng.randrange(2, 60), rng.uniform(0.03, 0.3), seed=seed)
        graph = nx.convert_node_labels_to_integers(
            graph.subgraph(max(nx.connected_components(graph), key=len))
        )
        def layers(pegs, discs, source):
            return nx.bfs_layers(graph, source)

        monkeypatch.setattr(hanoilab.oracle, "_orbit_codes", lambda p, n: list(graph))
        monkeypatch.setattr(hanoilab.oracle, "_block_layers", layers)
        diameter, runs = hanoilab.oracle._diameter(0, 0)
        assert diameter == nx.diameter(graph)
        assert 1 <= runs <= len(graph)

    def test_eccentricity_is_invariant_under_relabelling(self):
        rng = random.Random(44)
        for code in rng.sample(range(4**4), 12):
            expected = eccentricity(4, 4, code)
            for perm in itertools.permutations(range(4)):
                image = relabel(code, 4, 4, perm)
                assert eccentricity(4, 4, image) == expected

    @pytest.mark.parametrize("pegs,discs,orbits", [(3, 6, 122), (4, 4, 15), (5, 3, 5)])
    def test_orbit_codes_name_one_state_per_orbit(self, pegs, discs, orbits):
        reps = _orbit_codes(pegs, discs)
        assert len(reps) == pegs**discs
        assert len(set(reps)) == orbits  # set partitions into at most p blocks
        for code, rep in enumerate(reps):
            assert reps[rep] == rep
            for perm in itertools.permutations(range(pegs)):
                assert reps[relabel(code, pegs, discs, perm)] == rep


class TestCertify:
    def test_three_pegs_all_agree(self, solver):
        sweep = certify_range(3, 10, solver=solver)
        assert len(sweep.reports) == 10
        assert sweep.all_agree
        assert [r.distance for r in sweep.reports] == [2**n - 1 for n in range(1, 11)]

    def test_four_pegs_small(self, solver):
        sweep = certify_range(4, 6, solver=solver)
        assert [r.distance for r in sweep.reports] == [1, 3, 5, 9, 13, 17]
        assert sweep.all_agree

    def test_five_pegs_to_eight(self, solver):
        sweep = certify_range(5, 8, solver=solver)
        assert [r.distance for r in sweep.reports] == [1, 3, 5, 7, 11, 15, 19, 23]
        assert sweep.all_agree

    def test_budget_skips_do_not_abort(self, solver):
        sweep = certify_range(4, 10, state_budget=4**3, solver=solver)
        assert sweep.reports == tuple(bfs_distance(4, n, solver=solver) for n in (1, 2, 3))
        assert [s.discs for s in sweep.skipped] == list(range(4, 11))
        assert sweep.skipped[0].required == 4**4
        assert sweep.all_agree

    def test_rejects_empty_sweep(self):
        with pytest.raises(DomainError):
            certify_range(4, 0)

    # each peg count of TOWER_SPACES swept to its last disc count, and (3, 1..10)
    @pytest.mark.parametrize(
        "pegs,top", [(3, 10)] + [(p, n) for p, n in TOWER_SPACES if (p, n + 1) not in TOWER_SPACES]
    )
    def test_matches_per_disc_bfs(self, pegs, top, solver):
        # one tower search and one ball search against a full BFS per disc count,
        # whose geodesics the dense back-walk and the block search count apart
        expected = tuple(bfs_distance(pegs, n, solver=solver) for n in range(1, top + 1))
        sweep = certify_range(pegs, top, solver=solver)
        assert (sweep.pegs, sweep.reports, sweep.skipped) == (pegs, expected, ())

    def test_every_level_skipped_runs_no_search(self, monkeypatch, solver):
        def no_search(*args):
            raise AssertionError(f"searched {args}")

        for name in ("_tower_rows", "_block_towers", "_dense_balls", "_build_masks"):
            monkeypatch.setattr(hanoilab.oracle, name, no_search)
        sweep = certify_range(4, 3, state_budget=3, solver=solver)
        assert sweep.reports == ()
        assert sweep.skipped == tuple(SkippedLevel(n, 4**n, 3) for n in (1, 2, 3))

    def test_disc_ceiling_checked_before_either_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError(f"searched {args}")

        for name in ("_tower_rows", "_dense_balls"):
            monkeypatch.setattr(hanoilab.oracle, name, no_search)
        with pytest.raises(DiscLimitError, match="disc count 6 exceeds"):
            certify_range(4, 8, solver=HanoiSolver(max_discs=5))


# The per-space table builders, each cached by `_space_cache` under its own weight.
BUILDERS = [_move_tables, _gate_tables, _fold_tables, _build_masks]


def counting_builds(monkeypatch, builders=BUILDERS):
    """Swap each cached builder for one under the same cache rule, with an
    empty cache, that logs its builds; returns the swapped builders and the
    spaces each built, in order, keyed by name."""
    built = {}
    swapped = []
    for tables in builders:
        name = tables.__name__

        def build(pegs, discs, name=name, raw=tables.__wrapped__):
            built.setdefault(name, []).append((pegs, discs))
            return raw(pegs, discs)

        swapped.append(hanoilab.oracle._space_cache(tables.weigh)(build))
        monkeypatch.setattr(hanoilab.oracle, name, swapped[-1])
    return swapped, built


def held_bytes():
    gc.collect()  # also empties the free lists, which tracemalloc counts as held
    return tracemalloc.get_traced_memory()[0]


class TestTableCache:
    @pytest.mark.parametrize("tables", BUILDERS, ids=lambda f: f.__name__)
    def test_small_spaces_stay_cached_together(self, monkeypatch, tables):
        # the spaces of a certify pass and of the graph workload's pairs
        (cached,), built = counting_builds(monkeypatch, [tables])
        spaces = [(3, 10), (4, 9), (5, 6), (3, 11), (3, 6)]
        first = [cached(*space) for space in spaces]
        assert all(cached(*space) is got for space, got in zip(spaces, first))
        assert built == {tables.__name__: spaces}

    @pytest.mark.parametrize("tables", BUILDERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("large", [(4, 11), (16, 5)])
    def test_heavy_space_is_built_per_call_and_evicts_nothing(self, monkeypatch, tables, large):
        # a budget just below the large space's weight
        monkeypatch.setattr(hanoilab.oracle, "_TABLE_CACHE_BYTES", (tables.weigh(*large) - 1) // 8)
        (cached,), built = counting_builds(monkeypatch, [tables])
        small = cached(4, 9)
        heavy = cached(*large)
        assert cached(*large) is not heavy
        assert cached(4, 9) is small
        assert built == {tables.__name__: [(4, 9), large, large]}

    def test_least_recently_used_space_goes_first(self, monkeypatch):
        for tables in BUILDERS:
            # room for the weights of (4,8) and (4,9) but not (4,7) too
            room = (tables.weigh(4, 8) + tables.weigh(4, 9)) // 8
            monkeypatch.setattr(hanoilab.oracle, "_TABLE_CACHE_BYTES", room)
            (cached,), built = counting_builds(monkeypatch, [tables])
            a, b = cached(4, 8), cached(4, 9)
            assert cached(4, 8) is a
            cached(4, 7)
            assert cached(4, 8) is a
            assert cached(4, 9) is not b
            assert built == {tables.__name__: [(4, 8), (4, 9), (4, 7), (4, 9)]}

    @pytest.mark.parametrize(
        "call,expected",
        [
            pytest.param(
                lambda: tower_distance(4, 12),
                {"_fold_tables": [(4, 11)], "_move_tables": [(4, 11)]},
                id="tower_distance(4, 12)",
            ),
            pytest.param(
                lambda: bfs_distance(3, 15, 123456, 9876543),
                {"_gate_tables": [(3, 15)], "_move_tables": [(3, 15)]},
                id="three-peg pair",
            ),
            pytest.param(
                # the (3,15) tables traced 0.33 MiB: weighed by their block
                # codes, not by the states of the space, they stay cached
                lambda: [bfs_distance(3, 15, 1000, 2000) for _ in range(2)],
                {"_gate_tables": [(3, 15)], "_move_tables": [(3, 15)]},
                id="two short three-peg pairs",
            ),
            pytest.param(
                lambda: [bfs_distance(4, 9, *pair) for pair in dense_pairs(4, 9, count=4)[:4]],
                {"_build_masks": [(4, 9)]},
                id="four (4,9) pairs",
            ),
        ],
    )
    def test_searches_build_their_tables_once(self, monkeypatch, call, expected):
        _, built = counting_builds(monkeypatch)
        call()
        assert built == expected

    def test_shells_memo_stops_at_its_pattern_count(self, monkeypatch):
        # the gate tables' weight counts _SHELL_PATTERNS patterns of shells
        pairs = [(1000, 2000), (5, 3**11 - 7), (123, 45678)]
        expected = [bfs_distance(3, 11, *pair) for pair in pairs]
        monkeypatch.setattr(hanoilab.oracle, "_SHELL_PATTERNS", 4)
        (gate_tables,), _ = counting_builds(monkeypatch, [_gate_tables])
        assert [bfs_distance(3, 11, *pair) for pair in pairs] == expected
        assert len(gate_tables(3, 11)[4]) == 4

    def test_diameter_builds_masks_once(self, monkeypatch):
        # an uncached space is built once per sweep, not once per BFS run
        monkeypatch.setattr(hanoilab.oracle, "_TABLE_CACHE_BYTES", 0)
        _, built = counting_builds(monkeypatch)
        metrics = graph_metrics(4, 5)
        assert (metrics.diameter, metrics.bfs_runs) == (13, 7)
        assert built == {"_build_masks": [(4, 5)]}

    @pytest.mark.parametrize(
        "call,fields,warm",
        [
            (lambda: tower_distance(16, 6), (11, 240240, 4488016), lambda: _move_tables(16, 5)),
            (
                lambda: bfs_distance(3, 15, 123456, 9876543),
                (28926, 1, 10665275),
                lambda: bfs_distance(3, 15, 123456, 9876543),
            ),
            (
                lambda: bfs_distance(3, 16, 5, 3**16 - 7, state_budget=3**16),
                (65533, 1, 42997569),
                lambda: _move_tables(3, 16),
            ),
            (lambda: bfs_distance(4, 11, 5, 4**11 - 7), (60, 1201672, 4194268), lambda: None),
        ],
        ids=["tower_distance(16, 6)", "(3,15) pair", "(3,16) pair", "(4,11) pair"],
    )
    def test_heavy_tables_never_stay(self, call, fields, warm):
        # spaces heavier than the cache budget: the (16,5) fold and move tables
        # took 26.7 MiB, and stayed until the next table call.  ``warm`` builds
        # the light tables of the search first, which stay: the (16,5) and
        # (3,16) move tables, and every (3,15) table with the shells the pair
        # keeps in its memo, so a repeat of that pair holds nothing more
        masks = _build_masks(4, 9)
        warm()
        tracemalloc.start()
        try:
            before = held_bytes()
            report = call()
            after = held_bytes()
        finally:
            tracemalloc.stop()
        assert (report.distance, report.geodesic_count, report.states_explored) == fields
        assert abs(after - before) <= 1 << 20
        assert _build_masks(4, 9) is masks
