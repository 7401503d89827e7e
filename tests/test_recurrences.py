import functools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoilab.errors import DiscLimitError, DomainError
from hanoilab.recurrences import (
    HanoiSolver,
    PlateauRun,
    balanced_fs,
    delta_k,
    fs_split,
    growth_exponent_diagnostic,
    growth_table,
    plateau_scan,
    ratio_rho,
    render_ratio,
    sensitivity_profile,
    t3_closed,
    t3_from_recurrence,
    tp_optimal,
)

# Published four-peg reference values for n = 1..15 (also embedded in
# hanoilab.tables); used here as an oracle that does not touch the solver.
T4_TABLE = {
    1: 1, 2: 3, 3: 5, 4: 9, 5: 13, 6: 17, 7: 25, 8: 33,
    9: 41, 10: 49, 11: 65, 12: 81, 13: 97, 14: 113, 15: 129,
}


#: Disc range of the DP reference below.
DP_DISCS = 512


@functools.cache
def dp_reference(pegs):
    """Bottom-up minimisation over every split, independent of the solver.

    Returns (costs, argmin tuples) indexed by n <= DP_DISCS, built in
    O(pegs * n^2) steps.  Two pegs carry at most one disc, so at three
    pegs the only admissible split parks n - 1 discs.
    """
    if pegs == 2:
        return [0, 1], [(), ()]
    below = dp_reference(pegs - 1)[0]
    costs, splits = [0, 1], [(), ()]
    for n in range(2, DP_DISCS + 1):
        ks = range(max(1, n - len(below) + 1), n)
        candidates = [2 * costs[k] + below[n - k] for k in ks]
        best = min(candidates)
        costs.append(best)
        splits.append(tuple(k for k, c in zip(ks, candidates) if c == best))
    return costs, splits


def scan_splits(n):
    """Brute-force split scan built from the published table values."""
    costs = {k: 2 * T4_TABLE[k] + (1 << (n - k)) - 1 for k in range(1, n)}
    best = min(costs.values())
    return best, tuple(k for k in sorted(costs) if costs[k] == best)


class TestClosedForm:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (3, 7), (15, 32767)])
    def test_examples(self, n, expected):
        assert t3_closed(n) == expected

    def test_sixty_four_discs_exact(self):
        assert t3_closed(64) == 2**64 - 1
        assert tp_optimal(3, 64).cost == 18446744073709551615

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            t3_closed(-1)

    def test_recurrence_form_matches_closed_form(self):
        # the DP view of three pegs must coincide with 2**n - 1
        for n in range(0, 65):
            assert t3_from_recurrence(n) == t3_closed(n)


class TestOptimalSolve:
    def test_four_pegs_nine_discs(self, solver):
        result = tp_optimal(4, 9, solver)
        assert result.cost == 41
        # exhaustive scan over the published values gives the tied splits
        best, ks = scan_splits(9)
        assert best == 41 and ks == (5, 6)
        assert result.argmin_splits == (5, 6)
        assert result.canonical_split == 5

    def test_thirteen_disc_tie(self, solver):
        assert tp_optimal(4, 13, solver).argmin_splits == (8, 9)

    def test_five_pegs_ten_discs(self, solver):
        assert tp_optimal(5, 10, solver).cost == 31

    def test_single_disc_many_pegs(self, solver):
        result = tp_optimal(7, 1, solver)
        assert result.cost == 1
        assert result.canonical_split is None
        assert result.argmin_splits == ()

    def test_zero_discs(self, solver):
        assert tp_optimal(4, 0, solver).cost == 0

    def test_three_peg_splits(self, solver):
        result = tp_optimal(3, 6, solver)
        assert result.cost == 63
        assert result.argmin_splits == (5,)

    @pytest.mark.parametrize("pegs", range(3, 13))
    def test_matches_naive_recursion(self, pegs, solver):
        costs, splits = dp_reference(pegs)
        for n in range(DP_DISCS + 1):
            assert solver.cost(pegs, n) == costs[n]
            assert solver.argmin_splits(pegs, n) == splits[n]

    @given(st.integers(min_value=4, max_value=30), st.integers(min_value=2, max_value=512))
    @settings(max_examples=60, deadline=None)
    def test_cost_is_the_minimum_over_splits(self, pegs, n):
        s = HanoiSolver()
        by_split = {k: 2 * s.cost(pegs, k) + s.cost(pegs - 1, n - k) for k in range(1, n)}
        best = min(by_split.values())
        assert s.cost(pegs, n) == best
        assert s.argmin_splits(pegs, n) == tuple(k for k in by_split if by_split[k] == best)

    def test_three_pegs_are_never_tabulated(self):
        # a T_3 cost table holds O(n^2) bits; with one, this call peaks near 28 MiB
        tracemalloc.start()
        try:
            HanoiSolver(max_discs=20_000).solve(4, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_splits_achieve_cost(self, solver):
        for n in range(2, 26):
            result = tp_optimal(4, n, solver)
            for k in result.argmin_splits:
                assert 1 <= k < n
                assert fs_split(n, k, solver) == result.cost

    def test_rejects_two_pegs(self):
        with pytest.raises(DomainError):
            tp_optimal(2, 3)

    def test_disc_limit(self):
        small = HanoiSolver(max_discs=16)
        with pytest.raises(DiscLimitError):
            small.cost(4, 17)
        assert small.cost(4, 16) == 161

    def test_determinism_across_sessions(self):
        a = HanoiSolver()
        b = HanoiSolver()
        for n in (5, 12, 20, 20, 5):
            assert a.solve(4, n) == b.solve(4, n)
            assert a.solve(5, n) == b.solve(5, n)


class TestFsSplit:
    @pytest.mark.parametrize(
        "n,k,expected", [(13, 6, 161), (9, 5, 41), (1, 0, 1), (9, 4, 49)]
    )
    def test_examples(self, n, k, expected, solver):
        assert fs_split(n, k, solver) == expected

    def test_rejects_k_at_or_above_n(self):
        with pytest.raises(DomainError):
            fs_split(5, 5)
        with pytest.raises(DomainError):
            fs_split(5, 7)

    def test_rejects_zero_split_for_multiple_discs(self):
        with pytest.raises(DomainError):
            fs_split(2, 0)

    @given(st.integers(min_value=2, max_value=28), st.data())
    def test_never_beats_the_optimum(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        result = tp_optimal(4, n)
        assert fs_split(n, k) >= result.cost
        assert (fs_split(n, k) == result.cost) == (k in result.argmin_splits)


class TestBalanced:
    @pytest.mark.parametrize("n,expected", [(8, 33), (15, 305), (20, 1121), (1, 1)])
    def test_examples(self, n, expected, solver):
        assert balanced_fs(n, solver) == expected

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            balanced_fs(0)

    def test_window(self, solver):
        for n in range(1, 9):
            assert balanced_fs(n, solver) == tp_optimal(4, n, solver).cost
        for n in range(9, 31):
            assert balanced_fs(n, solver) > tp_optimal(4, n, solver).cost


class TestRatio:
    @pytest.mark.parametrize(
        "n,expected", [(8, "1.000"), (9, "1.195"), (13, "1.660"), (19, "4.300")]
    )
    def test_examples(self, n, expected, solver):
        assert ratio_rho(n, solver).rendered == expected

    def test_exact_fraction_kept(self, solver):
        value = ratio_rho(9, solver)
        assert (value.numerator, value.denominator) == (49, 41)
        assert float(value.exact) == pytest.approx(49 / 41)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            ratio_rho(0)

    def test_rendering_rounds_half_away_from_zero(self):
        assert render_ratio(1, 8) == "0.125"
        assert render_ratio(3, 16) == "0.188"  # 0.1875 rounds away
        assert render_ratio(-3, 16) == "-0.188"
        assert render_ratio(5, 2) == "2.500"
        assert render_ratio(1, 3) == "0.333"
        assert render_ratio(2, 3) == "0.667"
        assert render_ratio(7, 7) == "1.000"

    def test_rendering_rejects_bad_denominator(self):
        with pytest.raises(DomainError):
            render_ratio(1, 0)


class TestDeltas:
    @pytest.mark.parametrize("n,k,expected", [(9, 5, 0), (8, 3, -8), (3, 1, 2)])
    def test_examples(self, n, k, expected, solver):
        assert delta_k(n, k, solver).delta == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            delta_k(9, 0)
        with pytest.raises(DomainError):
            delta_k(9, 8)

    @given(st.integers(min_value=3, max_value=30), st.data())
    @settings(max_examples=60)
    def test_telescopes_the_split_cost(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 2))
        assert delta_k(n, k).delta == fs_split(n, k + 1) - fs_split(n, k)

    def test_profile_lengths(self, solver):
        assert len(sensitivity_profile(3, solver).deltas) == 1
        profile = sensitivity_profile(9, solver)
        assert len(profile.deltas) == 7
        assert profile.deltas[4].split == 5
        assert profile.deltas[4].delta == 0

    def test_profile_sign_changes(self, solver):
        # zeros are skipped; a single flip happens for every n in 9..15
        assert sensitivity_profile(9, solver).sign_changes == 1
        assert sensitivity_profile(13, solver).sign_changes == 1
        for n in range(9, 16):
            assert sensitivity_profile(n, solver).sign_changes == 1

    def test_profile_rejects_small_n(self):
        with pytest.raises(DomainError):
            sensitivity_profile(2)

    @pytest.mark.parametrize(
        "call, discs, limit",
        [
            # only T_4(k + 1) is bounded, so the first k + 1 past the ceiling is named
            (lambda: delta_k(600, 512, HanoiSolver()), 513, 512),
            (lambda: delta_k(20, 12, HanoiSolver(10)), 13, 10),
            (lambda: delta_k(20, 10, HanoiSolver(10)), 11, 10),
            (lambda: sensitivity_profile(514, HanoiSolver()), 513, 512),
            (lambda: sensitivity_profile(50, HanoiSolver(10)), 11, 10),
            (lambda: sensitivity_profile(12, HanoiSolver(10)), 11, 10),
        ],
    )
    def test_past_the_ceiling(self, call, discs, limit):
        with pytest.raises(DiscLimitError) as info:
            call()
        assert (info.value.discs, info.value.limit) == (discs, limit)

    def test_rows_up_to_the_ceiling_plus_one(self):
        # n may pass the ceiling by one: the shuttle's 2**(n-k) is not bounded
        assert delta_k(20, 9, HanoiSolver(10)).delta == -1008
        assert delta_k(600, 511, HanoiSolver()).delta == fs_split(600, 512) - fs_split(600, 511)
        assert len(sensitivity_profile(513, HanoiSolver()).deltas) == 511
        assert len(sensitivity_profile(11, HanoiSolver(10)).deltas) == 9


class TestPlateaus:
    def test_shuttle_five_plateau(self, solver):
        assert plateau_scan(4, (15, 20), solver) == [PlateauRun(15, 20, 5)]

    def test_single_point(self, solver):
        assert plateau_scan(4, (2, 2), solver) == [PlateauRun(2, 2, 1)]

    def test_nine_to_fourteen(self, solver):
        assert plateau_scan(4, (9, 14), solver) == [
            PlateauRun(9, 9, 3),
            PlateauRun(10, 14, 4),
        ]

    def test_canonical_tie_rule(self, solver):
        # smallest parked count breaks the tie the other way from n=16 on
        assert plateau_scan(4, (15, 20), solver, tie="canonical") == [
            PlateauRun(15, 15, 5),
            PlateauRun(16, 20, 6),
        ]

    def test_rejects_three_pegs_and_bad_ranges(self):
        with pytest.raises(DomainError):
            plateau_scan(3, (2, 5))
        with pytest.raises(DomainError):
            plateau_scan(4, (1, 5))
        with pytest.raises(DomainError):
            plateau_scan(4, (6, 5))
        with pytest.raises(DomainError):
            plateau_scan(4, (2, 5), tie="widest")


class TestGrowthTable:
    def test_row_seven(self, solver):
        rows = growth_table((3, 4, 5), (7, 7), solver)
        assert rows[0].costs == (127, 25, 19)

    def test_row_twelve(self, solver):
        rows = growth_table((4, 5), (12, 12), solver)
        assert rows[0].costs == (81, 47)

    def test_single_peg_column(self, solver):
        rows = growth_table((3,), (1, 1), solver)
        assert rows[0].costs == (1,)

    def test_pegs_sorted_and_deduplicated(self, solver):
        rows = growth_table((5, 3, 5), (4, 4), solver)
        assert rows[0].costs == (15, 7)

    def test_rejects_bad_pegs(self):
        with pytest.raises(DomainError):
            growth_table((2, 4), (1, 5))
        with pytest.raises(DomainError):
            growth_table((), (1, 5))

    @pytest.mark.parametrize(
        "pegs, n_range, discs",
        [((3, 4), (5, 15), 11), ((3,), (12, 15), 12), ((20, 4), (11, 11), 11)],
    )
    def test_past_the_ceiling_names_the_first_disc_count(self, pegs, n_range, discs):
        with pytest.raises(DiscLimitError) as info:
            growth_table(pegs, n_range, HanoiSolver(10))
        assert (info.value.discs, info.value.limit) == (discs, 10)

    def test_up_to_the_ceiling(self):
        rows = growth_table((20, 4), (0, 10), HanoiSolver(10))
        assert [row.discs for row in rows] == list(range(11))


class TestGrowthDiagnostic:
    def test_four_peg_fit_is_nearly_linear(self, solver):
        fit = growth_exponent_diagnostic(4, (1, 30), solver)
        assert fit.correlation > 0.99
        assert fit.slope > 0

    def test_five_peg_fit_reports(self, solver):
        fit = growth_exponent_diagnostic(5, (1, 30), solver)
        assert 0 < fit.correlation <= 1
        assert fit.slope > 0

    def test_rejects_short_ranges(self):
        with pytest.raises(DomainError):
            growth_exponent_diagnostic(4, (1, 8))


class TestMonotonicity:
    def test_strictly_increasing_in_discs(self, solver):
        for pegs in (3, 4, 5, 6):
            costs = [tp_optimal(pegs, n, solver).cost for n in range(1, 41)]
            assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_non_increasing_in_pegs(self, solver):
        for n in range(0, 31):
            costs = [tp_optimal(p, n, solver).cost for p in range(3, 9)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))
