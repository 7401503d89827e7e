"""Exact evaluation of multi-peg transfer-cost recurrences.

Costs are plain Python integers, so arbitrarily large move counts (the
64-disc 2**64 - 1 included) stay exact.  For p >= 4 pegs the cost is
the divide-and-conquer minimum

    T_p(n) = min over 1 <= k < n of  2*T_p(k) + T_{p-1}(n - k)

where k counts the discs parked aside in the first phase and the
remaining n - k discs shuttle across on one peg fewer.  It is the true
optimum for p = 3 (closed form 2**n - 1) and p = 4 (Bousch, 2014); for
p >= 5 it is the Frame-Stewart value, conjectured optimal.

No minimisation runs here.  Each increment T_p(n) - T_p(n-1) is 2**t,
where t = t_p(n) is the least t with C(t+p-2, p-2) >= n, so the
exponent t repeats C(t+p-3, p-3) times (Klavzar, Milutinovic & Petr,
2002).  The split cost f(k) = 2*T_p(k) + T_{p-1}(n-k) is convex: its
step f(k+1) - f(k) = 2**(1 + t_p(k+1)) - 2**t_{p-1}(n-k) never
decreases, so the optimal splits are the k where that step turns from
negative to positive, found by bisection over the exponents.  On four
pegs that step is the split derivative Delta(n, k), which
:func:`delta_k`, :func:`sensitivity_profile` and the ``deltas`` table
read from the exponents in O(1) per entry.  A :class:`HanoiSolver`
session memoises the exponents and costs per peg count; the
module-level helpers share a default session.

Split indices follow the parking convention throughout: ``k`` is the
number of discs parked, so the three-peg shuttle has size ``n - k``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import DiscLimitError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction

#: Default ceiling on disc counts accepted by a solver session.  The memo
#: holds one exponent and one exact cost per disc count and peg count
#: filled, in O(n) steps; raise the ceiling explicitly if needed.
DEFAULT_MAX_DISCS = 512


def t3_closed(n: int) -> int:
    """Closed-form three-peg cost 2**n - 1 (0 for an empty tower)."""
    if n < 0:
        raise DomainError(f"disc count must be non-negative, got {n}")
    return (1 << n) - 1


def t3_from_recurrence(n: int) -> int:
    """Three-peg cost evaluated through the split recurrence.

    Cross-check companion to :func:`t3_closed`: with only three pegs the
    shuttle runs on two pegs and can carry at most one disc, so the only
    admissible split is k = n - 1 and the recurrence is
    T_3(n) = 2*T_3(n-1) + 1 from T_3(0) = 0, applied n times here.
    """
    if n < 0:
        raise DomainError(f"disc count must be non-negative, got {n}")
    cost = 0
    for _ in range(n):
        cost = 2 * cost + 1
    return cost


def render_ratio(numerator: int, denominator: int, places: int = 3) -> str:
    """Render numerator/denominator as a decimal string.

    Rounding is half-away-from-zero at exactly ``places`` fractional
    digits, computed on integers so no precision is lost.
    """
    if denominator <= 0:
        raise DomainError(f"denominator must be positive, got {denominator}")
    if places < 0:
        raise DomainError(f"places must be non-negative, got {places}")
    scale = 10**places
    q, r = divmod(abs(numerator) * scale, denominator)
    if 2 * r >= denominator:
        q += 1
    body = f"{q // scale}.{q % scale:0{places}d}" if places else str(q)
    return f"-{body}" if numerator < 0 and q else body


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Recurrence cost for (pegs, discs) plus every split that reaches it.

    ``cost`` is optimal for three and four pegs and the Frame-Stewart
    value for five or more.  ``argmin_splits`` lists every parked-disc
    count achieving the minimum, in increasing order; it is empty for
    discs <= 1 where the recurrence does not apply.
    """

    pegs: int
    discs: int
    cost: int
    argmin_splits: tuple[int, ...]

    @property
    def canonical_split(self) -> int | None:
        """Smallest optimal split, or None when no split exists."""
        return self.argmin_splits[0] if self.argmin_splits else None


@dataclass(frozen=True, slots=True)
class DeltaValue:
    """Discrete derivative of the four-peg split cost at (n, k)."""

    discs: int
    split: int
    delta: int


@dataclass(frozen=True, slots=True)
class RatioValue:
    """Balanced-over-optimal cost ratio, exact until rendered."""

    numerator: int
    denominator: int
    rendered: str

    @property
    def exact(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True, slots=True)
class SensitivityProfile:
    """All split derivatives for one disc count, with sign-change count.

    Zero deltas are skipped when counting sign changes.
    """

    discs: int
    deltas: tuple[DeltaValue, ...]
    sign_changes: int


@dataclass(frozen=True, slots=True)
class PlateauRun:
    """Maximal run [start, stop] of disc counts sharing one shuttle size."""

    start: int
    stop: int
    shuttle: int


@dataclass(frozen=True, slots=True)
class GrowthRow:
    """Costs for one disc count across several peg counts (ascending)."""

    discs: int
    costs: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class GrowthFit:
    """Least-squares fit of log2-cost against n**(1/(p-2)).

    Purely diagnostic; carries no pass/fail semantics.
    """

    pegs: int
    start: int
    stop: int
    slope: float
    intercept: float
    correlation: float


class HanoiSolver:
    """Memoised evaluator for multi-peg transfer costs.

    A session owns a private memo table: use it from one thread at a
    time (hand-off between threads is fine) and create separate sessions
    for concurrent work.  Memoisation never changes observable values.
    """

    def __init__(self, max_discs: int = DEFAULT_MAX_DISCS) -> None:
        if max_discs < 1:
            raise DomainError(f"max_discs must be positive, got {max_discs}")
        self.max_discs = max_discs
        # peg count >= 4 -> (increment exponents t_p(n), costs T_p(n)),
        # both indexed by disc count; three pegs are never tabulated
        self._memo: dict[int, tuple[list[int], list[int]]] = {}

    def _check(self, pegs: int, discs: int) -> None:
        if pegs < 3:
            raise DomainError(f"need at least 3 pegs, got {pegs}")
        if discs < 0:
            raise DomainError(f"disc count must be non-negative, got {discs}")
        if discs > self.max_discs:
            raise DiscLimitError(discs, self.max_discs)

    def _level(self, pegs: int, discs: int) -> tuple[list[int], list[int]]:
        """The memo entry for ``pegs`` >= 4, extended to ``discs``."""
        exponents, costs = self._memo.setdefault(pegs, ([0], [0]))
        t = exponents[-1]
        for n in range(len(costs), discs + 1):
            while math.comb(t + pegs - 2, pegs - 2) < n:
                t += 1
            exponents.append(t)
            costs.append(costs[-1] + (1 << t))
        return exponents, costs

    def cost(self, pegs: int, discs: int) -> int:
        """Move count of the recurrence for the given pegs and discs.

        Optimal for three and four pegs; the Frame-Stewart value, which
        is conjectured optimal, for five or more.
        """
        self._check(pegs, discs)
        if pegs == 3:
            return (1 << discs) - 1
        return self._level(pegs, discs)[1][discs]

    def argmin_splits(self, pegs: int, discs: int) -> tuple[int, ...]:
        """Every parked-disc count achieving the optimum, increasing."""
        self._check(pegs, discs)
        if discs <= 1:
            return ()
        if pegs == 3:
            # only a single disc fits through the two-peg shuttle
            return (discs - 1,)
        upper = self._level(pegs, discs)[0]
        # t_3(n) = n - 1, read from a range: three pegs are never tabulated
        lower = range(-1, discs) if pegs == 4 else self._level(pegs - 1, discs)[0]

        def step(k: int) -> int:
            # f(k+1) - f(k) = 2**(1 + t_p(k+1)) - 2**t_{p-1}(n-k) has this
            # sign, and never decreases in k
            return 1 + upper[k + 1] - lower[discs - k]

        steps = range(1, discs - 1)
        first = 1 + bisect_left(steps, 0, key=step)
        last = 1 + bisect_right(steps, 0, key=step)
        return tuple(range(first, last + 1))

    def solve(self, pegs: int, discs: int) -> SolveResult:
        return SolveResult(
            pegs, discs, self.cost(pegs, discs), self.argmin_splits(pegs, discs)
        )


_shared_solver = HanoiSolver()


def _resolve(solver: HanoiSolver | None) -> HanoiSolver:
    return _shared_solver if solver is None else solver


def tp_optimal(pegs: int, discs: int, solver: HanoiSolver | None = None) -> SolveResult:
    """Recurrence cost plus all minimising splits for (pegs, discs).

    The cost is optimal for three and four pegs and the Frame-Stewart
    value for five or more.
    """
    return _resolve(solver).solve(pegs, discs)


def fs_split(n: int, k: int, solver: HanoiSolver | None = None) -> int:
    """Four-peg cost of parking k discs: 2*T_4(k) + (2**(n-k) - 1).

    k = 0 is only admissible for a single disc (the degenerate row of the
    reference table); for n > 1 a split must park at least one disc.
    """
    if n < 1:
        raise DomainError(f"disc count must be at least 1, got {n}")
    if k < 0 or k >= n:
        raise DomainError(f"split must satisfy 0 <= k < n, got k={k} for n={n}")
    if k == 0 and n > 1:
        raise DomainError("k = 0 is only admissible for a single disc")
    return 2 * _resolve(solver).cost(4, k) + t3_closed(n - k)


def balanced_fs(n: int, solver: HanoiSolver | None = None) -> int:
    """Cost of the balanced heuristic, which always parks floor(n/2)."""
    if n < 1:
        raise DomainError(f"disc count must be at least 1, got {n}")
    return fs_split(n, n // 2, solver)


def ratio_rho(n: int, solver: HanoiSolver | None = None) -> RatioValue:
    """Balanced-split cost over the true four-peg optimum.

    The quotient stays an exact integer pair; ``rendered`` rounds it
    half-away-from-zero to three decimals.
    """
    if n < 1:
        raise DomainError(f"disc count must be at least 1, got {n}")
    s = _resolve(solver)
    numerator = balanced_fs(n, s)
    denominator = s.cost(4, n)
    return RatioValue(numerator, denominator, render_ratio(numerator, denominator))


def _split_steps(s: HanoiSolver, n: int, first: int, last: int) -> list[int]:
    """Split derivatives Delta(n, k) for k = first .. last, as plain ints.

    The four-peg split cost is f(k) = 2*T_4(k) + 2**(n-k) - 1, and each
    increment T_4(k+1) - T_4(k) is 2**t_4(k+1), so

        Delta(n, k) = f(k+1) - f(k) = 2**(1 + t_4(k+1)) - 2**(n-k-1):

    one read of the session's exponent list and two shifts per k.  Only
    T_4(k+1) is bounded by the disc ceiling, so the error names the first
    k + 1 past it, as evaluating f(k+1) row by row would.
    """
    if last >= s.max_discs:
        raise DiscLimitError(max(first, s.max_discs) + 1, s.max_discs)
    exponents = s._level(4, last + 1)[0]
    return [(2 << exponents[k + 1]) - (1 << (n - k - 1)) for k in range(first, last + 1)]


def delta_k(n: int, k: int, solver: HanoiSolver | None = None) -> DeltaValue:
    """Exact change in the four-peg split cost when k grows by one.

    Delta(n, k) = fs_split(n, k+1) - fs_split(n, k)
    = 2**(1 + t_4(k+1)) - 2**(n-k-1), read in O(1) from the exponent list
    of the session (filled once to k + 1).  Positive values mean parking
    more discs worsens the cost.
    """
    if n < 3:
        raise DomainError(f"disc count must be at least 3, got {n}")
    if k < 1 or k > n - 2:
        raise DomainError(f"split must satisfy 1 <= k <= n-2, got k={k} for n={n}")
    return DeltaValue(n, k, _split_steps(_resolve(solver), n, k, k)[0])


def sensitivity_profile(n: int, solver: HanoiSolver | None = None) -> SensitivityProfile:
    """Split derivatives for every admissible k, plus sign-change count.

    The row holds Delta(n, k) = 2**(1 + t_4(k+1)) - 2**(n-k-1) for
    k = 1 .. n-2 (see :func:`delta_k`), each read in O(1) from the
    session's exponent list.
    """
    if n < 3:
        raise DomainError(f"disc count must be at least 3, got {n}")
    deltas = _split_steps(_resolve(solver), n, 1, n - 2)
    signs = [d > 0 for d in deltas if d]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    return SensitivityProfile(
        n, tuple(DeltaValue(n, k, d) for k, d in enumerate(deltas, 1)), changes
    )


def plateau_scan(
    pegs: int,
    n_range: tuple[int, int],
    solver: HanoiSolver | None = None,
    tie: str = "min-shuttle",
) -> list[PlateauRun]:
    """Maximal runs of consecutive n whose shuttle size is constant.

    The shuttle size of n is n - k for the selected optimal split k.
    Optimal splits are frequently tied; ``tie`` picks the representative:

    * ``"min-shuttle"`` (default) takes the largest parked count, i.e.
      the smallest shuttle.  This is the selection under which the long
      constant-shuttle plateaux appear (shuttle 5 across 15..20).
    * ``"canonical"`` takes the smallest parked count, matching
      ``SolveResult.canonical_split``.
    """
    if pegs < 4:
        raise DomainError(f"plateau scan needs at least 4 pegs, got {pegs}")
    if tie not in ("min-shuttle", "canonical"):
        raise DomainError(f"unknown tie rule {tie!r}")
    lo, hi = n_range
    if lo < 2 or lo > hi:
        raise DomainError(f"need 2 <= start <= stop, got {n_range}")
    s = _resolve(solver)
    runs: list[PlateauRun] = []
    for n in range(lo, hi + 1):
        ks = s.argmin_splits(pegs, n)
        k = ks[-1] if tie == "min-shuttle" else ks[0]
        shuttle = n - k
        if runs and runs[-1].shuttle == shuttle:
            runs[-1] = PlateauRun(runs[-1].start, n, shuttle)
        else:
            runs.append(PlateauRun(n, n, shuttle))
    return runs


def growth_table(
    pegs: Iterable[int],
    n_range: tuple[int, int],
    solver: HanoiSolver | None = None,
) -> list[GrowthRow]:
    """One row per disc count with the recurrence cost for each peg count.

    Peg counts are deduplicated and reported in ascending order.  Each
    peg count's cost list is filled once to the stop, in O(n) steps, and
    three pegs are (1 << n) - 1; a row is then one read per peg count.
    """
    wanted = sorted(set(pegs))
    if not wanted:
        raise DomainError("need at least one peg count")
    for p in wanted:
        if p < 3:
            raise DomainError(f"need at least 3 pegs, got {p}")
    lo, hi = n_range
    if lo < 0 or lo > hi:
        raise DomainError(f"need 0 <= start <= stop, got {n_range}")
    s = _resolve(solver)
    if hi > s.max_discs:
        # name the first disc count past the ceiling, as its first cell's cost would
        raise DiscLimitError(max(lo, s.max_discs + 1), s.max_discs)
    columns = [
        [(1 << n) - 1 for n in range(lo, hi + 1)] if p == 3 else s._level(p, hi)[1][lo : hi + 1]
        for p in wanted
    ]
    return [GrowthRow(n, costs) for n, costs in zip(range(lo, hi + 1), zip(*columns))]


def growth_exponent_diagnostic(
    pegs: int,
    n_range: tuple[int, int],
    solver: HanoiSolver | None = None,
) -> GrowthFit:
    """Fit log2(cost) against n**(1/(pegs-2)) over the given range.

    Sub-exponential growth shows up as a near-perfect linear relation;
    the fit needs at least 8 points to say anything.
    """
    if pegs < 4:
        raise DomainError(f"diagnostic needs at least 4 pegs, got {pegs}")
    lo, hi = n_range
    if lo < 1:
        raise DomainError(f"range must start at 1 or above, got {lo}")
    if hi - lo < 8:
        raise DomainError(f"range must span at least 8, got {n_range}")
    import statistics

    s = _resolve(solver)
    exponent = 1.0 / (pegs - 2)
    xs = [n**exponent for n in range(lo, hi + 1)]
    ys = [math.log2(s.cost(pegs, n)) for n in range(lo, hi + 1)]
    fit = statistics.linear_regression(xs, ys)
    return GrowthFit(
        pegs, lo, hi, fit.slope, fit.intercept, statistics.correlation(xs, ys)
    )
