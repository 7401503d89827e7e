"""Brute-force certification over the full state graph.

A state packs the peg of each disc into one base-p integer (digit i-1 =
peg of disc i); every code in [0, p**n) is a legal configuration because
stack order is rank-forced.  Breadth-first search over this space yields
ground-truth distances, exact geodesic counts (plain Python integers, so
combinatorial path counts never overflow), and diameters -- all computed
with no knowledge of the recurrences they certify.

Budgets are checked before any allocation: a search that would not fit
raises :class:`StateBudgetExceeded` instead of failing mid-flight.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import DomainError, HanoiError, StateBudgetExceeded
from .moves import Configuration
from .recurrences import HanoiSolver, _resolve

#: Ceiling on p**n for single-pair distance queries.
DEFAULT_STATE_BUDGET = 1 << 24
#: Stricter ceiling for whole-graph metrics.  It bounds vertices only: the
#: diameter needs one BFS per vertex, so the work grows like V*E.
DEFAULT_METRICS_BUDGET = 3**12

PackedState = int


def pack(config: Configuration) -> PackedState:
    """Base-p code of a configuration."""
    code = 0
    for disc0 in range(config.num_discs - 1, -1, -1):
        code = code * config.num_pegs + config.pegs[disc0]
    return code


def unpack(code: PackedState, pegs: int, discs: int) -> Configuration:
    """Configuration for a base-p code."""
    _check_code(code, pegs, discs)
    out = []
    for _ in range(discs):
        code, q = divmod(code, pegs)
        out.append(q)
    return Configuration(pegs, tuple(out))


def perfect_state(pegs: int, discs: int, peg: int = 0) -> PackedState:
    """Code of the all-on-one-peg configuration."""
    size = _check_space(pegs, discs)
    if not 0 <= peg < pegs:
        raise DomainError(f"peg {peg} out of range for {pegs} pegs")
    return peg * (size - 1) // (pegs - 1)


def _check_space(pegs: int, discs: int) -> int:
    if pegs < 3:
        raise DomainError(f"need at least 3 pegs, got {pegs}")
    if discs < 0:
        raise DomainError(f"disc count must be non-negative, got {discs}")
    return pegs**discs


def _check_code(code: int, pegs: int, discs: int) -> None:
    size = _check_space(pegs, discs)
    if not 0 <= code < size:
        raise DomainError(f"state code {code} outside [0, {size})")


def neighbors(state: PackedState, pegs: int, discs: int) -> list[PackedState]:
    """States one legal move away.

    For each ordered peg pair (a, b) the top of a may move to b iff b is
    empty or its top disc is larger.
    """
    _check_code(state, pegs, discs)
    tops = [-1] * pegs
    rem = state
    found = 0
    for i in range(discs):
        rem, q = divmod(rem, pegs)
        if tops[q] < 0:
            tops[q] = i
            found += 1
            if found == pegs:
                break
    out: list[PackedState] = []
    for a in range(pegs):
        ta = tops[a]
        if ta < 0:
            continue
        weight = pegs**ta
        for b in range(pegs):
            if b == a:
                continue
            tb = tops[b]
            if 0 <= tb < ta:
                continue
            out.append(state + (b - a) * weight)
    return out


@dataclass(frozen=True, slots=True)
class OracleReport:
    """BFS-certified distance with the recurrence value alongside.

    ``dp_cost`` is filled only when source and target are two distinct
    perfect towers; ``agrees`` is None in the other cases.
    """

    pegs: int
    discs: int
    distance: int
    geodesic_count: int
    states_explored: int
    dp_cost: int | None
    agrees: bool | None


@dataclass(frozen=True, slots=True)
class GraphMetrics:
    pegs: int
    discs: int
    vertices: int
    edges: int
    diameter: int


@dataclass(frozen=True, slots=True)
class SkippedLevel:
    """A disc count the certification sweep could not afford."""

    discs: int
    required: int
    budget: int


@dataclass(frozen=True, slots=True)
class CertificationSweep:
    """Reports for every affordable disc count, budget skips listed apart."""

    pegs: int
    reports: tuple[OracleReport, ...]
    skipped: tuple[SkippedLevel, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.agrees for r in self.reports)


def _search(
    pegs: int, discs: int, source: int, target: int | None, want_counts: bool
):
    """Layered BFS; returns (depth, geodesic count, states explored).

    With a target, depth is its distance from the source; the layer
    containing the target is always completed so that the geodesic count
    and the explored-state tally are independent of expansion order.  The
    state graph is connected, so the target is always reached.  With
    ``target=None`` the whole graph is swept, depth is the source's
    eccentricity and the count is None.
    """
    size = pegs**discs
    weights = [pegs**i for i in range(discs)]
    dist = array("i", [-1]) * size
    dist[source] = 0
    counts = None
    if want_counts:
        counts = [0] * size
        counts[source] = 1
    explored = 1
    frontier = [source]
    d = 0
    peg_range = range(pegs)
    while frontier:
        if target is not None and dist[target] >= 0:
            break
        nxt: list[int] = []
        d += 1
        for code in frontier:
            tops = [-1] * pegs
            rem = code
            found = 0
            for i in range(discs):
                rem, q = divmod(rem, pegs)
                if tops[q] < 0:
                    tops[q] = i
                    found += 1
                    if found == pegs:
                        break
            cu = counts[code] if want_counts else 0
            for a in peg_range:
                ta = tops[a]
                if ta < 0:
                    continue
                weight = weights[ta]
                for b in peg_range:
                    if b == a:
                        continue
                    tb = tops[b]
                    if 0 <= tb < ta:
                        continue
                    v = code + (b - a) * weight
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = d
                        nxt.append(v)
                        if want_counts:
                            counts[v] = cu
                    elif dv == d and want_counts:
                        counts[v] += cu
        explored += len(nxt)
        frontier = nxt
    if target is None:
        return d - 1, None, explored
    if dist[target] < 0:
        raise HanoiError("state graph unexpectedly disconnected")
    return dist[target], counts[target] if want_counts else None, explored


def _perfect_peg(code: int, pegs: int, discs: int) -> int | None:
    """Peg index when the code is a perfect tower, else None."""
    if discs == 0:
        return 0
    unit = (pegs**discs - 1) // (pegs - 1)
    peg, rem = divmod(code, unit)
    return peg if rem == 0 and peg < pegs else None


def bfs_distance(
    pegs: int,
    discs: int,
    source: PackedState | None = None,
    target: PackedState | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    solver: HanoiSolver | None = None,
) -> OracleReport:
    """Certified shortest distance between two states.

    Defaults to the perfect towers on the first and last pegs.  Geodesics
    are counted exactly by layered predecessor accumulation.
    """
    size = _check_space(pegs, discs)
    if size > state_budget:
        raise StateBudgetExceeded(size, state_budget)
    if source is None:
        source = perfect_state(pegs, discs, 0)
    if target is None:
        target = perfect_state(pegs, discs, pegs - 1)
    _check_code(source, pegs, discs)
    _check_code(target, pegs, discs)

    distance, geodesics, explored = _search(pegs, discs, source, target, True)

    dp_cost: int | None = None
    src_peg = _perfect_peg(source, pegs, discs)
    dst_peg = _perfect_peg(target, pegs, discs)
    if discs == 0:
        dp_cost = 0
    elif src_peg is not None and dst_peg is not None and src_peg != dst_peg:
        dp_cost = _resolve(solver).cost(pegs, discs)
    agrees = None if dp_cost is None else distance == dp_cost
    return OracleReport(pegs, discs, distance, geodesics, explored, dp_cost, agrees)


def geodesic_uniqueness(
    discs: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of distinct shortest paths between the two perfect
    three-peg towers.  The optimal solution is unique, so this is 1."""
    return bfs_distance(3, discs, state_budget=state_budget).geodesic_count


def graph_metrics(
    pegs: int, discs: int, metrics_budget: int = DEFAULT_METRICS_BUDGET
) -> GraphMetrics:
    """Vertex and edge counts plus the diameter of the state graph.

    The diameter runs one full BFS per vertex, hence the stricter default
    budget.  The budget bounds the vertex count only; the work grows like
    V*E, so inputs it admits may still run for a very long time.
    """
    size = _check_space(pegs, discs)
    if size > metrics_budget:
        raise StateBudgetExceeded(size, metrics_budget)
    degree_total = 0
    for code in range(size):
        degree_total += len(neighbors(code, pegs, discs))
    diameter = max(_search(pegs, discs, code, None, False)[0] for code in range(size))
    return GraphMetrics(pegs, discs, size, degree_total // 2, diameter)


def certify_range(
    pegs: int,
    max_discs: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    solver: HanoiSolver | None = None,
) -> CertificationSweep:
    """Compare BFS distance to the recurrence for every n in [1, max_discs].

    Disc counts whose state space exceeds the budget are skipped and
    listed in the sweep instead of aborting it.
    """
    if max_discs < 1:
        raise DomainError(f"max_discs must be at least 1, got {max_discs}")
    s = _resolve(solver)
    reports: list[OracleReport] = []
    skipped: list[SkippedLevel] = []
    for n in range(1, max_discs + 1):
        size = _check_space(pegs, n)
        if size > state_budget:
            skipped.append(SkippedLevel(n, size, state_budget))
            continue
        reports.append(bfs_distance(pegs, n, state_budget=state_budget, solver=s))
    return CertificationSweep(pegs, tuple(reports), tuple(skipped))
