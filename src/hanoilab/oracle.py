"""Brute-force certification over the full state graph.

A state packs the peg of each disc into one base-p integer (digit i-1 =
peg of disc i); every code in [0, p**n) is a legal configuration because
stack order is rank-forced.  Breadth-first search over this space yields
ground-truth distances, exact geodesic counts (plain Python integers, so
combinatorial path counts never overflow), and diameters -- all computed
with no knowledge of the recurrences they certify.

Between the perfect towers s (all discs on peg 0) and t (all on peg
p-1) on p >= 4 pegs, :func:`tower_distance` runs the middle-state
search of Korf & Felner (IJCAI 2007) over the space of the n-1 smaller
discs.  Deleting the moves of some discs from a path leaves a legal
path of the others (Hinz, Klavzar, Milutinovic & Petr, *The Tower of
Hanoi -- Myths and Maths*, 2013), so a state whose larger discs all sit
on peg 0 has the distance and geodesic count it has in the space of its
smaller discs: the codes below p**k of a BFS layer from s are the k-disc
layer.  Let R be the (n-1)-disc states with pegs 0 and p-1 empty and d_R
their least distance from s.  Before disc n first moves, from peg 0 to
a peg q, the other discs leave pegs 0 and q empty; swapping pegs q and
p-1 fixes s and maps them into R, so that state lies d_R or more from s.
Swapping pegs 0 and p-1 in every digit is a graph automorphism sigma
with sigma(s) = t, so after disc n last moves the state lies d_R or
more from t.  A path that moves disc n twice thus has 2*d_R + 2 moves
or more, while a u in R at distance d_R, disc n moved to peg p-1, then
sigma of the path to u reversed, makes 2*d_R + 1.  So D = 2*d_R + 1, and
each geodesic moves disc n once, at its middle: from a u in R at
distance d_R to w, u with disc n on peg p-1, whose count from t is c(u)
as sigma(w) = u.  The geodesic count G is the sum of c(u)**2 over those
u.  A state with disc n off peg 0 lies d_R + 1 or more from s, and
exactly that when one move of disc n, to an empty peg q, reaches it from
an x at distance d_R with peg 0 empty.  So the n-disc ball of radius
d_R + 1 = ceil(D/2), the states the search explores, is the (n-1)-disc
ball of that radius, disc n on peg 0, plus one state per such x and q.
The codes below p**(m-1) are the (m-1)-disc space, so one
search over the (n-1)-disc space serves every disc count m <= n, and a
sweep of :func:`tower_distance` over disc counts is that one search, at
the largest disc count the budget admits.

That search, and no other, runs over the orbits of the relabellings of
the pegs 1..p-1, which map legal moves to legal moves and fix its
source, so every state of an orbit has the same distance and geodesic
count.  The canonical form of a state renames those pegs in order of
first use, smallest disc first; a layer lists canonical codes only.  A
state r that uses k of the pegs 1..p-1 has |O(r)| = (p-1)!/(p-1-k)!
states in its orbit.  The kernel expands representatives unchanged and
canonicalises each new code as it is reached: when its orbit is new,
the canonical code becomes the orbit's representative in the layer
being made.  The forward search counts no paths.

R's share of an orbit is a closed count: when r leaves peg 0 empty,
(p-2)!/(p-2-k)! states of its orbit leave peg p-1 empty too, none when
k = p-1.  So d_R is the first layer that holds such an r with k < p-1,
and G sums (p-2)!/(p-2-k)! * c(r)**2 over them.  Those counts come from
the cone alone, the orbits on some shortest path from the source to
such an r (:func:`_cone`): a walk back from the r of every disc count
finds it, and a count pass forward over it gives each c(r) exactly, as
every shortest path to a state of the cone lies in the cone.  On four
and five pegs the cone is a sliver of the search: 782 of the 371,051
representatives at (4,13), 248 of 65,691 at (5,11).
``states_explored`` sums |O(r)|, plus the |O(r)| * (p-1-k) states that
move disc n from such an orbit at layer d_R.  ``orbits_explored`` counts
the orbits of the relabellings of the middle pegs alone, which fix both
towers: the orbit of r holds k + [k < p-1] of them, by which block of
r, if any, sits on peg p-1, and the states that move disc n from it fall
in [k < p-1] * (1 + k + [k < p-2]), one per such orbit x and kind of
empty peg x has, p-1 or middle, as the relabellings that fix x permute
its empty middle pegs.

Every tag is the tag of the state's own layer.  A code is tagged when it
is first reached, in the expansion that makes some layer d: with the tag
of d when its orbit is new, and its representative too; else with the
tag its representative already carries, as every state of an orbit lies
at the same distance.  So the walk back can read a neighbour's own tag:
among the neighbours of a state at distance d, those tagged for d-1 are
the ones one layer nearer, and once a representative is expanded, every
neighbour of it is tagged.

Three kernels run the searches, on purpose, picked by the kind of
search and the peg count alone.  Every three-peg search runs the block
kernel below: pairs, towers and the eccentricity sweeps of
:func:`graph_metrics`.  On four or more pegs the middle-state search
between the towers folds and runs :func:`_layers`, which keeps one layer
tag byte per state of the (n-1)-disc space and no count, then
:func:`_cone`.  It holds p**(n-1) tag bytes, plus the fold and move
tables, the two widest layers of representatives and the cone:
``_middle_search(4, 11)`` traced 2.2 MiB at its peak with warm tables,
where a count slot per state besides took 11.8 MiB; every pair
and every eccentricity sweep there runs :func:`_dense_layers`, which
holds a set of states as one big int with a bit per code and expands a
whole layer with a few shifts and masks per disc, over the cliques of
that disc's moves;
:func:`_dense_search` counts geodesics afterwards over the states on
some geodesic only, walking back from the target to the source for
every pair, towers included, so it borrows no symmetry from the
middle-state search it checks.  On four or more pegs the layers are
wide, so the whole-set operations win, even against the orbit fold: a
full ball between the towers took 0.07 s at (4,10), where the folded
:func:`_layers` loop took 0.77 s (one core of a shared 2-core host).  Its tables hold two sets
per disc, at most 2n bits per state: 20 at (4,10), 12 at (16,6), 4 at
(1024,2).  Only tables of at most 8 MiB stay cached after a search, and
the move, gate and fold tables of the spaces last used while their
n(p-1) move entries per state sum to at most 8 MiB of bits.

A :func:`certify_range` sweep runs no pair search: one tower search at
the largest disc count gives its rows, and on p >= 4 one forward search
from that tower to D gives every full ball, its codes below p**m being
the m-disc ball.  On three pegs the full ball is the whole space, as
every state reaches the tower on peg 0 within D = 2**n - 1 moves, by
induction on n: with disc n on peg 0, gather the n-1 smaller discs
there; else gather them on the peg disc n leaves free, move disc n, and
move their tower over: 2**(n-1) - 1 + 1 + 2**(n-1) - 1 moves.
:func:`bfs_distance` stays the independent check.

The block kernel, :func:`_block_queue`, handles the space copy by copy
rather than state by state.  The codes with one high part (the
ceil(n/2) largest discs) form a copy of the graph of the floor(n/2)
smallest discs, the low block.  A high move keeps the low part and needs
two pegs free of low discs, so it leaves and enters a copy only at its
gate states, whose low codes leave two pegs free: on three pegs the 3
perfect towers of the 3**(n//2) low codes, as in the Sierpinski
structure of the graph.  Cut each path from the source s at its last
high move.  A path with none stays in the copy of s.  Otherwise its last
high move enters the copy of its end v at a gate state x, and the rest
of it runs inside the copy.  So d(v) is the least of the low-block
distance from s (when v shares the copy of s) and din(x) + d_low(x, v)
over the gate states x of the copy of v, where din(x) is the length of
the shortest paths to x whose last move is a high one.  A geodesic to v
has one last high move, and its parts before and after that move are
themselves shortest, so the geodesic count of v sums
cin(x) * c_low(x, v), cin(x) being the number of those shortest paths,
over the terms equal to d(v), and no path is counted twice.  A term with
din(x) > d(x) never equals d(v).  The same holds for gate states, so a
Dijkstra over the gate states alone, 3**(ceil(n/2) + 1) of them on three
pegs, settles every din and d.  The low block's distance and count
tables from each gate are built once per space, and so is the split of
each copy into shells of equal distance, once per pattern of entries.
A pair, :func:`_block_search`, runs the queue to the target's distance
and counts ``states_explored`` over the shells within it: the four
(3,11) pairs of a benchmark pass take 0.015-0.02 s (one core of a shared
2-core host).  Towers, :func:`_block_towers`, run it to the distance
2**n - 1 once, and each m-disc tower, the code 3**m - 1, is read from
the same entries, its states explored counted over the ball of radius
ceil(D/2), as on more pegs: ``tower_distance(3, 15)`` took 0.07 s
and 26 MiB in a fresh process.  A sweep, :func:`_block_layers`, runs the
queue until it is empty and lists each BFS layer as the shells that
fall on it, one layer at a time.

One gate, :func:`_check_space` with a budget, refuses a space before
any allocation: a search that would not fit raises
:class:`StateBudgetExceeded` instead of failing mid-flight, and a sweep
over disc counts lists such a refusal as a :class:`SkippedLevel`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from functools import wraps

from .errors import DomainError, HanoiError, StateBudgetExceeded
from .moves import Configuration
from .recurrences import HanoiSolver, _resolve

#: Ceiling on p**n for single-pair distance queries.
DEFAULT_STATE_BUDGET = 1 << 24
#: Stricter ceiling for whole-graph metrics.  It bounds vertices only, not
#: the number of full BFS runs the diameter takes (12 at (3,12), where one
#: run sweeps all 531,441 states).
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


def _check_space(pegs: int, discs: int, budget: int | None = None) -> int:
    """p**n for a valid space; the one budget gate when ``budget`` is given."""
    if pegs < 3:
        raise DomainError(f"need at least 3 pegs, got {pegs}")
    if discs < 0:
        raise DomainError(f"disc count must be non-negative, got {discs}")
    size = pegs**discs
    if budget is not None and size > budget:
        raise StateBudgetExceeded(size, budget)
    return size


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
    return _neighbors(state, pegs, discs)


def _neighbors(state: PackedState, pegs: int, discs: int) -> list[PackedState]:
    """:func:`neighbors` without the range check, for codes already known
    to lie in the space."""
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

    ``dp_cost`` is filled only for n = 0 and when source and target are
    two distinct perfect towers; ``agrees`` is None in the other cases.
    ``states_explored`` counts states; ``orbits_explored`` counts the
    orbits among them of the relabellings of the middle pegs 1..p-2,
    which fix both towers.  Only :func:`tower_distance` on four or more
    pegs folds, and it reads that count from its own, coarser fold; every
    other report has ``orbits_explored == states_explored``.
    """

    pegs: int
    discs: int
    distance: int
    geodesic_count: int
    states_explored: int
    dp_cost: int | None
    agrees: bool | None
    orbits_explored: int


@dataclass(frozen=True, slots=True)
class GraphMetrics:
    """Whole-graph counts; ``bfs_runs`` is the number of full BFS runs the
    diameter took."""

    pegs: int
    discs: int
    vertices: int
    edges: int
    diameter: int
    bfs_runs: int


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


def _block_moves(pegs: int, count: int, weight: int):
    """Move table of a block of ``count`` consecutive discs.

    A block code holds one base-``pegs`` digit per disc, smallest first;
    moving its smallest disc one peg up changes the full code by
    ``weight``.  Returns, per block code, the mask of pegs the block
    occupies and its legal moves grouped by source peg: one
    (source bit, source offset, ends) per peg whose top disc can move,
    ``ends`` holding the (bit, offset) of each peg it may move to.  A move
    changes the code by its end's offset minus the source offset, both
    taken for the moving disc's weight.

    Discs are added largest last.  A new disc lies beneath the others, so
    it blocks none of their moves and each entry reuses the smaller
    block's moves as they are; it moves itself only when no smaller disc
    sits on its peg, and only to pegs that hold none.  The (bit, offset)
    objects are shared, p per disc, so the table holds one ``ends`` tuple
    per code and disc that can move, and no object per peg pair.
    """
    occupied = [0]
    moves: list[tuple] = [()]
    for _ in range(count):
        ends = [(1 << q, q * weight) for q in range(pegs)]
        grown = []
        for bit, offset in ends:
            for occ, legal in zip(occupied, moves):
                if occ & bit:
                    grown.append(legal)
                    continue
                full = occ | bit
                to = tuple(end for end in ends if not full & end[0])
                grown.append(legal + ((bit, offset, to),) if to else legal)
        moves = grown
        occupied = [occ | bit for bit, _ in ends for occ in occupied]
        weight *= pegs
    return occupied, moves


def _space_cache(build):
    """Cache of the tables ``build(pegs, discs)`` of the spaces last used
    while their n(p-1) move entries per state, counted as one bit each,
    take at most ``_MASK_CACHE_BYTES`` together: 1.0 MiB for the (3,10),
    (4,9) and (5,6) of a ``certify`` pass.  The space
    last used always stays, so a search reads its tables twice but builds
    them once; a heavier one, like the (4,11) of ``tower_distance(4, 12)``
    or the (16,5) of (16,6), evicts the others and goes with the next."""
    cache: dict[tuple[int, int], object] = {}

    @wraps(build)
    def cached(pegs: int, discs: int):
        tables = cache.pop((pegs, discs), None)
        if tables is None:
            tables = build(pegs, discs)
        cache[pegs, discs] = tables
        bits = 8 * _MASK_CACHE_BYTES
        while len(cache) > 1 and sum(n * (p - 1) * p**n for p, n in cache) > bits:
            del cache[next(iter(cache))]
        return tables

    cached.cache_clear = cache.clear
    return cached


@_space_cache
def _move_tables(pegs: int, discs: int):
    """(base, low occupied masks, low deltas, high moves) for a space.

    A code splits as ``high * base + low``: the low block holds the
    ``discs // 2`` smallest discs, the high block the rest.  A low move
    never depends on the high discs, so the low table lists its code
    deltas flat.  The high table keeps :func:`_block_moves`' grouping: a
    high move is legal iff neither its source bit nor its end bit is in
    ``low_occupied[low]``.  Both tables hold O(p**ceil(n/2)) entries of
    at most ceil(n/2)*(p-1) moves each.
    """
    low = discs // 2
    base = pegs**low
    low_occupied, low_moves = _block_moves(pegs, low, 1)
    step: dict[int, int] = {}  # one int object per distinct delta
    low_deltas = [
        tuple(
            step.setdefault(end_offset - src_offset, end_offset - src_offset)
            for _, src_offset, to in legal
            for _, end_offset in to
        )
        for legal in low_moves
    ]
    _, high_moves = _block_moves(pegs, discs - low, base)
    return base, low_occupied, low_deltas, high_moves


def _gates(pegs: int, low_occupied: list[int]) -> list[int | None]:
    """Per low code, the pegs its discs occupy where two pegs are free,
    None elsewhere: a high move needs two pegs free of low discs."""
    return [occ if occ.bit_count() <= pegs - 2 else None for occ in low_occupied]


def _low_ball(low_deltas, source: int) -> tuple[list[int], list[int]]:
    """(distance, geodesic count) from the low code ``source`` to every low
    code, by a BFS over the low deltas alone: the low block of a space is
    the space of its ``discs // 2`` smallest discs."""
    dist = [-1] * len(low_deltas)
    paths = [0] * len(low_deltas)
    dist[source], paths[source] = 0, 1
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            pu = paths[u]
            for delta in low_deltas[u]:
                v = u + delta
                if dist[v] < 0:
                    dist[v], paths[v] = d, pu
                    nxt.append(v)
                elif dist[v] == d:
                    paths[v] += pu
        frontier = nxt
    return dist, paths


@_space_cache
def _gate_tables(pegs: int, discs: int):
    """(gate low codes, distances, geodesic counts, shells memo) of a
    space: the low codes that leave two pegs free and the
    :func:`_low_ball` of each, in the same order.  They hold O(p**(n//2))
    entries per gate: 3 gates of 243 low codes at (3,11).  The memo, empty
    here, keeps the :func:`_block_copies` shells of each pattern of gate
    entries for every later search in the space."""
    _, low_occupied, low_deltas, _ = _move_tables(pegs, discs)
    gates = [low for low, occ in enumerate(_gates(pegs, low_occupied)) if occ is not None]
    balls = [_low_ball(low_deltas, g) for g in gates]
    return gates, [dist for dist, _ in balls], [paths for _, paths in balls], {}


def _block_queue(pegs: int, discs: int, source: int, target: int | None):
    """The gate-state search of :func:`_block_search` from ``source``, run
    to the target's distance, or until its queue is empty when ``target``
    is None; returns (base, arrivals, distance rows, count rows, shells
    memo), the memo being the space's, from the :func:`_gate_tables`.

    A copy is the set of codes with one high part.  Each gate state, a
    gate low code in some copy, has two events in a bucket queue keyed by
    distance: an *entry*, the shortest paths to it whose last move is a
    high one, which spreads to every gate of its copy along the
    :func:`_gate_tables`; and an *exit*, its final distance and count,
    which spreads along its high moves with weight 1.  The source enters
    its own copy at distance 0 along its own :func:`_low_ball`.  Within a
    bucket, entries go first, so an exit's count is complete when it is
    read.  ``arrivals`` maps each copy reached within the target's
    distance (every copy, when the queue is exhausted) to its (row,
    distance, count) entries in order of distance, and lists the copies in
    order of their first entry.  A row indexes the low-block distance and
    count rows: one per gate, then the source's own.
    """
    base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
    gates, gate_dist, gate_paths, memo = _gate_tables(pegs, discs)
    gate_index = {g: i for i, g in enumerate(gates)}
    s_high, s_low = divmod(source, base)
    t_high, t_low = (None, 0) if target is None else divmod(target, base)
    s_dist, s_paths = _low_ball(low_deltas, s_low)
    dists, counts = [*gate_dist, s_dist], [*gate_paths, s_paths]
    entries: dict[int, list[int]] = {}  # gate state: [distance, count]
    exits: dict[int, list[int]] = {}
    buckets: dict[int, tuple[list[int], list[int]]] = {}  # entries, exits
    arrived: dict[int, list[tuple[int, int, int]]] = {}  # copy: (row, d, count)
    best = pegs**discs  # longer than any path

    def relax(table, kind, v, d, c):
        old = table.get(v)
        if old is None or d < old[0]:
            table[v] = [d, c]
            buckets.setdefault(d, ([], []))[kind].append(v)
        elif d == old[0]:
            old[1] += c

    def arrive(high, row, d, c):
        nonlocal best
        arrived.setdefault(high, []).append((row, d, c))
        near, paths = dists[row], counts[row]
        if high == t_high:
            best = min(best, d + near[t_low])
        for g in gates:
            relax(exits, 1, high * base + g, d + near[g], c * paths[g])

    arrive(s_high, len(gates), 0, 1)
    k = 0
    while buckets and k <= best:
        ins, outs = buckets.get(k, ((), ()))
        for x in ins:
            d, c = entries[x]
            if d == k:
                high, low = divmod(x, base)
                arrive(high, gate_index[low], d, c)
        for y in outs:
            d, c = exits[y]
            if d != k:
                continue
            occ = low_occupied[y % base]
            for bit, src_offset, to in high_moves[y // base]:
                if occ & bit:
                    continue
                lifted = y - src_offset
                for end_bit, end_offset in to:
                    if not occ & end_bit:
                        relax(entries, 0, lifted + end_offset, k + 1, c)
        buckets.pop(k, None)
        k += 1
    return base, arrived, dists, counts, memo


def _block_reach(queue, target: int) -> tuple[int, int]:
    """(distance, geodesic count) of a state whose distance is at most the
    one :func:`_block_queue` ran to: the least entry-plus-inside term over
    the entries of its copy, and the sum of the counts of the terms that
    reach it."""
    base, arrived, dists, counts, _ = queue
    high, low = divmod(target, base)
    terms = [(d + dists[row][low], c * counts[row][low]) for row, d, c in arrived[high]]
    distance = min(d for d, _ in terms)
    return distance, sum(c for d, c in terms if d == distance)


def _block_copies(queue, reach: int) -> list[tuple[int, int, list[list[int]]]]:
    """Each copy that :func:`_block_queue` first entered within ``reach``
    of the source, in order of first entry, as (first entry, code offset,
    shells): ``shells[j]`` lists the copy's low codes at distance
    first + j, the least entry-plus-inside term over its entries.  The
    entries within the distance the queue ran to are all there, so the
    shells are exact up to that distance.

    The shells depend only on the entries' rows and their offsets from the
    first, in order of arrival, so copies with the same pattern share one
    list, and the space's memo keeps it for the next search: every sweep
    of ``graph_metrics(3, n)``, n <= 12, leaves at most 27 patterns there.
    Only the source's own copy, entered first along the source's own row,
    is built afresh each time.  The lists are shared, so callers only read
    them.
    """
    base, arrived, dists, _, memo = queue
    copies = []
    for high, arrivals in arrived.items():
        first = arrivals[0][1]
        if first > reach:
            break
        key = tuple([(row, d - first) for row, d, _ in arrivals])
        shells = memo.get(key)
        if shells is None:
            rows = [[off + x for x in dists[row]] for row, off in key]
            near = rows[0] if len(rows) == 1 else list(map(min, *rows))
            shells = [[] for _ in range(max(near) + 1)]
            for low, j in enumerate(near):
                shells[j].append(low)
            if key[0][0] < len(dists) - 1:  # not the source's own row
                memo[key] = shells
        copies.append((first, high * base, shells))
    return copies


def _block_balls(queue, radii: list[int]) -> list[int]:
    """The number of states within each radius of the source, for radii up
    to the distance :func:`_block_queue` ran to: each copy adds the sizes
    of its :func:`_block_copies` shells within the radius, and a copy
    first entered beyond it, like the copies after it, adds none."""
    copies = _block_copies(queue, max(radii))
    shared = {id(shells): shells for _, _, shells in copies}
    running = {key: list(itertools.accumulate(map(len, s))) for key, s in shared.items()}
    balls = []
    for r in radii:
        total = 0
        for first, _, shells in copies:
            if first > r:
                break
            cumulative = running[id(shells)]
            total += cumulative[min(r - first, len(cumulative) - 1)]
        balls.append(total)
    return balls


def _block_layers(pegs: int, discs: int, source: int):
    """Layered BFS from ``source`` on the block kernel, one yield per
    layer: the list of the codes at distance d, for d = 0, 1, ... while
    layers are non-empty.

    :func:`_block_queue` runs until its queue is empty, and layer d lists,
    for each copy first entered at some ``first <= d``, its
    :func:`_block_copies` shell ``d - first`` shifted by the copy's code
    offset.  Only the copies whose shells have not run out are held from
    one layer to the next, and nothing is kept per state.
    """
    copies = iter(_block_copies(_block_queue(pegs, discs, source, None), pegs**discs))
    waiting = next(copies, None)
    live: list[tuple[int, int, list[list[int]]]] = []
    d = 0
    while waiting is not None or live:
        while waiting is not None and waiting[0] == d:
            live.append(waiting)
            waiting = next(copies, None)
        yield [offset + low for first, offset, shells in live for low in shells[d - first]]
        d += 1
        live = [copy for copy in live if d - copy[0] < len(copy[2])]


def _block_search(pegs: int, discs: int, source: int, target: int):
    """:func:`_search` on three pegs, over the copies of the low block.  It
    is exact on any peg count, for the reasons the module docstring gives,
    but on four or more most low codes are gates.  :func:`_block_queue`
    runs to the target's distance D, :func:`_block_reach` reads the target
    and :func:`_block_balls` counts the states within D."""
    queue = _block_queue(pegs, discs, source, target)
    distance, geodesics = _block_reach(queue, target)
    (explored,) = _block_balls(queue, [distance])
    return distance, geodesics, explored, explored


def _block_towers(discs: int):
    """The :func:`_tower_rows` of three pegs, from one :func:`_block_queue`
    between the n-disc towers.

    The m-disc tower on the last peg is the code 3**m - 1 of the n-disc
    space, within its distance 2**m - 1 of the source, and it has that
    distance and geodesic count in both spaces: deleting the moves of the
    larger discs from a path leaves a legal path, so no geodesic moves
    them.  The ball of radius ceil(D/2) = 2**(m-1) around the source, the
    part of the space the middle-state search of p >= 4 explores, holds
    the same states in both spaces too: disc m+1 first moves after the m
    smaller discs have left the first peg, at least 2**m - 1 moves in.
    """
    queue = _block_queue(3, discs, 0, 3**discs - 1)
    reach = [_block_reach(queue, 3**m - 1) for m in range(discs + 1)]
    balls = _block_balls(queue, [(d + 1) // 2 for d, _ in reach])
    return [(d, g, e, e) for (d, g), e in zip(reach, balls)]


def _layers(pegs: int, discs: int, source: int, fold):
    """The folded BFS of :func:`_middle_search` from ``source``, one yield
    per completed layer, with no path counts: :func:`_cone` counts them
    afterwards from the tags.

    Yields ``(d, layer, seen)`` for d = 0, 1, ... while layers are
    non-empty: ``layer`` lists the orbit representatives at distance d,
    and ``seen`` is the same tag array at every yield.  When layer d is
    yielded, every representative at distance <= d is tagged, and every
    neighbour of those at distance < d.  The caller may reorder ``layer``
    in place before the next layer is made: the next layer's states do not
    depend on the order.  ``fold`` holds the :func:`_fold_tables` of the
    space, or tables in their layout; each new code is canonicalised as
    it is reached, as the module docstring describes.  The fold must fix
    ``source``: only then do its relabellings keep every distance from the
    source, so a fold whose orbit of the source holds other states raises
    :class:`HanoiError`.  Besides the tables, the search holds
    ``pegs**discs`` tag bytes, the layer it expands and the one it makes.

    Successors come from :func:`_move_tables`, built once per space: the
    low block's legal deltas, then the high block's moves whose source and
    end pegs hold no low disc.  Such a move needs two pegs free of low
    discs, so the high table is read only for the low codes in ``gate``,
    those that leave two pegs empty: 184 of 1,024 pass at (4,10), 505 of
    625 at (5,9), and all wherever n//2 <= p-2.

    The visited array keeps one byte per state, the tag ``1 + d % 3`` of
    the state's layer d (0 = unseen), which every tagged code carries: a
    code whose orbit was reached before takes its representative's tag.
    Layers of adjacent states differ by at most one, so those three tags
    tell the layers around a state apart.
    """
    if fold[-1][_used_pegs(fold, [source])[0]] != 1:
        raise HanoiError(f"the fold moves the source {source}")
    base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
    gate = _gates(pegs, low_occupied)
    fbase, low_canon, low_ids, width, high_canon, _, _ = fold
    seen = bytearray(pegs**discs)
    seen[source] = 1
    frontier = [source]
    d = 0
    # The low and high loops share a body; one loop over a per-state list
    # of deltas measured 15-30% slower at (4,10).
    while frontier:
        yield d, frontier, seen
        nxt: list[int] = []
        d += 1
        tag = 1 + d % 3
        for code in frontier:
            low = code % base
            for delta in low_deltas[low]:
                v = code + delta
                if not seen[v]:
                    flow = v % fbase
                    r = high_canon[v // fbase * width + low_ids[flow]] + low_canon[flow]
                    tr = seen[r]
                    if tr:
                        seen[v] = tr
                    else:
                        seen[v] = seen[r] = tag
                        nxt.append(r)
            occ = gate[low]
            if occ is None:
                continue
            for bit, src_offset, to in high_moves[code // base]:
                if occ & bit:
                    continue
                lifted = code - src_offset
                for end_bit, end_offset in to:
                    if occ & end_bit:
                        continue
                    v = lifted + end_offset
                    if not seen[v]:
                        flow = v % fbase
                        r = high_canon[v // fbase * width + low_ids[flow]] + low_canon[flow]
                        tr = seen[r]
                        if tr:
                            seen[v] = tr
                        else:
                            seen[v] = seen[r] = tag
                            nxt.append(r)
        frontier = nxt


def _cone(pegs: int, discs: int, fold, seen: bytearray, starts: dict[int, list[int]]):
    """Geodesic counts from the source of a :func:`_layers` search over
    the cone of ``starts``, one yield per layer.

    ``starts`` maps layers d to representatives at distance d, and ``seen``
    is the tag array of a :func:`_layers` search with the same ``fold``
    that has expanded the last of those layers: it yielded the next layer,
    or ran out.  The cone is the set of orbits on some shortest path from
    the source to a start.  Yields ``(d, counts)`` for d = 0 ..
    max(starts): ``counts`` maps each cone representative at distance d
    to its geodesic count c, the count of every state of its orbit, so its
    mass is |O| * c.

    The walk back runs from the last start layer to the source.  The
    neighbours of a cone representative at distance d that carry the tag
    ``1 + (d-1) % 3`` are those at distance d-1 (see the module
    docstring), and their representatives make the cone's layer d-1.  The
    walk keeps, per cone representative, those neighbours'
    representatives, one entry per neighbour.  Then the count pass runs
    forward from c = 1 at the source: c(r) is the sum of c over r's
    entries, as a state has its representative's count.  Every shortest
    path to a cone state lies in the cone, so the counts are exact, and
    one walk serves every start layer at once.  It holds the cone with its
    entries and two layers of counts, and canonicalises only the
    neighbours one layer nearer.
    """
    base, low_occupied, low_deltas, high_moves = _move_tables(pegs, discs)
    gate = _gates(pegs, low_occupied)
    fbase, low_canon, low_ids, width, high_canon, _, _ = fold
    walked = []  # per layer, farthest first: (representative, nearer entries)
    layer: set[int] = set()
    for d in range(max(starts), -1, -1):
        layer.update(starts.get(d, ()))
        if not d:
            break
        tag = 1 + (d - 1) % 3
        edges = []
        for code in layer:
            low = code % base
            entries = []
            for delta in low_deltas[low]:
                v = code + delta
                if seen[v] == tag:
                    flow = v % fbase
                    entries.append(high_canon[v // fbase * width + low_ids[flow]] + low_canon[flow])
            occ = gate[low]
            if occ is not None:
                for bit, src_offset, to in high_moves[code // base]:
                    if occ & bit:
                        continue
                    lifted = code - src_offset
                    for end_bit, end_offset in to:
                        v = lifted + end_offset
                        if not occ & end_bit and seen[v] == tag:
                            flow = v % fbase
                            entries.append(high_canon[v // fbase * width + low_ids[flow]] + low_canon[flow])
            edges.append((code, entries))
        walked.append(edges)
        layer = {r for _, entries in edges for r in entries}
    counts = dict.fromkeys(layer, 1)
    yield 0, counts
    for d, edges in enumerate(reversed(walked), 1):
        near = counts.__getitem__
        counts = {code: sum(map(near, entries)) for code, entries in edges}
        yield d, counts


def _repeat(block: int, width: int, copies: int) -> int:
    """``copies`` copies of the ``width``-bit ``block``, side by side.

    Doubling, then one overlapping shift for the rest: the pattern has
    period ``width``, so OR-ing a shifted copy over part of it is harmless.
    """
    have = 1
    while 2 * have <= copies:
        block |= block << have * width
        have *= 2
    if have < copies:
        block |= block << (copies - have) * width
    return block


#: Group tables whose bits take at most this many bytes stay cached for the
#: next search in the same space: 0.5 MiB at (4,9), 3.9 MiB at (5,9).  The
#: move, gate and fold tables stay for several spaces whose move entries fit it
#: together.
_MASK_CACHE_BYTES = 8 << 20
#: (shifts, tops, base) per disc: the :func:`_build_masks` of a space.
_Groups = tuple[tuple[tuple[int, ...], int, int], ...]
#: The cached group tables of one space, keyed by (pegs, discs).
_mask_cache: dict[tuple[int, int], _Groups] = {}


def _shift_masks(pegs: int, discs: int) -> _Groups:
    """The :func:`_build_masks` of a space, from the cache when they are
    there.  One space is cached at a time, and only when its tables take
    at most ``_MASK_CACHE_BYTES``: larger ones (10.4 MiB at (4,11)) are built
    per search and dropped when it returns, so they leave the cache as it
    was."""
    tables = _mask_cache.get((pegs, discs))
    if tables is None:
        tables = _build_masks(pegs, discs)
        bits = sum(tops.bit_length() + base.bit_length() for _, tops, base in tables)
        if bits <= 8 * _MASK_CACHE_BYTES:
            _mask_cache.clear()
            _mask_cache[pegs, discs] = tables
    return tables


def _build_masks(pegs: int, discs: int) -> _Groups:
    """(shifts, tops, base) for each disc j, the tables of :func:`_expand`.

    Bit v of ``tops`` is set iff no smaller disc shares disc j's peg in
    code v, and bit v of ``base`` iff disc j's digit is 0.  ``shifts`` are
    multiples of p**j whose doubling sums cover the offsets 0..p-1 of disc
    j's digit, an overlapping last step included, as in :func:`_repeat`.
    Both sets depend on the discs up to j only, so each is a block of
    p**(j+1) bits repeated.  Within a block, ``tops`` puts ``free[q]``, the
    codes of the j smallest discs that leave peg q empty, at digit q.  Each
    set is built by whole-set operations, so the tables cost time in
    proportion to their bits, 2n per state, even where p is in the hundreds.
    """
    size = pegs**discs
    steps = []
    have = 1
    while 2 * have <= pegs:
        steps.append(have)
        have *= 2
    if have < pegs:
        steps.append(pegs - have)
    free = [1] * pegs
    tables = []
    weight = 1
    for j in range(discs):
        width = weight * pegs
        tops = sum(codes << q * weight for q, codes in enumerate(free))
        tables.append((
            tuple(step * weight for step in steps),
            _repeat(tops, width, size // width),
            _repeat((1 << weight) - 1, width, size // width),
        ))
        if j + 1 < discs:
            free = [
                _repeat(codes, weight, pegs) ^ codes << q * weight
                for q, codes in enumerate(free)
            ]
        weight = width
    return tuple(tables)


def _expand(states: int, tables: _Groups) -> int:
    """Every state one move from a state of the set ``states``, as a set,
    together with ``states`` itself: disc 0 is on top in every state.

    The codes that differ from v in disc j's digit only, and where disc j
    has no smaller disc on its peg, form a clique of disc j's moves
    (Hinz, Klavzar, Milutinovic & Petr, *The Tower of Hanoi -- Myths and
    Maths*, 2013).  So per disc, the set's codes in ``tops`` are gathered
    by right shifts onto the clique's code with digit j = 0, kept there by
    ``base``, spread back over the clique by left shifts, and kept where
    disc j is on top again: 4 + 4*ceil(log2 p) big-int operations."""
    out = 0
    for shifts, tops, base in tables:
        x = states & tops
        for shift in shifts:
            x |= x >> shift
        x &= base
        for shift in shifts:
            x |= x << shift
        out |= x & tops
    return out


def _dense_layers(tables, source: int):
    """Layered BFS from ``source``: yields the set of states at distance d,
    as a big int, for d = 0, 1, ... while layers are non-empty.  One move
    changes one digit, disc j's, within a clique, so a layer's successors
    are one :func:`_expand` over the :func:`_shift_masks` of the space,
    ``tables``, not a loop over edges.  The states not yet reached are kept
    as a positive int: disc 0 is on top in every state, so its ``tops`` is
    every code."""
    layer = 1 << source
    unseen = (tables[0][1] if tables else 1) ^ layer
    while layer:
        yield layer
        layer = _expand(layer, tables) & unseen
        unseen ^= layer


def _members(states: int) -> list[int]:
    """The codes in the big-int set ``states``, ascending."""
    return [m.start() for m in re.finditer("1", format(states, "b")[::-1])]


def _dense_search(pegs: int, discs: int, source: int, target: int):
    """:func:`_search` on p >= 4 pegs over the :func:`_dense_layers`, kept
    as three sets, ``classes[d % 3]`` the union of the layers d, d+3, ...:
    a neighbour of a layer-k state lies in layer k-1, k or k+1, and those
    three fall in different classes, as the tags of :func:`_layers` do.

    Geodesics are counted afterwards over the interval only, the states
    that lie on some geodesic, walking back from the target: the
    neighbours of a layer-k interval state in class (k-1) % 3 are its
    neighbours one layer nearer the source, and each gets the state's
    number of geodesics c_t to the target added to its own.  The classes
    are read there as bytes, where testing a bit takes constant time.
    The walk runs every layer back to the source, whatever the pair, and
    the source's count is the geodesic count.
    """
    classes = [0, 0, 0]
    for d, layer in enumerate(_dense_layers(_shift_masks(pegs, discs), source)):
        classes[d % 3] |= layer
        if layer >> target & 1:
            break
    else:
        raise HanoiError("state graph unexpectedly disconnected")
    explored = sum(c.bit_count() for c in classes)
    width = (pegs**discs + 7) // 8
    for r in range(3):  # one class at a time, so only one is held twice
        classes[r] = classes[r].to_bytes(width, "little")
    counts = {target: 1}
    for k in range(d, 0, -1):
        nearer = classes[(k - 1) % 3]
        farther, counts = counts, {}
        for v, paths in farther.items():
            for u in _neighbors(v, pegs, discs):
                if nearer[u >> 3] >> (u & 7) & 1:
                    counts[u] = counts.get(u, 0) + paths
    return d, counts[source], explored, explored


def _dense_balls(pegs: int, discs: int) -> list[int]:
    """For every m in [0, discs], the number of m-disc states within D_m of
    the tower on peg 0, D_m being the distance to the m-disc tower on the
    last peg, from one :func:`_dense_layers` search in the ``discs``-disc
    space, run until it reaches the ``discs``-disc tower.  Its codes below
    p**m are the m-disc states with the larger discs on peg 0, which keep
    their m-disc distances (see the module docstring), the code p**m - 1
    being that m-disc tower, so each layer adds its codes below p**m to
    every m whose tower it has not yet reached."""
    balls = [0] * (discs + 1)
    below = [(1 << pegs**m) - 1 for m in range(discs + 1)]
    m = 0
    for layer in _dense_layers(_build_masks(pegs, discs), 0):
        for k in range(m, discs + 1):
            balls[k] += (layer & below[k]).bit_count()
        while m <= discs and (layer >> pegs**m - 1) & 1:
            m += 1
        if m > discs:
            return balls


def _first_use(pegs: int, count: int, weight: int, fold, orders, entering, last=False):
    """First-use relabelling of a block of ``count`` consecutive discs.

    The pegs in ``fold`` (ascending) are renamed in order of first use,
    smallest disc first: the first of them a disc uses becomes fold[0],
    the next fold[1], and so on; other pegs keep their names.  ``orders``
    maps each first-use order (a tuple of fold pegs) to its id, ids in
    insertion order, and grows as new orders appear.  A block code holds
    one digit per disc, smallest first, and its smallest disc has weight
    ``weight``, as in :func:`_block_moves`.

    Returns ``(labels, leaving)``, indexed by ``code * len(entering) + i``
    for the block code and the i-th entering order id: the relabelled
    block code, taken at ``weight``, and the order id after the block's
    discs.  Discs are added largest last, so the next disc's label is a
    lookup by the order id its smaller discs leave.  With ``last``, for
    the block of the largest discs, ``leaving`` is instead a bytes table
    of the number of fold pegs in use, and the last disc adds no order.
    """
    position = {q: i for i, q in enumerate(fold)}
    labels, ids = [0] * len(entering), list(entering)
    for j in range(count):
        final = last and j == count - 1
        value = [q * weight for q in range(pegs)]  # shared, one int per peg
        label: list[list[int]] = [[] for _ in range(pegs)]  # per peg, per order id
        after: list[list[int]] = [[] for _ in range(pegs)]
        for order in list(orders):
            k = len(order)
            for q in range(pegs):
                if q not in position:
                    label[q].append(value[q])
                    after[q].append(k if final else orders[order])
                elif q in order:
                    label[q].append(value[fold[order.index(q)]])
                    after[q].append(k if final else orders[order])
                else:
                    label[q].append(value[fold[k]])
                    grown = k + 1 if final else orders.setdefault(order + (q,), len(orders))
                    after[q].append(grown)
        labels = [lab + row[o] for row in label for lab, o in zip(labels, ids)]
        ids = [row[o] for row in after for o in ids]
        weight *= pegs
    return labels, bytes(ids) if last else ids


def _fold_split(pegs: int, discs: int) -> int:
    """The low disc count of :func:`_fold_tables` that minimises its
    entries: p**low low codes, plus p**(n-low) high codes for each of the
    first-use orders the low block can leave, the sum of (p-1)!/(p-1-k)!
    over k <= low.  The high block keeps a disc when there is one."""
    widths = itertools.accumulate(math.perm(pegs - 1, k) for k in range(max(discs, 1)))
    entries = [pegs**low + pegs ** (discs - low) * w for low, w in enumerate(widths)]
    return entries.index(min(entries))


@_space_cache
def _fold_tables(pegs: int, discs: int):
    """(base, low canon, low order ids, width, high canon, high k, sizes)
    for the relabellings of the pegs 1..p-1.

    They fix the code 0, the tower on peg 0 that the middle-state search
    starts from; :func:`_layers` needs a fold that fixes its source.  With
    the split of :func:`_fold_split`, ``base = p**low`` and ``i = high *
    width + low_ids[low]``, the canonical form of ``high * base + low`` is
    ``high_canon[i] + low_canon[low]``, and ``high_k[i]`` is the number k
    of pegs among 1..p-1 that the state uses; its orbit holds
    ``sizes[k]`` = (p-1)!/(p-1-k)! states.  The low block leaves one of
    ``width`` first-use orders, so the high tables hold p**(n-low) * width
    entries, at most p**n.
    """
    fold = tuple(range(1, pegs))
    low = _fold_split(pegs, discs)
    base = pegs**low
    orders = {(): 0}
    low_canon, low_ids = _first_use(pegs, low, 1, fold, orders, [0])
    width = len(orders)
    high_canon, high_k = _first_use(pegs, discs - low, base, fold, orders, range(width), last=True)
    sizes = [math.perm(pegs - 1, k) for k in range(min(discs, pegs - 1) + 1)]
    return base, low_canon, low_ids, width, high_canon, high_k, sizes


def _used_pegs(fold, codes: list[int]) -> list[int]:
    """The k of each code in the :func:`_fold_tables` ``fold``."""
    base, _, low_ids, width, _, high_k, _ = fold
    return [high_k[v // base * width + low_ids[v % base]] for v in codes]


def _search(pegs: int, discs: int, source: int, target: int):
    """BFS; returns (distance, geodesic count, states explored, orbits
    explored) from the source to the target.

    Pairs on p >= 4 pegs run :func:`_dense_search` and three-peg pairs
    run :func:`_block_search`; neither folds, so orbits explored equals
    states explored.  Both count every state within the target's
    distance, the whole ball, so the geodesic count and the
    explored-state tally do not depend on the kernel.  The state graph is
    connected, so the target is always reached.
    """
    if pegs >= 4:
        return _dense_search(pegs, discs, source, target)
    return _block_search(pegs, discs, source, target)


def _middle_search(pegs: int, discs: int):
    """The :func:`_tower_rows` of p >= 4 pegs, from one folded BFS over
    the space of the ``discs - 1`` smaller discs; see the module
    docstring for the middle-state lemma and the fold.

    Once a layer is sorted, its codes below p**j are the j-disc layer:
    the row of j + 1 discs meets at the first layer d_R whose j-digit
    codes include a representative with peg 0 empty that leaves a peg of
    1..p-1 empty too, and reads its ball one layer later.  A code's
    ``mask`` holds the pegs its digits use up to its top non-zero one:
    the low block's ``low_occupied`` and the high part's ``used`` entry
    when the high part is non-zero, else its ``used`` entry.  D grows with
    the disc count and is odd, so d_R grows too and at most one row meets
    per layer.  Each meeting row keeps its ``free`` representatives, and
    one :func:`_cone` from all of them gives their counts c, for G, once
    the forward search is done.

    It holds p**(n-1) tag bytes, plus the fold and move tables of the
    (n-1)-disc space, the two widest layers of representatives and the
    cone: (4,14) and (5,12) take 99 and 86 MiB in a fresh process.
    """
    rows = [(0, 1, 1, 1)]
    if not discs:
        return rows
    small = discs - 1
    fold = _fold_tables(pegs, small)
    sizes = fold[-1]
    base, low_occupied, _, _ = _move_tables(pegs, small)
    occupied, used = [0], [0]  # per block code: pegs of all digits, up to the top one
    for _ in range(small - small // 2):
        used += [occ | 1 << q for q in range(1, pegs) for occ in occupied]
        occupied = [occ | 1 << q for q in range(pegs) for occ in occupied]
    top = pegs - 1
    # per k pegs of 1..p-1 in use: the middle-peg orbits in an orbit, the
    # states of R in it when peg 0 is empty, and the middle-peg orbits
    # of the states that then move the next larger disc to an empty peg
    parts = [k + (k < top) for k in range(len(sizes))]
    shares = [math.perm(top - 1, k) for k in range(len(sizes))]
    moved = [(k < top) * (k + 1 + (k < top - 1)) for k in range(len(sizes))]
    powers = [pegs**k for k in range(discs)]
    ball = [(0, 0)] * discs  # (states, orbits) below each p**j so far
    balls, meets = [], []  # ball per layer; (d_R, free, states, orbits moving disc j+1)
    for d, layer, seen in _layers(pegs, small, 0, fold):
        layer.sort()
        ks = _used_pegs(fold, layer)
        mass = list(itertools.accumulate([sizes[k] for k in ks], initial=0))
        split = list(itertools.accumulate([parts[k] for k in ks], initial=0))
        ends = [bisect.bisect_left(layer, power) for power in powers]
        ball = [(s + mass[end], o + split[end]) for (s, o), end in zip(ball, ends)]
        balls.append(ball)
        j = len(meets)
        if j == discs:
            break
        start = ends[j - 1] if j else 0
        codes = layer[start : ends[j]]
        masks = [used[v // base] | low_occupied[v % base] if v >= base else used[v] for v in codes]
        free = [
            (v, k)
            for v, k, mask in zip(codes, ks[start : ends[j]], masks)
            if not mask & 1 and shares[k]
        ]
        if free:
            meets.append((
                d,
                free,
                sum(sizes[k] * (top - k) for _, k in free),
                sum(moved[k] for _, k in free),
            ))
    if len(meets) < discs:
        raise HanoiError("state graph unexpectedly disconnected")
    starts = {d: [v for v, _ in free] for d, free, _, _ in meets}
    cone = _cone(pegs, small, fold, seen, starts)
    for j, (d, free, states, orbits) in enumerate(meets):
        counts = next(c for e, c in cone if e == d)  # both run in order of d
        geodesics = sum(counts[v] ** 2 * shares[k] for v, k in free)
        s, o = balls[min(d + 1, len(balls) - 1)][j]
        rows.append((2 * d + 1, geodesics, s + states, o + orbits))
    return rows


def _perfect_peg(code: int, pegs: int, discs: int) -> int | None:
    """Peg index when the code is a perfect tower, else None."""
    if discs == 0:
        return 0
    unit = (pegs**discs - 1) // (pegs - 1)
    peg, rem = divmod(code, unit)
    return peg if rem == 0 and peg < pegs else None


def _dp_cost(
    towers: bool, solver: HanoiSolver | None, pegs: int, discs: int
) -> int | None:
    """The recurrence value a report carries: for n = 0 and, when
    ``towers``, between distinct perfect towers.  It is looked up before
    the search, so a disc count above the solver's ceiling fails before
    any BFS runs."""
    if discs == 0:
        return 0
    if towers:
        return _resolve(solver).cost(pegs, discs)
    return None


def _report(pegs: int, discs: int, dp_cost: int | None, row) -> OracleReport:
    """Report of a search's (distance, geodesics, explored, orbits) row."""
    distance, geodesics, explored, orbits = row
    agrees = None if dp_cost is None else distance == dp_cost
    return OracleReport(
        pegs, discs, distance, geodesics, explored, dp_cost, agrees, orbits
    )


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
    are counted exactly.  The peg count picks the kernel (see
    :func:`_search`), and the report does not depend on it; nothing is
    folded, so ``orbits_explored`` equals ``states_explored``.  The budget
    bounds p**n for both kernels, though on three pegs the search holds
    O(3**ceil(n/2)) entries, not a slot per state.

    Two distinct perfect towers are searched as given, like any pair, so
    the check shares no argument with :func:`tower_distance`, the fast
    path between towers; they only add ``dp_cost`` and ``agrees`` to the
    report.
    """
    _check_space(pegs, discs, state_budget)
    if source is None:
        source = perfect_state(pegs, discs, 0)
    if target is None:
        target = perfect_state(pegs, discs, pegs - 1)
    _check_code(source, pegs, discs)
    _check_code(target, pegs, discs)
    src_peg = _perfect_peg(source, pegs, discs)
    dst_peg = _perfect_peg(target, pegs, discs)
    towers = src_peg is not None and dst_peg is not None and src_peg != dst_peg
    dp_cost = _dp_cost(towers, solver, pegs, discs)
    return _report(pegs, discs, dp_cost, _search(pegs, discs, source, target))


def _tower_rows(pegs: int, discs: int):
    """(distance, geodesic count, states explored, orbits explored)
    between the perfect towers on pegs 0 and p-1 of the m-disc space, for
    every m in [0, discs], from one search: :func:`_block_towers` in the
    ``discs``-disc space on three pegs, :func:`_middle_search` in the
    ``discs - 1``-disc space on more.  ``states_explored`` counts the
    states within ceil(D/2) of the source, the half-depth ball."""
    return _block_towers(discs) if pegs == 3 else _middle_search(pegs, discs)


def tower_distance(
    pegs: int,
    discs: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    solver: HanoiSolver | None = None,
) -> OracleReport:
    """Certified distance and geodesic count between the perfect towers on
    the first and last pegs, by a half-depth search.

    Gives the distance, geodesic count, ``dp_cost`` and ``agrees`` of
    ``bfs_distance(pegs, discs)``, but ``states_explored`` counts only the
    states within ceil(D/2) of the source, where :func:`bfs_distance`
    counts the whole ball of radius D around it.  It reads the last row of
    :func:`_tower_rows`.  The budget bounds p**n, as there.  On three pegs
    the block kernel holds O(3**ceil(n/2)) entries; on more pegs the
    middle-state search holds p**(n-1) tag bytes, plus the fold and move
    tables, the two widest layers of representatives and the cone, whose
    geodesic counts it alone keeps.
    """
    _check_space(pegs, discs, state_budget)
    dp_cost = _dp_cost(True, solver, pegs, discs)
    return _report(pegs, discs, dp_cost, _tower_rows(pegs, discs)[-1])


def geodesic_uniqueness(
    discs: int, state_budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of distinct shortest paths between the two perfect
    three-peg towers.  The optimal solution is unique, so this is 1."""
    return tower_distance(3, discs, state_budget=state_budget).geodesic_count


def _orbit_codes(pegs: int, discs: int) -> list[int]:
    """Per state code, the code of its orbit's representative under the p!
    relabellings of the pegs.

    The representative is the :func:`_first_use` relabelling of all p
    pegs: disc 1 sits on peg 0, and a disc on a peg no smaller disc uses
    gets the lowest label not yet given.  Its digits form a restricted
    growth string, so the orbits are the set partitions of the discs into
    at most p blocks.
    """
    return _first_use(pegs, discs, 1, tuple(range(pegs)), {(): 0}, [0])[0]


def _diameter(pegs: int, discs: int) -> tuple[int, int]:
    """(diameter, BFS runs) by a bounding sweep over peg-relabelling orbits.

    Relabelling pegs maps legal moves to legal moves, so every state of an
    orbit has the same eccentricity.  Each open orbit keeps a lower and an
    upper bound on it (BoundingDiameters; Takes & Kosters, 2011).  A BFS
    from a state w with eccentricity e, reaching orbit O first at distance
    near and last at far, shows e(O) >= max(far, e - near) and
    e(O) <= e + near.  An orbit whose upper bound is at most the best
    lower bound cannot hold a longer eccentricity and closes; that covers
    an orbit whose two bounds meet.  The sweep alternates its source
    between the open orbit with the largest upper bound and the one with
    the smallest lower bound, and ends when no orbit is open: the best
    lower bound is then the diameter.  Each BFS streams its layers, from
    :func:`_dense_layers` on four or more pegs and from
    :func:`_block_layers` on three.
    """
    orbit = _orbit_codes(pegs, discs)
    lower = dict.fromkeys(sorted(set(orbit)), 0)
    upper = dict.fromkeys(lower, len(orbit))  # no eccentricity reaches V
    best = runs = 0
    masks = _shift_masks(pegs, discs) if pegs >= 4 else None
    while upper:
        if runs % 2:
            source = min(lower, key=lower.__getitem__)
        else:
            source = max(upper, key=upper.__getitem__)
        runs += 1
        near: dict[int, int] = {}
        far: dict[int, int] = {}
        if pegs >= 4:
            layers = map(_members, _dense_layers(masks, source))
        else:
            layers = _block_layers(pegs, discs, source)
        for ecc, layer in enumerate(layers):
            present = set(map(orbit.__getitem__, layer))
            near.update(dict.fromkeys(present.difference(near), ecc))
            far.update(dict.fromkeys(present, ecc))
        for o in upper:
            lower[o] = max(lower[o], far[o], ecc - near[o])
            upper[o] = min(upper[o], ecc + near[o])
        best = max(best, *lower.values())
        for o in [o for o, bound in upper.items() if bound <= best]:
            del lower[o], upper[o]
    return best, runs


def graph_metrics(
    pegs: int, discs: int, metrics_budget: int = DEFAULT_METRICS_BUDGET
) -> GraphMetrics:
    """Vertex and edge counts plus the diameter of the state graph.

    Each peg pair allows exactly one move from every state that leaves the
    pair not both empty, so |E| = C(p,2) * (p**n - (p-2)**n) / 2.  The
    diameter comes from :func:`_diameter`, a bounding sweep over the
    orbits of the peg relabellings, and ``bfs_runs`` says how many full
    BFS runs it took.  Measured: n runs on three pegs for n <= 12; 7 at
    (4,5), 17 at (4,7), 49 at (4,9); 18 at (5,8).  The budget bounds the
    vertex count only, not the number of runs, and no bound on the runs
    is proven.  Three-peg runs take their layers from the block kernel,
    which holds no slot per state: (3,12) takes about 3 s, most of it in
    the diameter's per-orbit bookkeeping rather than in the BFS runs.
    """
    size = _check_space(pegs, discs, metrics_budget)
    edges = math.comb(pegs, 2) * (size - (pegs - 2) ** discs) // 2
    diameter, runs = _diameter(pegs, discs)
    return GraphMetrics(pegs, discs, size, edges, diameter, runs)


def _admitted(
    pegs: int, max_discs: int, state_budget: int
) -> tuple[list[int], list[SkippedLevel]]:
    """The disc counts in [1, max_discs] that the budget admits, ascending,
    and a :class:`SkippedLevel` for each one it refuses, so that a sweep
    lists a refusal instead of aborting."""
    if max_discs < 1:
        raise DomainError(f"max_discs must be at least 1, got {max_discs}")
    admitted: list[int] = []
    skipped: list[SkippedLevel] = []
    for n in range(1, max_discs + 1):
        try:
            _check_space(pegs, n, state_budget)
        except StateBudgetExceeded as exc:
            skipped.append(SkippedLevel(n, exc.required, exc.budget))
        else:
            admitted.append(n)
    return admitted, skipped


def _tower_sweep(
    pegs: int, max_discs: int, state_budget: int, solver: HanoiSolver | None
) -> CertificationSweep:
    """The :func:`tower_distance` report of every n in [1, max_discs] that
    the budget admits, the others listed as skipped."""
    return _sweep(pegs, max_discs, state_budget, solver, _tower_rows)


def _sweep(
    pegs: int, max_discs: int, state_budget: int, solver: HanoiSolver | None, rows_of
) -> CertificationSweep:
    """The reports of every n in [1, max_discs] that the budget admits,
    from the rows ``rows_of(pegs, n)`` of the largest, the others listed
    as skipped.

    Every admitted ``dp_cost`` is looked up first, so the solver's ceiling
    fails at the same disc count as per-n calls would, and before any
    search.
    """
    admitted, skipped = _admitted(pegs, max_discs, state_budget)
    costs = [_dp_cost(True, solver, pegs, n) for n in admitted]
    rows = rows_of(pegs, admitted[-1]) if admitted else []
    reports = [_report(pegs, n, cost, rows[n]) for n, cost in zip(admitted, costs)]
    return CertificationSweep(pegs, tuple(reports), tuple(skipped))


def _certified_rows(pegs: int, discs: int):
    """The :func:`_tower_rows` of every m in [0, discs], with the full ball
    of radius D as states and orbits explored: the whole space on three
    pegs, one :func:`_dense_balls` search on more.  That search runs
    first, on tables built for it alone, so neither its tables nor the tower
    search's cached tables stay beside the other search."""
    balls = [3**m for m in range(discs + 1)] if pegs == 3 else _dense_balls(pegs, discs)
    return [(d, g, e, e) for (d, g, _, _), e in zip(_tower_rows(pegs, discs), balls)]


def certify_range(
    pegs: int,
    max_discs: int,
    state_budget: int = DEFAULT_STATE_BUDGET,
    solver: HanoiSolver | None = None,
) -> CertificationSweep:
    """Compare BFS distance to the recurrence for every n in [1, max_discs].

    Each report equals ``bfs_distance(pegs, n)``, from the rows of
    :func:`_certified_rows` at the largest n.  Disc counts whose state
    space exceeds the budget are skipped and listed in the sweep instead
    of aborting it.
    """
    return _sweep(pegs, max_discs, state_budget, solver, _certified_rows)
