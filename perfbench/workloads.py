"""Seeded operation lists for the four hanoilab benchmark workloads.

This module never imports hanoilab: it builds plain argument lists from a
seed, so the library sees only the generated arguments.  An operation is a
JSON-able dict, either ``{"kind": "cli", "argv": [...]}`` for a call to
``hanoilab.cli.main`` or ``{"kind": "lib", "fn": "module.name", "args":
[...], "solver": bool}`` for a direct call of a public function (``solver``
asks for the pass's shared ``HanoiSolver`` session as the ``solver``
keyword).

Why each workload exists (see README.md for the metrics they move):

* ``certify`` -- ``verify-all`` then ``oracle --pegs 5 --max 7 --metrics``,
  the same for every seed.  The paper's headline job; most of its time is
  BFS between two perfect towers with geodesic counting.
* ``graph`` -- ``bfs_distance`` between seeded state pairs on (4,9) and
  (3,11), plus ``graph_metrics`` on (3,6) and (4,4).  Arbitrary pairs stop
  early, have no mirror symmetry and never call the solver, so a BFS change
  that only helps ``certify`` shows here.  A pair's cost is the number of
  states within the target's distance, which for a uniform target is itself
  uniform over the graph; to keep a pass's cost the same for every seed the
  targets are drawn from distance layers chosen so that the explored shares
  of the graph are stratified (1/8, 3/8, 5/8, 7/8).
* ``traces`` -- ``moves --pegs 3 --discs 18 --verify`` plus one seeded
  ``moves --verify`` per peg count 4, 5, 6 and strategy ``optimal`` /
  ``fixed:k``.  Each draw's length is predicted with the Frame-Stewart
  closed form before it is issued and redrawn when it falls outside
  [TRACE_FLOOR, TRACE_CAP].  The cap exists because ``moves`` has no real
  move budget (its disc ceiling of 512 does not bound the trace): for
  example ``--pegs 4 --discs 100 --strategy balanced`` asks for about 2**50
  moves and is OOM-killed.  That defect is left open for the library to fix;
  the benchmark only avoids issuing such draws.  The floor keeps a pass's
  cost close to the same for every seed.
* ``tables`` -- a seeded ``table --kind growth`` over up to 18 peg counts
  for n = 1..512, ``solve --all-splits`` calls sized so each costs about the
  same DP fill, ``table --kind deltas|table1|ratios``, and library calls
  (``plateau_scan``, ``sensitivity_profile``, ``ratio_rho``) on one session
  per pass.  Every CLI call builds a fresh solver, so this is the workload
  where the recurrence DP fill dominates.
"""

from __future__ import annotations

import math
import random
from array import array

DEFAULT_SEED = 1
WORKLOADS = ("certify", "graph", "traces", "tables")

#: Bounds on the predicted length of a seeded ``moves`` draw.
TRACE_FLOOR = 50_000
TRACE_CAP = 60_000
#: Largest disc count the CLI accepts by default; draws come from 2..this.
MAX_DISCS = 512
#: Explored-state shares targeted by the seeded BFS pairs of one graph.
PAIR_SHARES = (0.125, 0.375, 0.625, 0.875)
#: DP work, in (pegs - 3) * discs**2 units, of each seeded ``solve`` call.
SOLVE_WORK = 17 * 380**2
#: DP work of the seeded ``plateau_scan`` call.
PLATEAU_WORK = 6 * 280**2


def fs_costs(pegs: int, max_discs: int) -> list[int]:
    """Frame-Stewart values T_p(0..max_discs) from the increment rule.

    After Klavzar, Milutinovic and Petr (2002): T_p(n) - T_p(n-1) runs
    through 2**t, each repeated C(t+p-3, p-3) times.  For p = 3 this is
    2**n - 1.  No recurrence is evaluated.
    """
    costs = [0]
    t = 0
    while len(costs) <= max_discs:
        for _ in range(math.comb(t + pegs - 3, pegs - 3)):
            if len(costs) > max_discs:
                break
            costs.append(costs[-1] + (1 << t))
        t += 1
    return costs


def trace_length(costs: dict[int, list[int]], pegs: int, discs: int, split: int | None) -> int:
    """Predicted ``moves`` length: optimal, or split ``k`` at the top level."""
    if split is None:
        return costs[pegs][discs]
    return 2 * costs[pegs][split] + costs[pegs - 1][discs - split]


def cli(*argv: object) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def lib(fn: str, *args: object, solver: bool = False) -> dict:
    return {"kind": "lib", "fn": fn, "args": list(args), "solver": solver}


# --- state-graph search used to place the seeded BFS pairs ----------------


def _part_moves(pegs: int, count: int, weight: int):
    """Moves inside one block of ``count`` consecutive discs.

    A block code holds one base-``pegs`` digit per disc, smallest first.
    Returns, per block code, the mask of pegs the block occupies and the
    (code delta, mask of both pegs) of every move legal within the block.
    """
    size = pegs**count
    occupied = [0] * size
    moves: list[list[tuple[int, int]]] = []
    for code in range(size):
        top: dict[int, int] = {}
        rem = code
        for j in range(count):
            rem, q = divmod(rem, pegs)
            top.setdefault(q, j)
        occupied[code] = sum(1 << q for q in top)
        legal = []
        for a, j in top.items():
            for b in range(pegs):
                if b != a and top.get(b, count) > j:
                    legal.append(((b - a) * weight * pegs**j, (1 << a) | (1 << b)))
        moves.append(legal)
    return occupied, moves


class StateGraph:
    """Neighbour tables for the (pegs, discs) state graph.

    A code's low block holds the smallest discs; a move inside it never
    depends on the larger discs.  A move in the high block is legal only
    when no low disc sits on either of its pegs.
    """

    def __init__(self, pegs: int, discs: int) -> None:
        self.pegs, self.discs = pegs, discs
        low = discs // 2
        self.size = pegs**discs
        self.base = pegs**low
        self.low_occupied, low_moves = _part_moves(pegs, low, 1)
        self.low_deltas = [[d for d, _ in legal] for legal in low_moves]
        _, high_moves = _part_moves(pegs, discs - low, self.base)
        self.high_deltas = [
            [[d for d, both in legal if not occ & both] for occ in range(1 << pegs)]
            for legal in high_moves
        ]

    def neighbours(self, code: int) -> list[int]:
        high, low = divmod(code, self.base)
        occ = self.low_occupied[low]
        return [code + d for d in self.low_deltas[low] + self.high_deltas[high][occ]]

    def layers(self, source: int, counts: bool = False, depth: int | None = None):
        """BFS layers from ``source`` (all of them, or up to ``depth``).

        With ``counts`` also returns the number of shortest paths from the
        source to every state reached, else None.
        """
        dist = array("i", [-1]) * self.size
        dist[source] = 0
        paths = None
        if counts:
            paths = [0] * self.size
            paths[source] = 1
        layers = [[source]]
        base, low_occ = self.base, self.low_occupied
        low_deltas, high_deltas = self.low_deltas, self.high_deltas
        d = 0
        while layers[-1] and (depth is None or d < depth):
            d += 1
            nxt: list[int] = []
            for code in layers[-1]:
                high, low = divmod(code, base)
                cu = paths[code] if counts else 0
                for delta in low_deltas[low] + high_deltas[high][low_occ[low]]:
                    v = code + delta
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = d
                        nxt.append(v)
                        if counts:
                            paths[v] = cu
                    elif counts and dv == d:
                        paths[v] += cu
            layers.append(nxt)
        if not layers[-1]:
            layers.pop()
        return layers, paths


def perfect(pegs: int, discs: int, peg: int) -> int:
    return peg * (pegs**discs - 1) // (pegs - 1)


def _is_perfect(code: int, pegs: int, discs: int) -> bool:
    return any(code == perfect(pegs, discs, q) for q in range(pegs))


def stratified_pairs(rng: random.Random, pegs: int, discs: int) -> list[tuple[int, int]]:
    """(source, target) pairs from one seeded source, one per PAIR_SHARES.

    Each target's distance layer is picked so that the running total of
    states a BFS explores (every state up to the target's layer) tracks
    the running total of the target shares.
    """
    size = pegs**discs
    source = rng.randrange(size)
    while _is_perfect(source, pegs, discs):
        source = rng.randrange(size)
    layers, _ = StateGraph(pegs, discs).layers(source)
    within = []
    total = 0
    for layer in layers:
        total += len(layer)
        within.append(total)
    pairs = []
    goal = explored = 0
    for share in PAIR_SHARES:
        goal += share * size
        depth = min(range(1, len(layers)), key=lambda d: abs(explored + within[d] - goal))
        explored += within[depth]
        target = rng.choice(layers[depth])
        while _is_perfect(target, pegs, discs):
            target = rng.choice(layers[depth])
        pairs.append((source, target))
    return pairs


# --- the four workloads ---------------------------------------------------


def _certify(rng: random.Random) -> list[dict]:
    return [cli("verify-all"), cli("oracle", "--pegs", 5, "--max", 7, "--metrics")]


def _graph(rng: random.Random) -> list[dict]:
    ops = []
    for pegs, discs in ((4, 9), (3, 11)):
        for source, target in stratified_pairs(rng, pegs, discs):
            ops.append(lib("oracle.bfs_distance", pegs, discs, source, target))
    ops.append(lib("oracle.graph_metrics", 3, 6))
    ops.append(lib("oracle.graph_metrics", 4, 4))
    return ops


def draw_traces(rng: random.Random) -> tuple[list[tuple[int, int, int | None]], int]:
    """Seeded (pegs, discs, split) draws and how many were redrawn.

    ``split`` None means the optimal strategy.  A draw is kept only when
    both the optimal length for its disc count and its own predicted
    length lie in [TRACE_FLOOR, TRACE_CAP].
    """
    costs = {p: fs_costs(p, MAX_DISCS) for p in range(3, 7)}
    draws = []
    redrawn = 0
    for pegs in (4, 5, 6):
        for fixed in (False, True):
            while True:
                discs = rng.randint(2, MAX_DISCS)
                split = rng.randint(1, discs - 1) if fixed else None
                if TRACE_FLOOR <= costs[pegs][discs] and trace_length(
                    costs, pegs, discs, split
                ) <= TRACE_CAP:
                    break
                redrawn += 1
            draws.append((pegs, discs, split))
    return draws, redrawn


def _traces(rng: random.Random) -> list[dict]:
    ops = [cli("moves", "--pegs", 3, "--discs", 18, "--verify")]
    draws, _ = draw_traces(rng)
    for pegs, discs, split in draws:
        strategy = "optimal" if split is None else f"fixed:{split}"
        ops.append(
            cli("moves", "--pegs", pegs, "--discs", discs, "--strategy", strategy, "--verify")
        )
    return ops


def _sized(rng: random.Random, work: int, pegs: int) -> int:
    """Disc count whose DP fill at ``pegs`` costs about ``work`` units."""
    discs = math.isqrt(work // (pegs - 3))
    return min(MAX_DISCS, discs + rng.randint(-3, 3))


def _tables(rng: random.Random) -> list[dict]:
    pegs = [20] + rng.sample(range(3, 20), rng.randint(11, 17))
    rng.shuffle(pegs)
    ops = [cli("table", "--kind", "growth", "--pegs", ",".join(map(str, pegs)),
               "--from", 1, "--to", MAX_DISCS)]
    for _ in range(10):
        p = rng.randint(13, 20)
        ops.append(cli("solve", "--pegs", p, "--discs", _sized(rng, SOLVE_WORK, p), "--all-splits"))
    lo = rng.randint(3, 150)
    ops.append(cli("table", "--kind", "deltas", "--from", lo, "--to", lo + 30))
    ops.append(cli("table", "--kind", "table1", "--from", 1, "--to", rng.randint(15, 200)))
    lo = rng.randint(16, 200)
    ops.append(cli("table", "--kind", "ratios", "--from", lo, "--to", lo + 20))
    p = rng.randint(5, 12)
    ops.append(lib("recurrences.plateau_scan", p, [2, _sized(rng, PLATEAU_WORK, p)], solver=True))
    ops.append(lib("recurrences.sensitivity_profile", rng.randint(200, 300), solver=True))
    for n in sorted(rng.sample(range(1, MAX_DISCS + 1), 5)):
        ops.append(lib("recurrences.ratio_rho", n, solver=True))
    return ops


_GENERATORS = {"certify": _certify, "graph": _graph, "traces": _traces, "tables": _tables}


def operations(workload: str, seed: int) -> list[dict]:
    """The seeded operation list of one workload."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
