"""Expected outputs of every benchmark operation, computed without hanoilab.

Costs come from the Frame-Stewart increment rule (``workloads.fs_costs``),
three-peg graph sizes from their closed forms (V = 3**n,
E = 3(3**n - 1)/2, diameter 2**n - 1), distances, geodesic counts and
explored-state counts from the benchmark's own BFS
(``workloads.StateGraph``), and move traces from the benchmark's own
generators.  Nothing here is timed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache

from workloads import MAX_DISCS, StateGraph, fs_costs, perfect

#: Entries ``verify-all`` checks: A000225 and A007664 prefixes (20 each),
#: four columns of the 15-row Table 1, 5 extended ratios, 15 T5 values.
REFERENCE_ENTRIES = 20 + 20 + 4 * 15 + 5 + 15


@lru_cache(maxsize=None)
def costs(pegs: int) -> tuple[int, ...]:
    return tuple(fs_costs(pegs, MAX_DISCS))


def optimal_splits(pegs: int, discs: int) -> list[int]:
    """Every parked-disc count k with 2 T_p(k) + T_{p-1}(n - k) = T_p(n)."""
    if discs <= 1:
        return []
    if pegs == 3:
        return [discs - 1]
    tp, below = costs(pegs), costs(pegs - 1)
    return [k for k in range(1, discs) if 2 * tp[k] + below[discs - k] == tp[discs]]


def rendered_ratio(numerator: int, denominator: int) -> str:
    """numerator/denominator rounded half up to three decimals."""
    thousandths = int(Fraction(numerator, denominator) * 1000 + Fraction(1, 2))
    return f"{thousandths // 1000}.{thousandths % 1000:03d}"


def _balanced(n: int) -> int:
    return 2 * costs(4)[n // 2] + costs(3)[n - n // 2]


def _delta(n: int, k: int) -> int:
    t4, t3 = costs(4), costs(3)
    return (2 * t4[k + 1] + t3[n - k - 1]) - (2 * t4[k] + t3[n - k])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- traces ----------------------------------------------------------------


def peg_label(index: int) -> str:
    return "ABCD"[index] if index < 4 else f"P{index + 1}"


def three_peg_moves(discs: int) -> list[tuple[int, int, int]]:
    """Optimal 3-peg transfer from peg 0 to peg 2 by the ruler rule.

    Step t moves disc 1 + (trailing zeros of t) from peg (t & (t-1)) % 3
    to peg ((t | (t-1)) + 1) % 3; that carries the tower to peg 2 for odd
    n and to peg 1 for even n, so pegs 1 and 2 swap roles for even n.
    """
    swap = (0, 2, 1) if discs % 2 == 0 else (0, 1, 2)
    return [
        ((t & -t).bit_length(), swap[(t & (t - 1)) % 3], swap[((t | (t - 1)) + 1) % 3])
        for t in range(1, 1 << discs)
    ]


def frame_stewart_moves(pegs: int, discs: int, split: int | None) -> list[tuple[int, int, int]]:
    """Park / shuttle / rebuild trace from peg 0 to the last peg.

    Every level parks the smallest optimal split (``split`` overrides it
    at the top level) on the lowest-numbered spare peg, which stays out of
    the shuttle.
    """
    out: list[tuple[int, int, int]] = []

    def three(count: int, lowest: int, src: int, dst: int, spare: int) -> None:
        if count:
            three(count - 1, lowest, src, spare, dst)
            out.append((lowest + count - 1, src, dst))
            three(count - 1, lowest, spare, dst, src)

    def multi(count: int, lowest: int, src: int, dst: int, free: tuple[int, ...], k: int | None) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((lowest, src, dst))
            return
        if len(free) == 3:
            three(count, lowest, src, dst, next(q for q in free if q not in (src, dst)))
            return
        if k is None:
            k = optimal_splits(len(free), count)[0]
        staging = min(q for q in free if q not in (src, dst))
        multi(k, lowest, src, staging, free, None)
        multi(count - k, lowest + k, src, dst, tuple(q for q in free if q != staging), None)
        multi(k, lowest, staging, dst, free, None)

    multi(discs, 1, 0, pegs - 1, tuple(range(pegs)), split)
    return out


def trace_csv(moves: list[tuple[int, int, int]]) -> str:
    rows = ["step,disc,from,to"]
    rows.extend(
        f"{step},{disc},{peg_label(a)},{peg_label(b)}"
        for step, (disc, a, b) in enumerate(moves, 1)
    )
    return "\n".join(rows) + "\n"


def _moves_expect(pegs: int, discs: int, strategy: str) -> dict:
    if pegs == 3:
        moves = three_peg_moves(discs)
    else:
        split = None if strategy == "optimal" else int(strategy.split(":")[1])
        moves = frame_stewart_moves(pegs, discs, split)
    return _cli_expect(trace_csv(moves), f"hanoilab: verify: ok ({len(moves)} moves)\n")


# --- CLI texts ---------------------------------------------------------------


def _cli_expect(stdout: str, stderr: str = "") -> dict:
    return {"code": 0, "stdout_sha256": sha256(stdout), "stderr": stderr}


def _verify_all_text() -> str:
    return (
        f"references: {REFERENCE_ENTRIES} checked, 0 mismatches\n"
        "oracle p=3: 10 certified, 0 disagreements, 0 skipped\n"
        "oracle p=4: 10 certified, 0 disagreements, 0 skipped\n"
        "PASS\n"
    )


def perfect_pair(pegs: int, discs: int) -> tuple[int, int, int]:
    """(distance, geodesic count, states explored) between perfect towers 0 and p-1."""
    layers, paths = StateGraph(pegs, discs).layers(perfect(pegs, discs, 0), counts=True)
    return pair_stats(layers, paths, perfect(pegs, discs, pegs - 1))


def pair_stats(layers: list[list[int]], paths: list[int], target: int) -> tuple[int, int, int]:
    explored = 0
    for depth, layer in enumerate(layers):
        explored += len(layer)
        if target in layer:
            return depth, paths[target], explored
    raise AssertionError("state graph is connected")


def _oracle_text(pegs: int, max_discs: int) -> str:
    rows = ["n,distance,dp_cost,agree,geodesics,states_explored"]
    for n in range(1, max_discs + 1):
        distance, count, explored = perfect_pair(pegs, n)
        rows.append(f"{n},{distance},{costs(pegs)[n]},true,{count},{explored}")
    return "\n".join(rows) + "\n"


def _solve_text(pegs: int, discs: int) -> str:
    splits = optimal_splits(pegs, discs)
    text = f"pegs: {pegs}\ndiscs: {discs}\ncost: {costs(pegs)[discs]}\n"
    if splits:
        text += f"canonical_split: {splits[0]}\nsplits: {','.join(map(str, splits))}\n"
    return text


def _table_text(kind: str, lo: int, hi: int, pegs: list[int]) -> str:
    if kind == "growth":
        wanted = sorted(set(pegs))
        rows = ["n," + ",".join(f"t{p}" for p in wanted)]
        rows += [f"{n}," + ",".join(str(costs(p)[n]) for p in wanted) for n in range(lo, hi + 1)]
    elif kind == "deltas":
        rows = ["n,k,delta"]
        rows += [f"{n},{k},{_delta(n, k)}" for n in range(lo, hi + 1) for k in range(1, n - 1)]
    elif kind == "table1":
        rows = ["n,k,t4,fs_balanced,rho"]
        for n in range(lo, hi + 1):
            t4, fs = costs(4)[n], _balanced(n)
            rows.append(f"{n},{n // 2},{t4},{fs},{rendered_ratio(fs, t4)}")
    else:
        rows = ["n,rho"]
        rows += [f"{n},{rendered_ratio(_balanced(n), costs(4)[n])}" for n in range(lo, hi + 1)]
    return "\n".join(rows) + "\n"


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def cli_expect(argv: list[str]) -> dict:
    command = argv[0]
    if command == "verify-all":
        return _cli_expect(_verify_all_text())
    pegs = _option(argv, "--pegs")
    if command == "oracle":
        return _cli_expect(_oracle_text(int(pegs), int(_option(argv, "--max"))))
    if command == "moves":
        return _moves_expect(int(pegs), int(_option(argv, "--discs")), _option(argv, "--strategy", "optimal"))
    if command == "solve":
        return _cli_expect(_solve_text(int(pegs), int(_option(argv, "--discs"))))
    if command == "table":
        lo, hi = int(_option(argv, "--from")), int(_option(argv, "--to"))
        return _cli_expect(_table_text(_option(argv, "--kind"), lo, hi, [int(p) for p in pegs.split(",")] if pegs else []))
    raise ValueError(f"no reference for {argv}")


# --- library values ----------------------------------------------------------


def _graph_metrics(pegs: int, discs: int) -> list[int]:
    if pegs == 3:
        return [3, discs, 3**discs, 3 * (3**discs - 1) // 2, 2**discs - 1]
    graph = StateGraph(pegs, discs)
    edges = sum(len(graph.neighbours(c)) for c in range(graph.size)) // 2
    diameter = max(len(graph.layers(c)[0]) - 1 for c in range(graph.size))
    return [pegs, discs, graph.size, edges, diameter]


def _plateaus(pegs: int, lo: int, hi: int) -> list[list[int]]:
    runs: list[list[int]] = []
    for n in range(lo, hi + 1):
        shuttle = n - optimal_splits(pegs, n)[-1]
        if runs and runs[-1][2] == shuttle:
            runs[-1][1] = n
        else:
            runs.append([n, n, shuttle])
    return runs


def _sensitivity(n: int) -> list:
    deltas = [[n, k, _delta(n, k)] for k in range(1, n - 1)]
    signs = [d > 0 for _, _, d in deltas if d != 0]
    return [n, deltas, sum(a != b for a, b in zip(signs, signs[1:]))]


def _ratio(n: int) -> list:
    numerator, denominator = _balanced(n), costs(4)[n]
    return [numerator, denominator, rendered_ratio(numerator, denominator)]


def expectations(ops: list[dict]) -> list[dict]:
    """One expectation per operation, in order."""
    searches: dict[tuple[int, int, int], tuple] = {}
    out = []
    for op in ops:
        if op["kind"] == "cli":
            out.append(cli_expect(op["argv"]))
            continue
        fn, args = op["fn"], op["args"]
        if fn == "oracle.bfs_distance":
            pegs, discs, source, target = args
            if (pegs, discs, source) not in searches:
                searches[pegs, discs, source] = StateGraph(pegs, discs).layers(source, counts=True)
            distance, count, explored = pair_stats(*searches[pegs, discs, source], target)
            value = [pegs, discs, distance, count, explored, None, None]
        elif fn == "oracle.graph_metrics":
            value = _graph_metrics(*args)
        elif fn == "recurrences.plateau_scan":
            value = _plateaus(args[0], *args[1])
        elif fn == "recurrences.sensitivity_profile":
            value = _sensitivity(*args)
        elif fn == "recurrences.ratio_rho":
            value = _ratio(*args)
        else:
            raise ValueError(f"no reference for {fn}")
        out.append({"value": value})
    return out
