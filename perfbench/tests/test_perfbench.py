"""Tests of the benchmark itself: seeding, reference outputs, checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

import hanoilab  # noqa: E402
import hanoilab.cli  # noqa: E402
from hanoilab import moves, oracle, recurrences  # noqa: E402


# --- seeding ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_operations(workload):
    assert workloads.operations(workload, 7) == workloads.operations(workload, 7)


@pytest.mark.parametrize("workload", ["graph", "traces", "tables"])
def test_other_seed_changes_operations(workload):
    assert workloads.operations(workload, 7) != workloads.operations(workload, 8)


def test_certify_ignores_the_seed():
    assert workloads.operations("certify", 7) == workloads.operations("certify", 8)


def test_trace_draws_stay_within_the_cap():
    draws, redrawn = workloads.draw_traces(__import__("random").Random(5))
    costs = {p: workloads.fs_costs(p, workloads.MAX_DISCS) for p in range(3, 7)}
    assert redrawn > 0
    for pegs, discs, split in draws:
        length = workloads.trace_length(costs, pegs, discs, split)
        assert workloads.TRACE_FLOOR <= costs[pegs][discs] <= length <= workloads.TRACE_CAP


# --- the independent references agree with the library -----------------------


def test_increment_rule_matches_the_recurrence():
    solver = recurrences.HanoiSolver()
    for pegs in range(3, 9):
        costs = workloads.fs_costs(pegs, 120)
        assert costs == [solver.cost(pegs, n) for n in range(121)]


def test_optimal_splits_match_the_solver():
    solver = recurrences.HanoiSolver()
    for pegs in (3, 4, 5, 7):
        for n in range(0, 60):
            assert tuple(reference.optimal_splits(pegs, n)) == solver.argmin_splits(pegs, n)


@pytest.mark.parametrize("pegs,discs", [(3, 5), (4, 4), (5, 3)])
def test_state_graph_matches_the_oracle(pegs, discs):
    graph = workloads.StateGraph(pegs, discs)
    for code in range(graph.size):
        assert sorted(graph.neighbours(code)) == sorted(oracle.neighbors(code, pegs, discs))
    for source, target in [(0, graph.size - 1), (3, 17), (graph.size // 2, 1)]:
        layers, paths = graph.layers(source, counts=True)
        report = oracle.bfs_distance(pegs, discs, source, target)
        expected = (report.distance, report.geodesic_count, report.states_explored)
        assert reference.pair_stats(layers, paths, target) == expected


def _replay(pegs: int, discs: int, trace: list[tuple[int, int, int]]) -> tuple[int, ...]:
    stacks = [list(range(discs, 0, -1))] + [[] for _ in range(pegs - 1)]
    for disc, a, b in trace:
        assert stacks[a] and stacks[a][-1] == disc
        assert not stacks[b] or stacks[b][-1] > disc
        stacks[b].append(stacks[a].pop())
    return tuple(len(s) for s in stacks)


@pytest.mark.parametrize("discs", [1, 2, 5, 8])
def test_ruler_trace_is_optimal_and_matches_the_library(discs):
    trace = reference.three_peg_moves(discs)
    assert len(trace) == 2**discs - 1
    assert _replay(3, discs, trace) == (0, 0, discs)
    expected = moves.trace_to_csv(moves.generate_three_peg(discs))
    assert reference.trace_csv(trace) == expected


@pytest.mark.parametrize("pegs,discs,split", [(4, 12, None), (4, 12, 3), (5, 20, None), (6, 25, 9)])
def test_frame_stewart_trace_matches_the_library(pegs, discs, split):
    trace = reference.frame_stewart_moves(pegs, discs, split)
    costs = {p: workloads.fs_costs(p, discs) for p in (pegs - 1, pegs)}
    assert len(trace) == workloads.trace_length(costs, pegs, discs, split)
    assert _replay(pegs, discs, trace) == (0,) * (pegs - 1) + (discs,)
    strategy = "optimal" if split is None else split
    expected = moves.trace_to_csv(moves.generate_frame_stewart(pegs, discs, strategy))
    assert reference.trace_csv(trace) == expected


# --- checks -------------------------------------------------------------------


def _runner(ops):
    return Runner(hanoilab, ops, reference.expectations(ops), None)


CHEAP_OPS = [
    workloads.cli("solve", "--pegs", 6, "--discs", 40, "--all-splits"),
    workloads.cli("table", "--kind", "table1", "--from", 1, "--to", 30),
    workloads.cli("moves", "--pegs", 4, "--discs", 9, "--verify"),
    workloads.lib("oracle.bfs_distance", 4, 5, 3, 700),
    workloads.lib("oracle.graph_metrics", 3, 3),
    workloads.lib("recurrences.ratio_rho", 40, solver=True),
]


def test_cheap_operations_pass_their_checks():
    runner = _runner(CHEAP_OPS)
    runner.run_pass(0)
    assert (runner.attempted, runner.failed) == (len(CHEAP_OPS), 0), runner.failures


@pytest.mark.parametrize("index", range(len(CHEAP_OPS)))
def test_one_corrupted_byte_fails_the_operation(index, monkeypatch):
    runner = _runner(CHEAP_OPS)
    execute = runner.execute

    def corrupted(op, session):
        outcome = execute(op, session)
        if op is not CHEAP_OPS[index]:
            return outcome
        if "stdout" in outcome:
            text = outcome["stdout"]
            middle = len(text) // 2
            outcome["stdout"] = text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1 :]
        else:
            text = json.dumps(checks.canonical(op["fn"], outcome.pop("result")))
            at = next(i for i, c in enumerate(text) if c.isdigit())
            outcome["value"] = json.loads(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :])
        return outcome

    monkeypatch.setattr(runner, "execute", corrupted)
    runner.run_pass(0)
    assert runner.failed == 1
    assert runner.failures[0]["op"] == index


def test_golden_digest_mismatch_fails():
    op = CHEAP_OPS[0]
    runner = Runner(hanoilab, [op], reference.expectations([op]), ["0" * 64])
    runner.run_pass(0)
    assert runner.failed == 1


def test_unexpected_raise_fails():
    op = workloads.lib("oracle.bfs_distance", 4, 5, 3, 4**5)  # target out of range
    runner = Runner(hanoilab, [op], [{"value": None}], None)
    runner.run_pass(0)
    assert runner.failed == 1
    assert runner.failures[0]["reason"].startswith("raised DomainError")


def test_golden_file_covers_every_default_operation():
    golden = json.loads((BENCH / "golden.json").read_text())
    assert set(golden) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        assert len(golden[workload]) == len(workloads.operations(workload, workloads.DEFAULT_SEED))


# --- tracing ------------------------------------------------------------------


def test_wrappers_leave_hanoilab_unpatched():
    before = tracing.originals(hanoilab)
    recorder = tracing.Recorder()
    with tracing.traced(hanoilab, recorder):
        assert all(
            now is not before[name] for name, now in tracing.originals(hanoilab).items()
        )
        with redirect_stdout(io.StringIO()):
            hanoilab.cli.main(["table", "--kind", "ratios"])
    after = tracing.originals(hanoilab)
    assert all(after[name] is before[name] for name in before)
    assert recorder.spans


def test_wrappers_are_restored_when_the_pass_raises():
    before = tracing.originals(hanoilab)
    with pytest.raises(KeyError):
        with tracing.traced(hanoilab, tracing.Recorder()):
            raise KeyError("boom")
    assert all(now is before[name] for name, now in tracing.originals(hanoilab).items())


def test_spans_nest_and_self_time_excludes_children():
    recorder = tracing.Recorder()
    with tracing.traced(hanoilab, recorder):
        oracle.certify_range(3, 3)
    names = [s.name for s in recorder.spans]
    assert names[0] == "oracle.certify_range"
    top = recorder.spans[0]
    children = [s for s in recorder.spans if s.parent == 0]
    assert {s.name for s in children} == {"oracle.bfs_distance"}
    own = tracing.self_times(recorder.spans)
    assert own[0] == pytest.approx((top.end - top.start) - sum(s.end - s.start for s in children))
    metrics = tracing.layer_metrics(recorder.spans, 0)
    assert metrics["oracle.bfs_calls"] == 3
    assert metrics["oracle.states_explored"] == 3 + 9 + 27


def test_fill_calls_count_rises_of_the_highest_disc_count():
    recorder = tracing.Recorder()
    with tracing.traced(hanoilab, recorder):
        solver = recurrences.HanoiSolver()
        for pegs, discs in [(4, 10), (4, 5), (4, 12), (5, 3), (3, 40), (4, 12)]:
            solver.solve(pegs, discs)
    metrics = tracing.layer_metrics(recorder.spans, 0)
    assert metrics["recurrences.sessions"] == 1
    assert metrics["recurrences.solver_calls"] == 6
    assert metrics["recurrences.fill_calls"] == 3
    assert metrics["recurrences.memo_hit_ratio"] == pytest.approx(0.5)


# --- host speed meter --------------------------------------------------------


def test_meter_runs_the_kernel_and_puts_the_alarm_back():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Meter() as meter:
        end = time.perf_counter() + 10 * speed.INTERVAL
        while time.perf_counter() < end:
            pass
    assert meter.totals.runs >= 3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scales_compare_the_kernel_with_the_reference():
    slow = speed.Reading(2, 4 * speed.REFERENCE_WALL_S, 2 * speed.REFERENCE_CPU_S, 1.0, 1.0)
    assert speed.scales(speed.IDLE, slow) == pytest.approx((0.5, 1.0))
    assert speed.scales(slow, slow) == (1.0, 1.0)


def test_metered_pass_leaves_the_kernel_out_of_operation_times(monkeypatch):
    runner = _runner(CHEAP_OPS[:1])
    meter = speed.Meter()
    execute = runner.execute

    def kernel_inside(op, session):
        outcome = execute(op, session)
        for _ in range(50):
            meter.tick(None, None)
        return outcome

    plain = runner.run_pass(0)
    monkeypatch.setattr(runner, "execute", kernel_inside)
    metered = runner.run_pass(1, meter=meter)
    assert metered["kernel_runs"] == 50
    assert metered["op_wall"][0] < plain["op_wall"][0] + meter.totals.spent_wall / 2
    assert metered["wall_scale"] == pytest.approx(
        speed.REFERENCE_WALL_S * 50 / meter.totals.wall
    )
    assert (runner.attempted, runner.failed) == (2, 0)


def test_typical_pass_scales_each_pass_before_the_medians():
    passes = [
        {"op_wall": [1.0, 4.0], "wall_scale": 1.0},
        {"op_wall": [2.0, 2.0], "wall_scale": 0.5},
        {"op_wall": [3.0, 9.0], "wall_scale": 1.0},
    ]
    assert run.typical_pass(passes, "op_wall") == 2.0 + 4.0
    assert run.typical_pass(passes, "op_wall", "wall_scale") == 1.0 + 4.0


# --- contract -------------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_describe_reports_the_percentile_with_ten_samples_beyond():
    stats = run.describe([float(i) for i in range(1, 41)])
    assert stats == {"median": 20.5, "n": 40, "p75.0": 30.0}
    assert set(run.describe([1.0, 2.0])) == {"median", "n"}


def test_run_fails_without_the_hanoilab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
