"""hanoilab benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The run builds the seeded operation list (``workloads.py``) and its
expected outputs (``reference.py``), times ``SETUP_SAMPLES`` fresh
interpreters from start to ready, then lets one more fresh process
(``worker.py``) run passes over the list for ``--seconds`` and check every
output.  End-to-end times are scaled to a reference host speed measured
with a fixed kernel (``speed.py``) in the same seconds; the raw times are
printed beside them.  hanoilab is imported from ``src`` of the checkout; without it the
run fails and prints no result.

With ``--trace 0`` the result carries the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` untraced and traced passes alternate and
the result carries the per-layer metrics of the traced passes.  The last
line printed is the result as JSON; the lines before it give the
environment, medians with their sample counts and high percentiles, the
failed-operation ratio and, for traced runs, each module's self-time share.
The same record goes to ``perfbench/out/``.  See README.md for what each
metric means and which workload moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import speed
import workloads
from worker import ops_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
#: Fresh interpreters timed from start to ready, besides the measuring one.
SETUP_SAMPLES = 9
#: Kernel runs (about 12 ms) that measure the host's speed next to a set-up.
SETUP_KERNEL_RUNS = 40
#: Longest wait for a worker beyond the measured seconds.
WORKER_GRACE = 120.0

END_TO_END = {"job_s": "s", "job_cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "oracle.bfs_s": "s",
    "oracle.bfs_calls": "count",
    "oracle.states_explored": "count",
    "oracle.states_per_s": "1/s",
    "oracle.metrics_s": "s",
    "oracle.metrics_vertices": "count",
    "oracle.certify_self_s": "s",
    "moves.generate_s": "s",
    "moves.moves_generated": "count",
    "moves.moves_per_s": "1/s",
    "moves.replay_s": "s",
    "moves.replays_per_trace": "ratio",
    "moves.invariants_s": "s",
    "moves.csv_s": "s",
    "moves.csv_bytes": "bytes",
    "recurrences.solver_s": "s",
    "recurrences.solver_calls": "count",
    "recurrences.sessions": "count",
    "recurrences.fill_calls": "count",
    "recurrences.fill_s": "s",
    "recurrences.memo_hit_ratio": "ratio",
    "tables.emit_s": "s",
    "tables.csv_bytes": "bytes",
    "tables.verify_refs_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.commands": "count",
    "trace.overhead_ratio": "ratio",
}
#: The module expected to hold the largest self-time share of each workload.
EXPECTED_TOP = {"certify": "oracle", "graph": "oracle", "traces": "moves", "tables": "recurrences"}


class BenchError(Exception):
    """The run cannot produce a result."""


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def describe(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) > 10:
        out[f"p{100 * (len(ordered) - 10) / len(ordered):.1f}"] = ordered[-11]
    return out


def _worker(
    args: argparse.Namespace, setup_only: bool, workload: str | None = None
) -> tuple[subprocess.Popen, float]:
    """A fresh worker and its time from start to ready."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload or args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdin=subprocess.DEVNULL if setup_only else subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def host_scale() -> float:
    """Wall scale factor to the reference speed, from kernel runs just now."""
    return speed.scales(speed.IDLE, speed.sample(SETUP_KERNEL_RUNS))[0]


def setup_time(args: argparse.Namespace, workload: str | None = None) -> tuple[float, float]:
    """Raw set-up time of a fresh worker, and the host's speed scale around it."""
    before = host_scale()
    proc, ready = _worker(args, setup_only=True, workload=workload)
    proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with {proc.returncode}")
    return ready, (before + host_scale()) / 2


def run_worker(args: argparse.Namespace, spec: dict) -> tuple[dict, tuple[float, float]]:
    scale = host_scale()
    proc, ready = _worker(args, setup_only=False)
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=args.seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1]), (ready, scale)


def _op_label(op: dict) -> str:
    if op["kind"] == "cli":
        return "cli " + " ".join(op["argv"])
    return f"{op['fn']}{tuple(op['args'])}"


def typical_pass(passes: list[dict], key: str, scale: str | None = None) -> float:
    """Sum over operations of each operation's median time across passes.

    Host contention on a shared box comes in bursts that hit single
    operations; taking the median per operation keeps one slow operation
    from setting the whole pass's figure.  With ``scale`` each pass's
    times are first multiplied by that scale factor of the pass.
    """
    rows = ([t * (p[scale] if scale else 1.0) for t in p[key]] for p in passes)
    return sum(statistics.median(column) for column in zip(*rows))


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    passes = report["passes"]
    values = {
        "job_s": typical_pass(passes, "op_wall", "wall_scale"),
        "job_cpu_s": typical_pass(passes, "op_cpu", "cpu_scale"),
        "peak_rss_mib": report["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(raw * scale for raw, scale in setups),
    }
    stats = {
        "raw_job_s": typical_pass(passes, "op_wall"),
        "raw_job_cpu_s": typical_pass(passes, "op_cpu"),
        "wall_scale": describe([p["wall_scale"] for p in passes]),
        "cpu_scale": describe([p["cpu_scale"] for p in passes]),
        "kernel_runs": sum(p["kernel_runs"] for p in passes),
        "pass_s": describe([p["wall"] for p in passes]),
        "pass_cpu_s": describe([sum(p["op_cpu"]) for p in passes]),
        "raw_setup_s": describe([raw for raw, _ in setups]),
        "setup_scale": describe([scale for _, scale in setups]),
    }
    return values, stats


def per_layer(report: dict, workload: str) -> tuple[dict, dict]:
    traced = [p for p in report["passes"] if p["traced"]]
    untraced = [p for p in report["passes"] if not p["traced"]]
    values = {
        name: statistics.median(layers[name] for layers in report["layers"])
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    values["trace.overhead_ratio"] = typical_pass(traced, "op_wall") / typical_pass(untraced, "op_wall")
    shares = {
        module: statistics.median(m.get(module, 0.0) / p["wall"] for m, p in zip(report["modules"], traced))
        for module in ("oracle", "moves", "recurrences", "tables", "cli")
    }
    notes = {
        "self_share": shares,
        "top_module": max(shares, key=shares.get),
        "expected_top_module": EXPECTED_TOP[workload],
        "traced_pass_s": describe([p["wall"] for p in traced]),
        "untraced_pass_s": describe([p["wall"] for p in untraced]),
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one hanoilab benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hanoilab" / "__init__.py").is_file():
        print(f"perfbench: no hanoilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    ops = workloads.operations(args.workload, args.seed)
    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    spec = {"ops_sha256": ops_digest(ops), "expect": reference.expectations(ops), "golden": golden}
    try:
        setup_time(args, "certify")  # untimed: writes bytecode caches on a fresh checkout
        setups = [setup_time(args) for _ in range(SETUP_SAMPLES)]
        report, ready = run_worker(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    env["loadavg_after"] = os.getloadavg()

    if args.trace:
        values, notes = per_layer(report, args.workload)
        units = PER_LAYER
    else:
        values, notes = end_to_end(report, setups)
        units = END_TO_END
    untraced = [p for p in report["passes"] if not p["traced"]]
    operations = []
    for i, op in enumerate(ops):
        samples = [p["op_wall"][i] for p in untraced]
        operations.append(dict(op=_op_label(op), **describe(samples), samples=samples))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "passes": len(report["passes"]),
        "pass_wall_s": [p["wall"] for p in report["passes"]],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_ratio": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "wrappers_restored": report["restored"],
        "stats": notes,
        "operations": operations,
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for key in ("workload", "env", "pass_wall_s", "attempted", "failed", "fail_ratio", "wrappers_restored", "stats"):
        print(f"{key}: {json.dumps(record[key])}")
    for failure in report["failures"]:
        print(f"failed: pass {failure['pass']} op {failure['op']} ({_op_label(ops[failure['op']])}): {failure['reason']}")
    if args.trace and notes["top_module"] != notes["expected_top_module"]:
        print(f"flag: largest self-time share is {notes['top_module']}, expected {notes['expected_top_module']}")
    result = {
        "correct": report["failed"] == 0 and report["restored"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
