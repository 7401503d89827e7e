"""One fresh benchmark process: import hanoilab, build the operation list, run passes.

Started by ``run.py``.  It prints ``ready`` once hanoilab is imported and
the seeded operation list is built, which ends the set-up that ``run.py``
times.  With ``--setup-only`` it stops there.  Otherwise it reads the
expectations as JSON on stdin and runs passes over the operation list for
``--seconds``: one client, one operation at a time, no threads.  With
``--trace 0`` a ``speed.Meter`` samples the host's speed throughout, and
each pass carries its scale factors to the reference speed.  With
``--trace 1`` untraced and traced passes alternate, without the meter.
The last line it prints is a JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Failures listed in the report; the count covers all of them.
MAX_LISTED = 20


def import_hanoilab():
    """hanoilab from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("hanoilab")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hanoilab imported from {package.__file__}, not {src}")
    return package


def ops_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


class Runner:
    """Issues operations against the package and checks their outcomes."""

    def __init__(self, package, ops: list[dict], expect: list[dict], golden: list[str] | None):
        self.package = package
        self.ops, self.expect, self.golden = ops, expect, golden
        self.attempted = self.failed = 0
        self.failures: list[dict] = []

    def execute(self, op: dict, session: list) -> dict:
        """Runs one operation; ``session`` holds the pass's shared solver."""
        try:
            if op["kind"] == "cli":
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.package.cli.main(op["argv"])
                return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            module, name = op["fn"].split(".")
            fn = getattr(getattr(self.package, module), name)
            kwargs = {}
            if op["solver"]:
                if not session:
                    session.append(self.package.recurrences.HanoiSolver())
                kwargs["solver"] = session[0]
            return {"result": fn(*op["args"], **kwargs)}
        except Exception as exc:  # an unexpected raise is a failed operation
            return {"error": repr(exc)}

    def run_pass(
        self,
        index: int,
        recorder: tracing.Recorder | None = None,
        meter: speed.Meter | None = None,
    ) -> dict:
        """One pass over the operations.

        With ``meter`` each operation's time leaves out the meter's kernel
        runs inside it, and the pass carries the wall and CPU scale factors
        to the reference speed.
        """
        op_wall, op_cpu = [], []
        stdout_bytes = 0
        session: list = []
        meter = meter or speed.Meter()  # never started: its totals stay idle
        first = meter.totals
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = i
            m0 = meter.totals
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = self.execute(op, session)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            m1 = meter.totals
            op_wall.append(wall - (m1.spent_wall - m0.spent_wall))
            op_cpu.append(cpu - (m1.spent_cpu - m0.spent_cpu))
            if "result" in outcome:
                outcome = {"value": checks.canonical(op["fn"], outcome.pop("result"))}
            if op["kind"] == "cli" and "stdout" in outcome:
                stdout_bytes += len(outcome["stdout"].encode())
            golden = self.golden[i] if self.golden else None
            reason = checks.check(op, self.expect[i], outcome, golden)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.failures) < MAX_LISTED:
                    self.failures.append({"pass": index, "op": i, "reason": reason})
        last = meter.totals
        wall_scale, cpu_scale = speed.scales(first, last)
        return {
            "wall": sum(op_wall),
            "op_wall": op_wall,
            "op_cpu": op_cpu,
            "stdout_bytes": stdout_bytes,
            "kernel_runs": last.runs - first.runs,
            "wall_scale": wall_scale,
            "cpu_scale": cpu_scale,
        }


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes for ``seconds``; with ``trace``, untraced and traced alternate.

    Without ``trace`` the passes run under a ``speed.Meter``.  Returns the
    passes, the per-layer figures and per-module self times of each traced
    pass, and the spans of each traced pass by pass index.
    """
    passes, layers, modules, spans = [], [], [], []
    start = time.perf_counter()
    with nullcontext() if trace else speed.Meter() as meter:
        while True:
            traced_pass = trace and len(passes) % 2 == 1
            if traced_pass:
                recorder = tracing.Recorder()
                with tracing.traced(runner.package, recorder):
                    result = runner.run_pass(len(passes), recorder)
                layers.append(tracing.layer_metrics(recorder.spans, result["stdout_bytes"]))
                modules.append(tracing.module_self_times(recorder.spans))
                spans.append((len(passes), recorder.spans))
            else:
                result = runner.run_pass(len(passes), meter=meter)
            result["traced"] = traced_pass
            passes.append(result)
            if trace and len(passes) < 2:
                continue
            cycle = passes[-2:] if trace else passes[-1:]
            if time.perf_counter() - start + sum(p["wall"] for p in cycle) > seconds:
                return passes, layers, modules, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = import_hanoilab()
    importlib.import_module("hanoilab.cli")  # the package does not import its CLI
    ops = workloads.operations(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untouched = tracing.originals(package)

    spec = json.load(sys.stdin)
    if spec["ops_sha256"] != ops_digest(ops):
        raise SystemExit("operation list differs from the one the expectations were built for")
    runner = Runner(package, ops, spec["expect"], spec["golden"])
    passes, layers, modules, spans = measure(runner, args.seconds, bool(args.trace))
    report = {
        "passes": passes,
        "layers": layers,
        "modules": modules,
        "restored": all(
            now is untouched[name] for name, now in tracing.originals(package).items()
        ),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spans:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as out:
            for index, recorded in spans:
                for span in recorded:
                    out.write(json.dumps([index, *span]) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
