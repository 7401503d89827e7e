import dataclasses
import decimal
import hashlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hanoilab.errors
import hanoilab.oracle
import hanoilab.tables
from hanoilab.cli import main
from hanoilab.errors import StateBudgetExceeded, render_count
from hanoilab.recurrences import HanoiSolver
from hanoilab.tables import REFERENCE, Table1Row


#: ``--help`` output of each command, pinned.
HELP = os.path.join(os.path.dirname(__file__), "help")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, int_max_str_digits=4300):
    """``python -m hanoilab`` in a fresh interpreter, by default with
    CPython's default int-to-str digit limit."""
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": str(int_max_str_digits)}
    return subprocess.run(
        [sys.executable, "-m", "hanoilab", *argv], capture_output=True, text=True, env=env
    )


class TestSolve:
    def test_all_splits(self, capsys):
        code, out, _ = run(capsys, "solve", "--pegs", "4", "--discs", "9", "--all-splits")
        assert code == 0
        assert "cost: 41" in out
        assert "canonical_split: 5" in out
        assert "splits: 5,6" in out

    def test_sixty_four_discs(self, capsys):
        code, out, _ = run(capsys, "solve", "--pegs", "3", "--discs", "64")
        assert code == 0
        assert "cost: 18446744073709551615" in out

    def test_single_disc_has_no_split(self, capsys):
        code, out, _ = run(capsys, "solve", "--pegs", "4", "--discs", "1")
        assert code == 0
        assert "cost: 1" in out
        assert "canonical_split" not in out

    def test_two_pegs_is_domain_error(self, capsys):
        code, _, err = run(capsys, "solve", "--pegs", "2", "--discs", "3")
        assert code == 1
        assert "pegs" in err

    def test_negative_discs(self, capsys):
        code, _, _ = run(capsys, "solve", "--pegs", "4", "--discs", "-1")
        assert code == 1

    def test_disc_ceiling_is_a_budget_error(self, capsys):
        code, _, err = run(capsys, "solve", "--pegs", "4", "--discs", "600")
        assert code == 3
        assert "maximum" in err

    def test_disc_ceiling_override(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--pegs", "4", "--discs", "600", "--max-discs", "1000"
        )
        assert code == 0
        assert "cost:" in out

    def test_cost_longer_than_the_int_to_str_limit(self):
        # 2**15000 - 1 has 4,516 digits, past CPython's 4,300-digit str() limit
        proc = run_module(
            "solve", "--pegs", "3", "--discs", "15000", "--max-discs", "15000"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["pegs: 3", "discs: 15000"]
        assert lines[2].startswith("cost: ")
        assert int(decimal.Decimal(lines[2][len("cost: "):])) == 2**15000 - 1

    def test_ceiling_via_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HANOILAB_MAX_DISCS", "4")
        code, _, _ = run(capsys, "solve", "--pegs", "4", "--discs", "5")
        assert code == 3

    def test_missing_flags(self, capsys):
        code, _, _ = run(capsys, "solve", "--pegs", "4")
        assert code == 1


class TestTable:
    def test_table1_reproduction(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "table1", "--from", "1", "--to", "15")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert lines[9] == "9,4,41,49,1.195"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "table1", "--from", "1", "--to", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,0,1,1,1.000"

    def test_extended_ratios(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "ratios", "--from", "16", "--to", "20")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "20,3.879"

    def test_growth_with_peg_list(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--kind", "growth", "--pegs", "3,4,5", "--from", "1", "--to", "15",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,t3,t4,t5"
        assert lines[7] == "7,127,25,19"

    @pytest.mark.parametrize("pegs", ["", "3,x"])
    def test_malformed_peg_list(self, capsys, pegs):
        code, _, err = run(capsys, "table", "--kind", "growth", "--pegs", pegs)
        assert code == 1
        assert "peg list" in err

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "table", "--kind", "table1", "--from", "5", "--to", "2")
        assert code == 1

    def test_half_open_range_flags(self, capsys):
        code, _, _ = run(capsys, "table", "--kind", "table1", "--from", "3")
        assert code == 1

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "table", "--kind", "everything")
        assert code == 1

    def test_growth_past_the_int_to_str_limit(self):
        proc = run_module(
            "table", "--kind", "growth", "--pegs", "3",
            "--from", "14990", "--to", "15000", "--max-discs", "15000",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = proc.stdout.splitlines()
        assert rows[0] == "n,t3" and len(rows) == 12
        n, cost = rows[-1].split(",")
        assert n == "15000"
        assert int(decimal.Decimal(cost)) == 2**15000 - 1

    def test_deltas_past_the_int_to_str_limit(self):
        # 2**14988 has 4,512 digits, past the default limit of 4,300
        proc = run_module(
            "table", "--kind", "deltas", "--from", "14990", "--to", "14990", "--max-discs", "15000"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = proc.stdout.splitlines()
        assert rows[0] == "n,k,delta" and len(rows) == 14989
        n, solver = 14990, HanoiSolver(max_discs=14990)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for k in (1, 2, 1000, 10_000, n - 2):
                # Delta(n, k) = fs_split(n, k+1) - fs_split(n, k), fs_split = 2 T_4(k) + 2^(n-k) - 1
                delta = 2 * (solver.cost(4, k + 1) - solver.cost(4, k)) - 2 ** (n - k - 1)
                assert rows[k] == f"{n},{k},{delta}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_deltas_under_a_lowered_int_to_str_limit(self, capsys):
        # 2**2198 has 662 digits: the same text as under the default limit
        argv = ["table", "--kind", "deltas", "--from", "2199", "--to", "2200", "--max-discs", "2200"]
        expected = run(capsys, *argv)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == expected
        assert expected[0] == 0 and expected[1].count("\n") == 1 + 2197 + 2198

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run(
            capsys,
            "table", "--kind", "ratios", "--from", "16", "--to", "16",
            "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text() == "n,rho\n16,1.994\n"

    def test_byte_identical_repeats(self, capsys):
        _, first, _ = run(capsys, "table", "--kind", "table1")
        _, second, _ = run(capsys, "table", "--kind", "table1")
        assert first == second

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--kind", "deltas", "--to", "600"], 1, "--from and --to must be given together"),
            (["--kind", "growth", "--to", "513"], 1, "--from and --to must be given together"),
            (["--kind", "deltas", "--from", "2"], 1, "--from and --to must be given together"),
            # a deltas row n asks T_4 up to n - 1, so the first row past the ceiling
            # always names the ceiling plus one, whatever --from and --to are
            (
                ["--kind", "deltas", "--from", "3", "--to", "600"],
                3,
                "disc count 513 exceeds the configured maximum 512",
            ),
            (
                ["--kind", "deltas", "--from", "600", "--to", "700"],
                3,
                "disc count 513 exceeds the configured maximum 512",
            ),
            (
                ["--max-discs", "100", "--kind", "deltas", "--from", "3", "--to", "150"],
                3,
                "disc count 101 exceeds the configured maximum 100",
            ),
            # growth names the first disc count past the ceiling
            (
                ["--kind", "growth", "--from", "1", "--to", "513"],
                3,
                "disc count 513 exceeds the configured maximum 512",
            ),
            (
                ["--kind", "growth", "--from", "600", "--to", "700"],
                3,
                "disc count 600 exceeds the configured maximum 512",
            ),
            (["--kind", "deltas", "--from", "2", "--to", "5"], 1, "delta rows start at n=3, got 2"),
            (["--kind", "deltas", "--from", "10", "--to", "5"], 1, "range start 10 exceeds stop 5"),
            (["--kind", "growth", "--from", "10", "--to", "5"], 1, "range start 10 exceeds stop 5"),
            (
                ["--kind", "growth", "--from", "-3", "--to", "5"],
                1,
                "need 0 <= start <= stop, got (-3, 5)",
            ),
            (["--kind", "growth", "--pegs", "2,4"], 1, "need at least 3 pegs, got 2"),
            (
                ["--kind", "growth", "--pegs", "2,4", "--from", "1", "--to", "600"],
                1,
                "need at least 3 pegs, got 2",
            ),
        ],
    )
    def test_refusals(self, capsys, argv, code, err):
        assert run(capsys, "table", *argv) == (code, "", f"hanoilab: {err}\n")

    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            (
                ["--kind", "deltas", "--from", "3", "--to", "512"],
                130306,
                "92329a6eabf68d6ec5f50243041efa930061aa83621f1d6a7974e51e522cb24f",
            ),
            (
                ["--kind", "deltas", "--from", "134", "--to", "164"],
                4558,
                "9376fcdfd7f8461dd9580627cfb9a1b8225d8c5f52b65480f43e153125dce96e",
            ),
            (
                ["--max-discs", "100", "--kind", "deltas", "--from", "3", "--to", "101"],
                4951,
                "d22e4b11679baf4ae36fb092c2b80b19a221fd3e8ec17fc7b1831933ecdc1247",
            ),
            (
                ["--kind", "growth", "--pegs", ",".join(map(str, range(3, 21))),
                 "--from", "1", "--to", "512"],
                513,
                "21902d6063576354323affcc3678a451f600788445e4def047031c64266d82fb",
            ),
            (
                ["--kind", "growth", "--pegs", "20,3,7,3", "--from", "0", "--to", "512"],
                514,
                "a592e28631f81e25c202cfa1211b8ba966ea21d745c035848b61012c889f2f0e",
            ),
        ],
    )
    def test_golden_tables(self, capsys, argv, lines, digest):
        code, out, err = run(capsys, "table", *argv)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class Sha256Stream:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)

    def flush(self):
        pass


#: (pegs, discs, strategy, sha256 of stdout, moves) of ``moves --verify``.
GOLDEN_MOVES = [
    (3, 18, "optimal", "c059e371b4b85a057cbc794b9a647e404c679095dc0293c2b6015f241b4977c5", 262143),
    (4, 80, "optimal", "587f132eb1b8790743e8845d9956f08cbd90972fd7d15d4c55cce0acec7fae5b", 53249),
    (4, 80, "fixed:68", "cafcae18c166d0d32876ea8964ee19bce9e9b73c4a9c3444fb45a63ddc73d77b", 53249),
    (5, 231, "optimal", "8708dc3daf9aa72a591201df82e1c2d572f91863db2c796771621ad0fe1d0afd", 58367),
    (5, 224, "fixed:163", "e6cd39c43d4b6622d36fd2ae8209e07e198994b6007e239b3a8492e77c6b6a75", 52223),
    (6, 469, "optimal", "5fdf3a4f7ee62959bbb0eecd3e6adebebec9ab55bdaef7bc849bca3859ba6f76", 58881),
    (6, 435, "fixed:277", "55703490999b9ccf398c5ea89c772e6e8efcc2140c4f2fd38a2e4452bcd540af", 50177),
    (5, 460, "optimal", "639b182a660a354565157dab258583b02b2c8c0a3c037589aad8f37659757866", 688127),
    (4, 150, "fixed:140", "aef8ebdd3627b99fa5c7186a39abba85647184549fb50b0c456f0f8a72de6cd2", 2491393),
    (7, 300, "optimal", "80bd8c28903dda0c10a6d17ddf653aefcfa8ac8d3727f1520616653a0e05abd9", 8575),
    (4, 20, "balanced", "595f8c58201eb91ee334299b6e50e43e2a24f1481b4267c895a984993e95c695", 1121),
    (8, 512, "fixed:500", "8fd2af77f6d6979560b7e9958330c7b4b83aab6215dafbc4294c67031111a965", 26149),
    (4, 80, "fixed:66", "c8f19b6c8e7fc16560d509fe4f307ef13baa0fa6c09a09f295651aa09560aff0", 57345),
    (5, 225, "optimal", "10b310d4d6182a0df6150be6279c35a93630612f9a909e781d273fb28febf2a6", 52223),
    (5, 224, "fixed:160", "4f346af3214dc53cdb02071bfb792328b9e2a8559cd5275452d418190d72067f", 53759),
    (6, 442, "optimal", "4666427fcf799a175367ad6108988872e2d38fb3b6b5e8a736420955ab9957e8", 51969),
    (6, 472, "fixed:324", "989aa9519654dfff64435bfeb1807ad7b26c07052c5a260e91f15ada4573bba5", 59649),
    (30, 20, "optimal", "ad67edd6ff4a02845e147f60a63d6ec500620d7c5d05c154d3acdc562dec4c38", 39),
    (1100, 1050, "optimal", "be2b6ed85bfa5c538f15f68d0bfc4c13c7aed7cbed0548f4964dae5d31fd5412", 2099,
     "--max-discs", "1050"),
]


class TestMoves:
    def test_three_disc_verified(self, capsys):
        code, out, err = run(capsys, "moves", "--pegs", "3", "--discs", "3", "--verify")
        assert code == 0
        assert len(out.splitlines()) == 8  # header + seven moves
        assert "verify: ok (7 moves)" in err

    def test_balanced_fifteen(self, capsys):
        code, out, _ = run(
            capsys,
            "moves", "--pegs", "4", "--discs", "15", "--strategy", "balanced", "--verify",
        )
        assert code == 0
        assert len(out.splitlines()) == 306

    def test_fixed_split(self, capsys):
        code, out, _ = run(
            capsys,
            "moves", "--pegs", "4", "--discs", "2", "--strategy", "fixed:1", "--verify",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["1,1,A,B", "2,2,A,D", "3,1,B,D"]

    def test_five_peg_verify(self, capsys):
        code, _, err = run(
            capsys, "moves", "--pegs", "5", "--discs", "8", "--verify"
        )
        assert code == 0
        assert "verify: ok (23 moves)" in err

    def test_inadmissible_fixed_split(self, capsys):
        code, _, _ = run(
            capsys, "moves", "--pegs", "4", "--discs", "5", "--strategy", "fixed:9"
        )
        assert code == 1

    def test_three_pegs_reject_balanced(self, capsys):
        code, _, _ = run(
            capsys, "moves", "--pegs", "3", "--discs", "4", "--strategy", "balanced"
        )
        assert code == 1

    def test_bad_strategy_spelling(self, capsys):
        code, _, _ = run(
            capsys, "moves", "--pegs", "4", "--discs", "4", "--strategy", "fixed=2"
        )
        assert code == 1

    def test_verification_failure_exits_two(self, capsys, monkeypatch):
        # force a wrong trace by dropping the last move of the stream the
        # command writes and checks
        import hanoilab.moves

        real = hanoilab.moves.trace_chunks

        def broken(*args, **kwargs):
            chunks = list(real(*args, **kwargs))
            chunks[-1] = chunks[-1][:-1]
            return iter(chunks)

        monkeypatch.setattr(hanoilab.moves, "trace_chunks", broken)
        code, out, err = run(capsys, "moves", "--pegs", "3", "--discs", "3", "--verify")
        assert code == 2
        assert "verify:" in err
        assert len(out.splitlines()) == 7  # header + the six moves left

    def test_memory_does_not_grow_with_the_trace(self):
        """``moves --verify`` holds a chunk, not the trace: 65,535 moves
        peak within 1 MiB of 255 moves."""

        class ByteCounter:
            def __init__(self):
                self.count = 0

            def write(self, text):
                self.count += len(text)
                return len(text)

            def flush(self):
                pass

        def peak(discs):
            out, err = ByteCounter(), ByteCounter()
            tracemalloc.start()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["moves", "--pegs", "3", "--discs", str(discs), "--verify"])
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert out.count > 8 * (2**discs - 1)  # every row was written
            return peak_bytes

        assert peak(16) - peak(8) < 1 << 20

    def test_trace_over_state_budget_exits_before_generating(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "moves", "--pegs", "3", "--discs", "30")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("budget, expected", [("7", 3), ("8", 0)])
    def test_trace_of_l_moves_needs_l_plus_one_states(self, capsys, budget, expected):
        code, out, _ = run(
            capsys, "moves", "--pegs", "3", "--discs", "3", "--state-budget", budget
        )
        assert code == expected
        assert len(out.splitlines()) == (8 if expected == 0 else 0)

    def test_wide_space_walks_without_recursion(self):
        """1,050 discs on 1,100 pegs split into a chain of 1,049 nested
        sub-solves, walked on the task stack in a fresh interpreter with
        the default recursion limit."""
        done = run_module(
            "moves", "--pegs", "1100", "--discs", "1050", "--max-discs", "1050", "--verify"
        )
        assert (done.returncode, done.stderr) == (0, "hanoilab: verify: ok (2099 moves)\n")
        assert len(done.stdout.splitlines()) == 2100

    @pytest.mark.parametrize(
        "pegs, discs, strategy, digest, moves, extra",
        [(*case[:5], case[5:]) for case in GOLDEN_MOVES],
        ids=[f"{pegs}-{discs}-{strategy}" for pegs, discs, strategy, *_ in GOLDEN_MOVES],
    )
    def test_output_is_pinned(self, pegs, discs, strategy, digest, moves, extra):
        """stdout (by sha256), stderr and exit code of ``moves --verify``,
        after any extra arguments.  The first twelve were recorded before
        sub-solves on four or more pegs were memoised: (3, 18), the seed-1
        traces of an older draw of the benchmark and a few longer, wider
        and forced-split ones.  The next five complete the benchmark's
        current seed-1 traces with (3, 18) and (4, 80).  The last two were
        recorded before the walk's plans dropped the pegs above n + 1 on
        boards with n <= p - 2."""
        out, err = Sha256Stream(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(
                ["moves", "--pegs", str(pegs), "--discs", str(discs), "--strategy", strategy,
                 *extra, "--verify"]
            )
        assert code == 0
        assert err.getvalue() == f"hanoilab: verify: ok ({moves} moves)\n"
        assert out.hash.hexdigest() == digest

    def test_disc_ceiling_holds_for_fixed_splits(self, capsys):
        code, out, err = run(
            capsys, "moves", "--pegs", "4", "--discs", "600", "--strategy", "fixed:300"
        )
        assert code == 3
        assert out == ""
        assert "maximum" in err


class TestOracle:
    def test_four_peg_sweep(self, capsys):
        code, out, _ = run(capsys, "oracle", "--pegs", "4", "--max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,distance,dp_cost,agree"
        assert lines[1] == "1,1,1,true"
        assert lines[6] == "6,17,17,true"

    def test_single_disc(self, capsys):
        code, out, _ = run(capsys, "oracle", "--pegs", "3", "--max", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,1,1,true"

    def test_metrics_columns(self, capsys):
        code, out, _ = run(capsys, "oracle", "--pegs", "3", "--max", "6", "--metrics")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,distance,dp_cost,agree,geodesics,states_explored"
        for line in lines[1:]:
            assert line.split(",")[4] == "1"  # unique geodesic per n

    @pytest.mark.parametrize("metrics", [(), ("--metrics",)], ids=["towers", "metrics"])
    def test_three_pegs_never_enter_layers(self, capsys, monkeypatch, metrics):
        # every three-peg search, pair or tower, runs the block kernel
        def no_layers(*args):
            raise AssertionError(f"_layers or _fold_tables entered for {args}")

        monkeypatch.setattr(hanoilab.oracle, "_layers", no_layers)
        monkeypatch.setattr(hanoilab.oracle, "_fold_tables", no_layers)
        code, out, err = run(capsys, "oracle", "--pegs", "3", "--max", "8", *metrics)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("8,255,255,true")

    def test_budget_exit(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--pegs", "4", "--max", "10", "--state-budget", str(4**3),
        )
        assert code == 3
        assert len(out.splitlines()) == 4  # header + the three affordable rows
        assert "skipped n=4" in err

    def test_budget_via_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HANOILAB_STATE_BUDGET", str(3**2))
        code, _, err = run(capsys, "oracle", "--pegs", "3", "--max", "3")
        assert code == 3
        assert "skipped n=3" in err

    def test_disc_ceiling_exits_three(self, capsys):
        code, out, err = run(capsys, "oracle", "--pegs", "4", "--max", "10", "--max-discs", "9")
        assert (code, out) == (3, "")
        assert err == "hanoilab: disc count 10 exceeds the configured maximum 9\n"

    @pytest.mark.parametrize(
        "pegs, top, budget", [(3, 8, None), (4, 7, None), (5, 5, None), (6, 5, None), (4, 8, 4**5)]
    )
    def test_rows_match_certify_range_without_a_full_bfs(
        self, capsys, monkeypatch, pegs, top, budget
    ):
        budget = budget or hanoilab.oracle.DEFAULT_STATE_BUDGET
        sweep = hanoilab.oracle.certify_range(pegs, top, state_budget=budget)
        rows = ["n,distance,dp_cost,agree"] + [
            f"{r.discs},{r.distance},{r.dp_cost},{'true' if r.agrees else 'false'}"
            for r in sweep.reports
        ]
        skips = [
            f"hanoilab: skipped n={s.discs}: needs {s.required} states, budget is {budget}"
            for s in sweep.skipped
        ]

        def full_bfs(*args, **kwargs):
            raise AssertionError("oracle without --metrics ran a full BFS")

        monkeypatch.setattr(hanoilab.oracle, "bfs_distance", full_bfs)
        code, out, err = run(
            capsys, "oracle", "--pegs", str(pegs), "--max", str(top), "--state-budget", str(budget)
        )
        assert (code, out.splitlines(), err.splitlines()) == (3 if skips else 0, rows, skips)
        assert len(rows) - 1 + len(skips) == top

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        def lying_search(pegs, discs, source, target):
            return 999, 1, 1, 1

        def lying_tower_rows(pegs, discs):
            return [(999, 1, 1, 1)] * (discs + 1)

        # the full BFS serves --metrics, one half-depth tower search the plain sweep
        monkeypatch.setattr(hanoilab.oracle, "_search", lying_search)
        monkeypatch.setattr(hanoilab.oracle, "_tower_rows", lying_tower_rows)
        for metrics in ((), ("--metrics",)):
            code, out, _ = run(capsys, "oracle", "--pegs", "3", "--max", "2", *metrics)
            assert code == 2
            assert "false" in out

    @pytest.mark.parametrize("pegs, top", [(4, 7), (5, 6), (6, 5), (3, 9)])
    def test_metrics_sweep_is_one_tower_search_and_one_ball_search(
        self, capsys, monkeypatch, pegs, top
    ):
        # the rows come from one tower search and, on p >= 4, the full balls from
        # one dense forward search run before it; on three pegs the full ball is
        # the whole space
        oracle = hanoilab.oracle
        expected = [
            f"{r.discs},{r.distance},{r.dp_cost},true,{r.geodesic_count},{r.states_explored}"
            for r in (oracle.bfs_distance(pegs, n) for n in range(1, top + 1))
        ]
        calls = []

        def counted(name):
            real = getattr(oracle, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(oracle, name, call)

        def no_pair_search(*args, **kwargs):
            raise AssertionError(f"a pair search ran for {args}")

        for name in ("_tower_rows", "_dense_layers", "_block_queue"):
            counted(name)
        for name in ("bfs_distance", "_search", "_neighbors"):
            monkeypatch.setattr(oracle, name, no_pair_search)
        code, out, err = run(capsys, "oracle", "--pegs", str(pegs), "--max", str(top), "--metrics")
        assert (code, out.splitlines()[1:], err) == (0, expected, "")
        if pegs == 3:
            assert calls == ["_tower_rows", "_block_queue"]
        else:
            assert calls == ["_dense_layers", "_tower_rows"]


class TestVerifyAll:
    def test_default_scales_pass(self, capsys):
        # trimmed budget keeps the sweep quick; references still fully checked
        code, out, _ = run(capsys, "verify-all", "--state-budget", str(3**10))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("references: 120 checked, 0 mismatches")
        assert lines[-1] == "PASS"
        assert any(line.startswith("oracle p=3: 10 certified") for line in lines)

    def test_partial_oracle_coverage_is_reported(self, capsys):
        code, out, err = run(capsys, "verify-all", "--state-budget", str(4**3))
        assert code == 0
        assert out.splitlines() == [
            "references: 120 checked, 0 mismatches",
            "oracle p=3: 3 certified, 0 disagreements, 7 skipped",
            "oracle p=4: 3 certified, 0 disagreements, 7 skipped",
            "PASS",
        ]
        assert err.splitlines() == [
            f"hanoilab: oracle p={pegs}: skipped n={n} "
            f"(needs {pegs**n} states, budget 64)"
            for pegs in (3, 4)
            for n in range(4, 11)
        ]

    def test_never_runs_a_full_bfs(self, capsys, monkeypatch):
        def full_bfs(*args, **kwargs):
            raise AssertionError("verify-all ran a full BFS")

        monkeypatch.setattr(hanoilab.oracle, "bfs_distance", full_bfs)
        monkeypatch.setattr(hanoilab.oracle, "certify_range", full_bfs)
        code, out, err = run(capsys, "verify-all")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "references: 120 checked, 0 mismatches",
            "oracle p=3: 10 certified, 0 disagreements, 0 skipped",
            "oracle p=4: 10 certified, 0 disagreements, 0 skipped",
            "PASS",
        ]

    def test_one_search_per_peg_count_and_no_layers_on_three_pegs(self, capsys, monkeypatch):
        # three-peg towers run the block kernel; each sweep is one search at n = 10
        tower_rows = hanoilab.oracle._tower_rows
        searches = []

        def four_pegs_only(name):
            real = getattr(hanoilab.oracle, name)

            def checked(pegs, *args):
                assert pegs != 3, f"{name} entered for {(pegs, *args)}"
                return real(pegs, *args)

            monkeypatch.setattr(hanoilab.oracle, name, checked)

        def counted(pegs, discs):
            searches.append((pegs, discs))
            return tower_rows(pegs, discs)

        four_pegs_only("_layers")
        four_pegs_only("_fold_tables")
        monkeypatch.setattr(hanoilab.oracle, "_tower_rows", counted)
        code, out, err = run(capsys, "verify-all")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:3] == [
            "oracle p=3: 10 certified, 0 disagreements, 0 skipped",
            "oracle p=4: 10 certified, 0 disagreements, 0 skipped",
        ]
        assert searches == [(3, 10), (4, 10)]

    def test_corrupted_reference_fails(self, capsys, monkeypatch):
        bad_rows = list(REFERENCE.table1_rows)
        bad_rows[0] = Table1Row(1, 0, 1, 2, "2.000")
        corrupted = dataclasses.replace(REFERENCE, table1_rows=tuple(bad_rows))
        monkeypatch.setattr(hanoilab.tables, "REFERENCE", corrupted)
        code, out, _ = run(capsys, "verify-all", "--state-budget", str(3**6))
        assert code == 2
        assert out.splitlines()[-1] == "FAIL"
        assert "table1[1]" in out


class TestCommandLineSurface:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "emit")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_import_loads_no_statistics_fractions_or_decimal(self):
        # each is imported by the one function that needs it
        code = (
            "import sys, hanoilab.cli, hanoilab.moves, hanoilab.oracle, hanoilab.tables; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_import_loads_no_submodule(self):
        code = "import sys, hanoilab; print(sorted(m for m in sys.modules if 'hanoilab' in m))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['hanoilab']\n", "")

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["solve", "--pegs", "4", "--discs", "9"], []),
            (["table", "--kind", "table1"], ["tables"]),
            (["moves", "--pegs", "4", "--discs", "5", "--verify"], ["moves"]),
            (["oracle", "--pegs", "4", "--max", "5"], ["oracle"]),
            (["verify-all", "--state-budget", str(4**6)], ["oracle", "tables"]),
        ],
        ids=["solve", "table", "moves", "oracle", "verify-all"],
    )
    def test_each_command_loads_only_what_it_runs(self, argv, extra):
        # in a fresh process: the package, its CLI, errors and the solver,
        # plus the modules the handler imports
        code = (
            "import contextlib, io, sys; from hanoilab.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if 'hanoilab' in m))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        loaded = ["cli", "errors", "recurrences", *extra]
        expected = f"0 {['hanoilab'] + sorted('hanoilab.' + m for m in loaded)}\n"
        assert (proc.returncode, proc.stdout) == (0, expected)

    @pytest.mark.parametrize("command", ["hanoilab", "solve", "table", "moves", "oracle", "verify-all"])
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        # pinned at 80 columns: the help text reads its defaults from errors and
        # recurrences, not from the modules each handler imports
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if command == "hanoilab" else [command]
        code, out, _ = run(capsys, *argv, "--help")
        with open(os.path.join(HELP, f"{command}.txt"), encoding="utf-8") as pinned:
            assert (code, out) == (0, pinned.read())

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "hanoilab", "solve", "--pegs", "4", "--discs", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "cost: 5" in proc.stdout

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 100000**900 = 10**4500: past CPython's 4,300-digit str() limit
            (
                ["oracle", "--pegs", "100000", "--max", "900", "--state-budget", "10"],
                "skipped n=900: needs at least 10^4500 states, budget is 10",
            ),
            (
                ["moves", "--pegs", "3", "--discs", "20000", "--max-discs", "20000"],
                "search needs at least 10^6020 states",
            ),
        ],
        ids=["oracle", "moves"],
    )
    def test_sizes_too_long_to_print_exit_three(self, argv, message):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "hanoilab", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 100000**128 = 10**640 has 641 digits
            (
                ["oracle", "--pegs", "100000", "--max", "150", "--state-budget", "10"],
                "skipped n=128: needs at least 10^640 states, budget is 10",
            ),
            # 2**3000 has 904 digits
            (
                ["moves", "--pegs", "3", "--discs", "3000", "--max-discs", "3000"],
                "search needs at least 10^903 states",
            ),
        ],
        ids=["oracle", "moves"],
    )
    def test_lowered_int_to_str_limit_exits_three(self, argv, message):
        proc = run_module(*argv, int_max_str_digits=640)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_counts_within_the_int_to_str_limit_print_exactly(self):
        proc = run_module("oracle", "--pegs", "100000", "--max", "860", "--state-budget", "10")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 860
        for n in (1, 783, 859):  # 5n + 1 digits, up to 4,296
            assert lines[n - 1] == f"hanoilab: skipped n={n}: needs 1{'0' * (5 * n)} states, budget is 10"
        assert lines[-1] == "hanoilab: skipped n=860: needs at least 10^4300 states, budget is 10"

    def test_exponent_past_the_limit_matches_decimal(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for k in [*range(641, 700), 1_000, 4_817, 12_041]:
                for value in (10**k - 1, 10**k, 10**k + 1, 2**k, 2**k - 1):
                    if len(str(decimal.Decimal(value))) > 640:
                        expected = f"at least 10^{decimal.Decimal(value).adjusted()}"
                        assert render_count(value) == expected
        finally:
            sys.set_int_max_str_digits(limit)

    def test_budget_message_is_built_only_when_read(self, monkeypatch):
        def no_render(value):
            raise AssertionError("count rendered")

        monkeypatch.setattr(hanoilab.errors, "render_count", no_render)
        exc = StateBudgetExceeded(4**20_000, 10)
        assert (exc.required, exc.budget) == (4**20_000, 10)
        monkeypatch.undo()
        assert str(exc) == "search needs at least 10^12041 states, budget is 10"


#: Boundary ints for the grammar fuzz: negative, zero, one, small, and
#: huge ones that no list can be sized by.  Values in between, which a
#: run might try to allocate, are left out.
_EDGES = [-1, 0, 1, 2, 3, 4, 5, 2**63, 10**30]


def _draw_argv(data) -> list[str]:
    """A command line of the CLI grammar: a subcommand or none, and each
    of its flags or not, with edge values and a few malformed ones."""
    draw = data.draw

    def number(values=_EDGES):
        return str(draw(st.sampled_from([*values, "x", "1.5"])))

    command = draw(st.sampled_from(["solve", "table", "moves", "oracle", "verify-all", "sing", None]))
    if command is None:
        return draw(st.sampled_from([[], ["--help"], ["--pegs", "3"]]))
    flags = {
        "solve": [("--pegs", number), ("--discs", number), ("--all-splits", None)],
        "table": [
            ("--kind", lambda: draw(st.sampled_from(["table1", "growth", "ratios", "deltas", "pie"]))),
            ("--from", number),
            ("--to", number),
            ("--pegs", lambda: draw(st.sampled_from(["3,4,5", "4", "", "3,,4", "0,3", "x", str(10**30)]))),
        ],
        "moves": [
            ("--pegs", number),
            ("--discs", lambda: number([*_EDGES, 12])),
            ("--strategy", lambda: draw(st.sampled_from(
                ["optimal", "balanced", "fixed:1", "fixed:2", "fixed:0", "fixed:", "fixed:x", "fast"]
            ))),
            ("--verify", None),
        ],
        "oracle": [
            ("--pegs", number),
            ("--max", lambda: number([-1, 0, 1, 2, 3, 5])),  # a sweep lists every n up to --max
            ("--metrics", None),
        ],
        "verify-all": [],
        "sing": [],
    }[command] + [
        ("--max-discs", lambda: number([-1, 0, 1, 2, 3, 12, 512])),
        ("--state-budget", number),
    ]
    argv = [command]
    for flag, value in flags:
        if draw(st.booleans()):
            argv += [flag] if value is None else [flag, value()]
    return argv


class TestCommandLineGrammar:
    """No command line ends in a traceback: whatever the subcommand, flags,
    environment and int-to-str digit limit, ``main`` returns 0, 1, 2 or 3,
    and a non-zero exit says why on a ``hanoilab:`` line of stderr."""

    @given(st.data())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_every_exit_is_a_known_code(self, data):
        argv = _draw_argv(data)
        values = [None, "", "x", "-1", "0", "1", "3", "600"]
        env = {
            name: value
            for name, value in (
                ("HANOILAB_MAX_DISCS", data.draw(st.sampled_from(values), label="max discs")),
                ("HANOILAB_STATE_BUDGET", data.draw(st.sampled_from([*values, str(10**30)]), label="budget")),
            )
            if value is not None
        }
        digits = data.draw(st.sampled_from([None, 640, 1000]), label="int max str digits")
        out, err = io.StringIO(), io.StringIO()
        limit = sys.get_int_max_str_digits()
        try:
            with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
                if digits is not None:
                    sys.set_int_max_str_digits(digits)
                code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code in (0, 1, 2, 3), (argv, env, digits)
        if code:
            assert any(line.startswith("hanoilab:") for line in err.getvalue().splitlines()), (
                argv, env, digits, err.getvalue()
            )

    def test_usage_errors_end_in_a_hanoilab_line(self, capsys):
        code, out, err = run(capsys, "moves", "--pegs", "x", "--discs", "3")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "hanoilab: moves: error: argument --pegs: invalid int value: 'x'"
        code, _, err = run(capsys, "sing")
        assert code == 1 and err.splitlines()[-1].startswith("hanoilab: error: argument command")

    def test_peg_count_past_the_index_range(self, capsys):
        """2**63 pegs cannot size the replay's list of peg tops."""
        for discs in ("0", "3"):
            code, out, err = run(capsys, "moves", "--pegs", str(2**63), "--discs", discs, "--verify")
            assert (code, err) == (
                3, "hanoilab: size too large: cannot fit 'int' into an index-sized integer\n"
            )

    @pytest.mark.parametrize("metrics", [[], ["--metrics"]])
    def test_search_past_this_machine(self, capsys, metrics):
        """A one-disc space of 2**63 states that the budget admits."""
        huge = str(2**63)
        code, _, err = run(capsys, "oracle", "--pegs", huge, "--max", "1", "--state-budget", huge, *metrics)
        assert code == 3 and err.splitlines()[-1] in (
            "hanoilab: out of memory", "hanoilab: size too large: cannot fit 'int' into an index-sized integer"
        )
