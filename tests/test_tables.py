import csv
import dataclasses
import io

import pytest

from hanoilab.errors import DomainError
from hanoilab.recurrences import (
    HanoiSolver,
    delta_k,
    fs_split,
    growth_table,
    sensitivity_profile,
)
from hanoilab.tables import (
    REFERENCE,
    Table1Row,
    emit_table,
    verify_against_references,
)


class TestReferenceData:
    def test_internal_consistency(self):
        # every stored row follows from its own t4 column and the closed form
        t4 = {n: v for n, v in enumerate(REFERENCE.a007664_prefix, 1)}
        t4[0] = 0
        for row in REFERENCE.table1_rows:
            k = row.n // 2
            assert row.k == k
            assert row.t4 == t4[row.n]
            assert row.fs_balanced == 2 * t4[k] + (1 << (row.n - k)) - 1

    def test_prefix_lengths(self):
        assert len(REFERENCE.a000225_prefix) == 20
        assert len(REFERENCE.a007664_prefix) == 20
        assert len(REFERENCE.table1_rows) == 15
        assert len(REFERENCE.t5_figure3) == 15

    def test_extended_ratio_anchors(self):
        assert REFERENCE.extended_ratios[-1] == (20, "3.879")


class TestVerification:
    def test_full_run_passes(self, solver):
        report = verify_against_references(solver=solver)
        assert report.passed
        assert not report.mismatches
        # 20 + 20 from the sequence prefixes, 4 per table row, 5 ratios, 15 t5
        assert len(report.entries) == 20 + 20 + 4 * 15 + 5 + 15

    def test_named_entries(self, solver):
        report = verify_against_references(solver=solver)
        by_name = {entry.name: entry for entry in report.entries}
        assert by_name["table1[15].rho"].expected == "2.364"
        assert by_name["table1[15].rho"].match
        assert by_name["a000225[20]"].computed == 2**20 - 1

    def test_deterministic(self, solver):
        assert verify_against_references(solver=solver) == verify_against_references(
            solver=solver
        )

    def test_corrupted_reference_is_reported(self, solver):
        bad_rows = list(REFERENCE.table1_rows)
        bad_rows[8] = Table1Row(9, 4, 41, 49, "1.190")
        corrupted = dataclasses.replace(REFERENCE, table1_rows=tuple(bad_rows))
        report = verify_against_references(corrupted, solver=solver)
        assert not report.passed
        assert [entry.name for entry in report.mismatches] == ["table1[9].rho"]


class TestEmission:
    def test_table1_default_range(self, solver):
        text = emit_table("table1", solver=solver)
        lines = text.splitlines()
        assert lines[0] == "n,k,t4,fs_balanced,rho"
        assert len(lines) == 16
        assert lines[9] == "9,4,41,49,1.195"
        assert lines[15] == "15,7,129,305,2.364"
        assert text.endswith("\n") and "\r" not in text

    def test_table1_matches_embedded_rows_when_reparsed(self, solver):
        text = emit_table("table1", solver=solver)
        rows = list(csv.DictReader(io.StringIO(text)))
        parsed = tuple(
            Table1Row(
                int(r["n"]), int(r["k"]), int(r["t4"]), int(r["fs_balanced"]), r["rho"]
            )
            for r in rows
        )
        assert parsed == REFERENCE.table1_rows

    def test_single_row(self, solver):
        assert emit_table("table1", (1, 1), solver=solver) == (
            "n,k,t4,fs_balanced,rho\n1,0,1,1,1.000\n"
        )

    def test_ratios_default_range(self, solver):
        text = emit_table("ratios", solver=solver)
        lines = text.splitlines()
        assert lines[0] == "n,rho"
        assert lines[1:] == ["16,1.994", "17,2.990", "18,2.636", "19,4.300", "20,3.879"]

    def test_ratios_extended_alias(self, solver):
        assert emit_table("ratios_extended", solver=solver) == emit_table(
            "ratios", solver=solver
        )

    def test_growth_matches_reference_curves(self, solver):
        text = emit_table("growth", solver=solver)
        lines = text.splitlines()
        assert lines[0] == "n,t3,t4,t5"
        assert lines[15] == "15,32767,129,71"
        for i, line in enumerate(lines[1:]):
            n = i + 1
            expected = (
                f"{n},{REFERENCE.a000225_prefix[i]},"
                f"{REFERENCE.a007664_prefix[i]},{REFERENCE.t5_figure3[i]}"
            )
            assert line == expected

    def test_deltas_single_row(self, solver):
        assert emit_table("deltas", (3, 3), solver=solver) == "n,k,delta\n3,1,2\n"

    def test_deltas_row_count(self, solver):
        lines = emit_table("deltas", (3, 10), solver=solver).splitlines()
        assert len(lines) - 1 == sum(n - 2 for n in range(3, 11))

    def test_sink_receives_the_same_bytes(self, solver):
        sink = io.StringIO()
        text = emit_table("table1", (1, 3), sink=sink, solver=solver)
        assert sink.getvalue() == text

    def test_file_sink(self, tmp_path, solver):
        out = tmp_path / "growth.csv"
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            emit_table("growth", (1, 2), sink=handle, solver=solver)
        assert out.read_text() == "n,t3,t4,t5\n1,1,1,1\n2,3,3,3\n"

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            emit_table("summary")

    def test_growth_needs_a_peg_count(self):
        with pytest.raises(DomainError):
            emit_table("growth", (0, 2), pegs=())

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            emit_table("table1", (5, 2))
        with pytest.raises(DomainError):
            emit_table("table1", (0, 3))
        with pytest.raises(DomainError):
            emit_table("deltas", (2, 5))

    def test_repeated_emission_is_byte_identical(self, solver):
        assert emit_table("table1", solver=solver) == emit_table("table1", solver=solver)


def split_step(n, k, solver):
    """Delta(n, k) as the difference of two split costs, the definition."""
    return fs_split(n, k + 1, solver) - fs_split(n, k, solver)


def reference_deltas(lo, hi, solver):
    """The deltas CSV from one ``fs_split`` difference per row."""
    rows = ["n,k,delta"]
    rows += [
        f"{n},{k},{split_step(n, k, solver)}" for n in range(lo, hi + 1) for k in range(1, n - 1)
    ]
    return "\n".join(rows) + "\n"


def reference_growth_rows(pegs, lo, hi, solver):
    """Growth rows from one ``cost`` call per cell."""
    wanted = sorted(set(pegs))
    return [(n, tuple(solver.cost(p, n) for p in wanted)) for n in range(lo, hi + 1)]


class TestDirectReads:
    """Deltas and growth rows read from the solver's exponent and cost
    lists give the same bytes and fields as the per-row split costs and
    per-cell ``cost`` calls they replace."""

    @pytest.mark.parametrize("lo, hi", [(3, 3), (3, 4), (134, 164), (480, 512)])
    def test_deltas_csv(self, solver, lo, hi):
        expected = reference_deltas(lo, hi, solver)
        assert emit_table("deltas", (lo, hi), solver=solver) == expected
        assert emit_table("deltas", (lo, hi), solver=HanoiSolver()) == expected

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 134, 257, 512])
    def test_every_profile_and_delta_field(self, solver, n):
        values = [split_step(n, k, solver) for k in range(1, n - 1)]
        signs = [v > 0 for v in values if v != 0]
        profile = sensitivity_profile(n, HanoiSolver())
        assert profile.discs == n
        assert profile.sign_changes == sum(a != b for a, b in zip(signs, signs[1:]))
        assert [(d.discs, d.split, d.delta) for d in profile.deltas] == [
            (n, k, v) for k, v in enumerate(values, 1)
        ]
        for k, v in enumerate(values, 1):
            d = delta_k(n, k, solver)
            assert (d.discs, d.split, d.delta) == (n, k, v)
        assert profile == sensitivity_profile(n, solver)

    @pytest.mark.parametrize("pegs", [(20, 3, 7, 3), (5, 20, 4, 3, 20, 11)])
    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 40), (17, 17), (0, 512), (512, 512)])
    def test_growth_rows_and_csv(self, solver, pegs, lo, hi):
        expected = reference_growth_rows(pegs, lo, hi, solver)
        for session in (solver, HanoiSolver()):
            rows = growth_table(pegs, (lo, hi), session)
            assert [(row.discs, row.costs) for row in rows] == expected
            header = "n," + ",".join(f"t{p}" for p in sorted(set(pegs)))
            body = [f"{n}," + ",".join(map(str, costs)) for n, costs in expected]
            assert emit_table("growth", (lo, hi), pegs=pegs, solver=session) == (
                "\n".join([header, *body]) + "\n"
            )
