"""Embedded reference data, regression comparison, and CSV emission.

The reference values are regression anchors: the solver output is
primary, and :func:`verify_against_references` recomputes every anchor
to guard against transcription drift.  CSV output is fully pinned down
(comma separator, dot decimal point, LF endings, header always present)
so byte-exact golden testing works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

from .errors import DomainError, render_exact
from .recurrences import (
    HanoiSolver,
    _resolve,
    _split_steps,
    balanced_fs,
    growth_table,
    ratio_rho,
    t3_closed,
)


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One reference row: n, balanced split, optimum, balanced cost, ratio."""

    n: int
    k: int
    t4: int
    fs_balanced: int
    rho: str


@dataclass(frozen=True, slots=True)
class ReferenceSet:
    """Immutable embedded reference values.

    ``a000225_prefix`` and ``a007664_prefix`` are the first 20 terms of
    the three- and four-peg optimal-cost sequences.  ``table1_rows``
    carries the published balanced-versus-optimal table for n <= 15,
    ``extended_ratios`` the five ratios that follow it, and
    ``t5_figure3`` the five-peg growth-curve values for n <= 15.
    """

    version: str
    a000225_prefix: tuple[int, ...]
    a007664_prefix: tuple[int, ...]
    table1_rows: tuple[Table1Row, ...]
    extended_ratios: tuple[tuple[int, str], ...]
    t5_figure3: tuple[int, ...]


REFERENCE = ReferenceSet(
    version="1",
    a000225_prefix=tuple((1 << n) - 1 for n in range(1, 21)),
    a007664_prefix=(
        1, 3, 5, 9, 13, 17, 25, 33, 41, 49,
        65, 81, 97, 113, 129, 161, 193, 225, 257, 289,
    ),
    table1_rows=(
        Table1Row(1, 0, 1, 1, "1.000"),
        Table1Row(2, 1, 3, 3, "1.000"),
        Table1Row(3, 1, 5, 5, "1.000"),
        Table1Row(4, 2, 9, 9, "1.000"),
        Table1Row(5, 2, 13, 13, "1.000"),
        Table1Row(6, 3, 17, 17, "1.000"),
        Table1Row(7, 3, 25, 25, "1.000"),
        Table1Row(8, 4, 33, 33, "1.000"),
        Table1Row(9, 4, 41, 49, "1.195"),
        Table1Row(10, 5, 49, 57, "1.163"),
        Table1Row(11, 5, 65, 89, "1.369"),
        Table1Row(12, 6, 81, 97, "1.198"),
        Table1Row(13, 6, 97, 161, "1.660"),
        Table1Row(14, 7, 113, 177, "1.566"),
        Table1Row(15, 7, 129, 305, "2.364"),
    ),
    extended_ratios=(
        (16, "1.994"),
        (17, "2.990"),
        (18, "2.636"),
        (19, "4.300"),
        (20, "3.879"),
    ),
    t5_figure3=(1, 3, 5, 7, 11, 15, 19, 23, 27, 31, 39, 47, 55, 63, 71),
)


@dataclass(frozen=True, slots=True)
class ComparisonEntry:
    name: str
    expected: object
    computed: object
    match: bool


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]

    @property
    def passed(self) -> bool:
        return all(entry.match for entry in self.entries)

    @property
    def mismatches(self) -> tuple[ComparisonEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.match)


def verify_against_references(
    reference: ReferenceSet | None = None,
    solver: HanoiSolver | None = None,
) -> ComparisonReport:
    """Recompute every embedded value and report exact equality.

    Mismatches become report entries, never exceptions.
    """
    ref = REFERENCE if reference is None else reference
    s = _resolve(solver)
    entries: list[ComparisonEntry] = []

    def check(name: str, expected: object, computed: object) -> None:
        entries.append(ComparisonEntry(name, expected, computed, expected == computed))

    for i, expected in enumerate(ref.a000225_prefix):
        n = i + 1
        check(f"a000225[{n}]", expected, t3_closed(n))
    for i, expected in enumerate(ref.a007664_prefix):
        n = i + 1
        check(f"a007664[{n}]", expected, s.cost(4, n))
    for row in ref.table1_rows:
        check(f"table1[{row.n}].k", row.k, row.n // 2)
        check(f"table1[{row.n}].t4", row.t4, s.cost(4, row.n))
        check(f"table1[{row.n}].fs", row.fs_balanced, balanced_fs(row.n, s))
        check(f"table1[{row.n}].rho", row.rho, ratio_rho(row.n, s).rendered)
    for n, expected in ref.extended_ratios:
        check(f"rho[{n}]", expected, ratio_rho(n, s).rendered)
    for i, expected in enumerate(ref.t5_figure3):
        n = i + 1
        check(f"t5[{n}]", expected, s.cost(5, n))
    return ComparisonReport(tuple(entries))


_DEFAULT_RANGES = {
    "table1": (1, 15),
    "ratios": (16, 20),
    "growth": (1, 15),
    "deltas": (3, 15),
}


def emit_table(
    kind: str,
    n_range: tuple[int, int] | None = None,
    pegs: tuple[int, ...] = (3, 4, 5),
    sink: TextIO | None = None,
    solver: HanoiSolver | None = None,
) -> str:
    """Render one of the reference tables as CSV.

    Kinds: ``table1`` (n,k,t4,fs_balanced,rho), ``ratios`` (n,rho),
    ``growth`` (n plus one cost column per requested peg count,
    ascending), ``deltas`` (n,k,delta for every admissible split).  The
    text is returned and, when ``sink`` is given, written to it as well.

    Both data kinds read the solver's lists directly.  A ``growth`` row
    is one cost read per peg count (see
    :func:`~hanoilab.recurrences.growth_table`).  A ``deltas`` row renders
    Delta(n, k) = 2**(1 + t_4(k+1)) - 2**(n-k-1) for k = 1 .. n-2,
    each entry one exponent read and two shifts, O(1) per entry and O(n)
    per row.  A row with a delta too long for the int-to-str digit limit
    in force is rendered through :func:`~hanoilab.errors.render_exact`.
    """
    if kind == "ratios_extended":
        kind = "ratios"
    if kind not in _DEFAULT_RANGES:
        raise DomainError(f"unknown table kind {kind!r}")
    lo, hi = n_range if n_range is not None else _DEFAULT_RANGES[kind]
    if lo > hi:
        raise DomainError(f"range start {lo} exceeds stop {hi}")
    s = _resolve(solver)

    lines: list[str]
    if kind == "table1":
        if lo < 1:
            raise DomainError(f"table1 rows start at n=1, got {lo}")
        lines = ["n,k,t4,fs_balanced,rho"]
        for n in range(lo, hi + 1):
            rho = ratio_rho(n, s)
            lines.append(f"{n},{n // 2},{rho.denominator},{rho.numerator},{rho.rendered}")
    elif kind == "ratios":
        if lo < 1:
            raise DomainError(f"ratio rows start at n=1, got {lo}")
        lines = ["n,rho"]
        for n in range(lo, hi + 1):
            lines.append(f"{n},{ratio_rho(n, s).rendered}")
    elif kind == "growth":
        rows = growth_table(pegs, (lo, hi), s)
        lines = ["n," + ",".join(f"t{p}" for p in sorted(set(pegs)))]
        lines += [f"{row.discs}," + ",".join(map(render_exact, row.costs)) for row in rows]
    else:  # deltas
        if lo < 3:
            raise DomainError(f"delta rows start at n=3, got {lo}")
        lines = ["n,k,delta"]
        for n in range(lo, hi + 1):
            row = _split_steps(s, n, 1, n - 2)
            try:
                lines += [f"{n},{k},{delta}" for k, delta in enumerate(row, 1)]
            except ValueError:  # a delta longer than the int-to-str digit limit
                lines += [f"{n},{k},{render_exact(delta)}" for k, delta in enumerate(row, 1)]

    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text
