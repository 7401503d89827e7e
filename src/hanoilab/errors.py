"""Shared exception types."""

from __future__ import annotations

import decimal


def render_count(value: int) -> str:
    """Decimal text of a positive count, or ``at least 10^e`` for counts
    too long for the int-to-str digit limit in force, with e the exact
    floor of log10(value)."""
    try:
        return str(value)
    except ValueError:
        return f"at least 10^{decimal.Decimal(value).adjusted()}"


def render_exact(value: int) -> str:
    """Exact decimal text of an int, also past CPython's int-to-str digit
    limit: ``decimal`` converts without going through ``int.__str__``."""
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


class HanoiError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HanoiError, ValueError):
    """An argument lies outside an operation's documented domain."""


class ResourceBudgetError(HanoiError):
    """A configured resource budget would be exceeded."""


class DiscLimitError(ResourceBudgetError):
    """Disc count above the solver's configured maximum."""

    def __init__(self, discs: int, limit: int) -> None:
        super().__init__(f"disc count {discs} exceeds the configured maximum {limit}")
        self.discs = discs
        self.limit = limit


class StateBudgetExceeded(ResourceBudgetError):
    """State space larger than the configured search budget.

    Raised before any allocation happens, never mid-search.
    """

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"search needs {render_count(required)} states, "
            f"budget is {render_count(budget)}"
        )
        self.required = required
        self.budget = budget


# Reason codes carried by IllegalMove.
NOT_TOP_DISC = "not-top-disc"
LARGER_ON_SMALLER = "larger-on-smaller"
WRONG_SOURCE_PEG = "wrong-source-peg"


class IllegalMove(HanoiError):
    """A move in a sequence breaks the stacking rules.

    ``step`` is 1-based; ``reason`` is one of NOT_TOP_DISC,
    LARGER_ON_SMALLER, WRONG_SOURCE_PEG.
    """

    def __init__(self, step: int, reason: str, detail: str = "") -> None:
        message = f"illegal move at step {step}: {reason}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.step = step
        self.reason = reason
