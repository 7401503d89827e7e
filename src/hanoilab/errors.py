"""Shared exception types."""

from __future__ import annotations

import math

_LOG10_2 = math.log10(2)


def render_count(value: int) -> str:
    """Decimal text of a positive count, or ``at least 10^e`` for counts
    too long for the int-to-str digit limit in force, with e the exact
    floor of log10(value).

    The value lies in [2**(b-1), 2**b) for b its bit length, so
    floor(b * log10 2) is e or e + 1, and one comparison with a power of
    ten tells which; ``decimal`` would convert every digit.
    """
    try:
        return str(value)
    except ValueError:
        exponent = int(value.bit_length() * _LOG10_2)
        if value < 10**exponent:
            exponent -= 1
        return f"at least 10^{exponent}"


def render_exact(value: int) -> str:
    """Exact decimal text of an int, also past CPython's int-to-str digit
    limit: ``decimal`` converts without going through ``int.__str__``."""
    try:
        return str(value)
    except ValueError:
        import decimal

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

    Raised before any allocation happens, never mid-search.  The message
    is built only when asked for: a budget sweep catches one refusal per
    disc count and reads only the two fields.
    """

    def __init__(self, required: int, budget: int) -> None:
        super().__init__()
        self.required = required
        self.budget = budget

    def __str__(self) -> str:
        return (
            f"search needs {render_count(self.required)} states, "
            f"budget is {render_count(self.budget)}"
        )


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
