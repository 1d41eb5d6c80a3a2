"""Shared exception types."""

from math import log10

_EXACT_DIGITS = 30


def _count_text(value: int) -> str:
    """A count in decimal, or as the power of ten at or below it once it has
    more than _EXACT_DIGITS digits (decimal conversion of a huge int is slow and
    capped by the interpreter)."""
    if value < 10**_EXACT_DIGITS:
        return str(value)
    digits = int((value.bit_length() - 1) * log10(2)) + 1
    while 10**digits <= value:
        digits += 1
    while 10 ** (digits - 1) > value:
        digits -= 1
    return f"at least 10^{digits - 1}"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured work budget."""

    def __init__(self, bound: int, budget: int, what: str):
        super().__init__(
            f"{what}: {_count_text(bound)} candidates exceed the budget of {_count_text(budget)}"
        )
        self.bound = bound
        self.budget = budget
        self.what = what


class HypergraphParseError(ValueError):
    """An input document does not describe a valid hypergraph."""
