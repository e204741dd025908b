"""Error types shared across the package, and the one integer rule.

DomainError covers every precondition violation (bad vertex, shape mismatch,
unstable subspaces, ...).  BudgetError signals that a finite-field enumeration
would exceed its configured tuple budget, or that an object built from a size
alone would exceed the ceiling of DEFAULT_BUDGET entries (``check_ceiling``,
the one such check); it carries the estimate so callers can report it.
``integer`` is how every entry point takes an integer: a float, a Fraction or
a string is refused with DomainError, never truncated.
"""

from operator import index

DEFAULT_BUDGET = 10_000_000


class DomainError(ValueError):
    pass


class BudgetError(RuntimeError):
    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def check_ceiling(size, what, *args):
    """BudgetError, with size as its estimate, when an object built from a
    size alone would hold more than DEFAULT_BUDGET entries; what.format(*args)
    names it in the message, formatted only then."""
    if size > DEFAULT_BUDGET:
        raise BudgetError(f"{what.format(*args)} would hold {size} entries, "
                          f"over the ceiling {DEFAULT_BUDGET}", size)


def integer(x, what):
    """x as an int by ``operator.index``, else DomainError naming ``what``."""
    try:
        return index(x)
    except TypeError:
        raise DomainError(f"{what} must be integers, got {x!r}") from None
