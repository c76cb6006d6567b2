"""Exception taxonomy shared by all modules.

The CLI maps these onto its stable exit codes: usage/precondition
problems exit 2, mathematical-domain violations exit 3.  Exit 1 is not
an exception: it means only that an `oracle-check` verdict failed.
"""


class DomainError(ValueError):
    """Input violates a mathematical domain requirement (e.g. N <= 0, non-PSD weight)."""


class PreconditionError(ValueError):
    """A run precondition cannot be satisfied (e.g. a Fock cutoff above the oracle's limit)."""
