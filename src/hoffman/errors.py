"""Exception types shared across the library.

Every operational failure mode gets its own class so that callers (and the
CLI) can distinguish "the input is outside the supported regime" from "a
claimed inequality failed to verify".
"""


class HoffmanError(Exception):
    """Base class for all library-specific errors."""


class CliqueLimitExceeded(HoffmanError):
    """More maximal cliques exist than :data:`hoffman.graphs.MAX_CLIQUES`."""


class ConvergenceFailure(HoffmanError):
    """The floating eigensolver did not converge."""


class NotEquitable(HoffmanError):
    """A partition fails the equitability (constant row sum) check.

    Carries the offending ``(row, block_index)`` pair.
    """

    def __init__(self, row, block_index):
        self.row = row
        self.block_index = block_index
        super().__init__(
            f"row {row} has non-constant sum into block {block_index}"
        )


class IndexOutOfFamily(HoffmanError):
    """A matrix-family index (kind, a) lies outside the family's index set."""


class BoundViolation(HoffmanError):
    """A certified clique bound failed; the eigenvalue hypothesis cannot hold."""


class SearchBudgetExhausted(HoffmanError):
    """A search or scan would exceed its budget; no verdict is given."""


class NegativeIntersectionNumber(HoffmanError):
    """An intersection number evaluated to a negative value (infeasible)."""

    def __init__(self, kind, index, value):
        self.kind = kind
        self.index = index
        self.value = value
        super().__init__(f"{kind}_{index} = {value} < 0")


class OrderingViolation(HoffmanError):
    """The eigenvalue list is not strictly decreasing (infeasible parameters)."""


class IndexOutOfRange(HoffmanError):
    """A (i, h) index pair is invalid for the given diameter."""


class VerificationError(HoffmanError):
    """A claimed inequality or identity failed its exact verification."""
