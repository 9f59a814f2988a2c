"""Exception types shared across the package."""


class InvalidDegreeSequenceError(ValueError):
    """Raised when an internal degree sequence fails validation."""


class InvalidTreeError(ValueError):
    """Raised when a vertex/edge description fails tree validation."""


class StaleSwapError(ValueError):
    """Raised when a swap's removed edges are not present in the tree."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more trees than allowed."""

    def __init__(self, count: int, budget: int):
        try:
            size = str(count)
        except ValueError:  # past str()'s digit limit; 0.301029995 < log10(2)
            size = f"at least 10^{(count.bit_length() - 1) * 301029995 // 10**9}"
        super().__init__(f"enumeration of {size} labeled trees exceeds budget {budget}")
        self.count = count
        self.budget = budget


class StepLimitError(RuntimeError):
    """Raised when local search runs past its step guard.

    Each swap strictly decreases the index, so hitting the guard means a
    bug (a cycle or a non-improving move), not a slow instance.
    """
