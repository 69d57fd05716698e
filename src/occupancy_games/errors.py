"""Exception types shared across the package."""

from __future__ import annotations


class OccupancyGamesError(Exception):
    """Base class for all package errors."""


class PosgParseError(OccupancyGamesError):
    """Raised on malformed ``.posg`` input.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


class ModelValidationError(OccupancyGamesError):
    """Raised when a parsed model violates a structural invariant."""


# the byte budget of the solvers', exact evaluation's and simulate's arrays
CAP_BYTES = 2**30
# what a walk holds besides the arrays a byte count counts item by item
# (per-level trie rows, headers, scratch): it outweighs them on small walks (tiger-zs's
# whole-trie zero-sum walk peaks at 24 KB at h=2 against 16 KB counted)
WALK_FIXED_BYTES = 2**17


class CapExceededError(OccupancyGamesError):
    """Raised when an enumeration, or the bytes a solver would build, would
    exceed the configured cap; ``unit`` follows both numbers."""

    def __init__(self, what: str, count: int, cap: int, unit: str = ""):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} too large: {count}{unit} exceeds cap {cap}{unit}")


class UnreachableHistoryError(OccupancyGamesError):
    """Raised for private histories with zero probability or off-tree actions."""


class UndefinedDecisionRuleError(OccupancyGamesError):
    """Raised when a decision rule lacks an entry for a required history."""

    @classmethod
    def at(cls, agent: int, steps: tuple, t: int) -> "UndefinedDecisionRuleError":
        """The error naming ``agent``'s history ``steps`` at step ``t``."""
        return cls(f"undefined decision rule for agent {agent} at history {steps} (t={t})")


class InconsistentOccupancyError(OccupancyGamesError):
    """Raised when an occupancy state does not match its generating policy."""


class UnknownSuiteError(OccupancyGamesError):
    """Raised for unrecognized verification suite names."""


class CertificateError(OccupancyGamesError, RuntimeError):
    """Raised when a solver cannot certify its result within the tolerance:
    the zero-sum loop's certificate, a matrix game's duality gap or a
    Stackelberg follower's regret."""
