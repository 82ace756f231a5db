"""Exception hierarchy shared across the package."""


class PermsplitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PermsplitError):
    """Malformed generator file or decomposition file.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntransitiveAction(PermsplitError):
    """The action is not transitive; carries the orbit of point 1."""

    def __init__(self, orbit):
        self.orbit = orbit
        super().__init__(
            f"action is not transitive: orbit of point 1 has size {len(orbit)}"
        )


class InvariantViolation(PermsplitError):
    """An internal consistency check failed (bug or corrupted input)."""


class ResourceLimit(PermsplitError):
    """A configured resource cap was exceeded (Groebner pairs, basis size, rank)."""


class NotZeroDimensional(PermsplitError):
    """Solution enumeration was asked for a system with infinitely many solutions."""


class SliceExhausted(PermsplitError):
    """No particular solution was found within the slice attempts."""


class IncompleteDecomposition(PermsplitError):
    """The dimension loop ran out of candidate dimensions before the
    dimensions summed to the degree; on valid input it never happens."""


class MatrixCapExceeded(PermsplitError):
    """Matrix-level verification was requested above the configured degree cap."""


class Unrepresentable:
    """Sentinel value: a square root does not exist inside the radical tower.

    This is a value, not an error; ``sqrt_if_nice`` returns it instead of
    raising so callers can fall back to certified numerics.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unrepresentable"


UNREPRESENTABLE = Unrepresentable()
