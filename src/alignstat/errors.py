"""Exception types raised across the library.

Every error condition that callers are expected to handle gets its own
class; all inherit from :class:`AlignstatError` so blanket handling stays
possible at the CLI boundary.
"""


class AlignstatError(Exception):
    """Base class for all library errors."""


class RankDeficient(AlignstatError):
    """Input matrix does not have full column rank."""


class DimensionMismatch(AlignstatError):
    """Operands live in incompatible ambient or subspace dimensions."""


class EmptyFamily(AlignstatError):
    """A subspace family with no members was queried."""


class BudgetExceeded(AlignstatError):
    """A construction would exceed its configured size budget."""


class CellCollision(AlignstatError):
    """Two interpolation nodes share a grid cell, or a cell is off-grid."""


class BoxViolation(AlignstatError):
    """A node's jet lies outside its admissible coordinate box."""


class EpsTooLarge(AlignstatError):
    """The derived cell width exceeds the unit cube; no cell grid exists."""


class NotInClass(AlignstatError):
    """A function failed the smoothness-class membership check."""


class OutOfDomain(AlignstatError):
    """A point lies outside the unit cube domain."""


class Unsupported(AlignstatError):
    """Requested parameter combination is outside the implemented range."""


class ParamOrder(AlignstatError):
    """Numeric parameters violate a required ordering constraint."""


class DegenerateFit(AlignstatError):
    """Regression input is too degenerate to fit a slope."""


class CliConfigError(AlignstatError):
    """Bad command-line or config-file input."""
