"""Exception taxonomy shared by all viscobessel modules.

The CLI maps these onto its exit codes: invalid inputs exit 2, numerical
refusals (series floor, exhausted tables, bad grids) exit 3, and genuine
computation failures (root finder, contour inversion, overflow) exit 4.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain an operation supports."""


class SeriesRefusalError(ValueError):
    """A requested time lies below the configured series floor t_floor."""


class TableExhaustedError(RuntimeError):
    """A zero table has too few entries to meet the requested tolerance."""


class GridError(ValueError):
    """A sampled history does not live on the required uniform grid."""


class RootFindError(RuntimeError):
    """Newton refinement and the bisection fallback both failed."""


class InversionError(RuntimeError):
    """A Laplace inversion failed (non-finite transform value on the contour)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
