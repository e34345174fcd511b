"""Exception taxonomy shared by all viscobessel modules, and the argument rules.

The CLI maps these onto its exit codes: invalid inputs exit 2, numerical
refusals (series floor, exhausted tables, bad grids) exit 3, and genuine
computation failures (root finder, contour inversion, overflow) exit 4.
Orders and argument arrays are checked by the rules below, s by params.transform_root.
"""

import math

import numpy as np


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


def check_order(nu) -> float:
    """nu as a float, or DomainError unless it is finite and > -1."""
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise DomainError(f"order nu must be finite and > -1, got {nu!r}")
    return nu


def check_array(values, need: str, ok=None) -> np.ndarray:
    """values as a float array, or DomainError "<need>, got <x>" quoting the first
    element x that is not finite or fails the elementwise predicate ok."""
    values = np.asarray(values, dtype=float)
    good = np.isfinite(values) if ok is None else np.isfinite(values) & ok(values)
    bad = values[~good]
    if bad.size:
        raise DomainError(f"{need}, got {float(bad[0])!r}")
    return values


def check_times(t) -> np.ndarray:
    """t as a float array, or DomainError quoting its first time not finite and >= 0."""
    return check_array(t, "time must be finite and >= 0", lambda t: t >= 0.0)
