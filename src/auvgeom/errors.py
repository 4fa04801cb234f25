"""Exception taxonomy for the auvgeom package.

Every error raised by the library is a subclass of :class:`AuvgeomError`,
so callers can catch the whole family with one clause.  Conditions that a
Monte-Carlo run must survive (a singular, capped or stalled estimate)
are reported through result flags instead of exceptions; the
classes below cover the cases where no meaningful result exists.
"""


class AuvgeomError(Exception):
    """Base class for all auvgeom errors."""


class DegenerateGeometry(AuvgeomError):
    """A Jacobian row is undefined: zero horizontal range, a grazing ray,
    or |cos^2(theta) - sin^2(alpha)| below 1e-12."""


class SingularFim(AuvgeomError):
    """Fisher matrix numerically singular (condition number above 1e12);
    the anchor geometry carries no information in some direction."""


class ZeroDiagonal(AuvgeomError):
    """A diagonal Fisher entry is exactly zero, so its reciprocal bound is
    undefined."""


class TooFewAnchors(AuvgeomError):
    """Fewer anchors than the minimum of four required for 3-D coverage."""


class NonPositiveK(AuvgeomError):
    """The radius-scale optimizer could not keep its iterate positive."""


class UnsupportedCount(AuvgeomError):
    """More anchors requested than a layout family defines (cube: 8)."""


class DegenerateAfterRetries(AuvgeomError):
    """Random layout generation kept producing degenerate anchor sets and
    gave up after the retry budget."""


class NoConvergedTrials(AuvgeomError):
    """Every trial of a Monte-Carlo batch failed to converge; no RMSE is
    defined."""


class EmptyTable(AuvgeomError):
    """Plot emission requested for a result table with no rows."""
