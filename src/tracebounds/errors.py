"""Exception types raised across the package.

Every error that can reach a caller is a subclass of :class:`TraceBoundsError`,
so library users and the command line can catch one base type. The class name
is the machine-readable error code.
"""


class TraceBoundsError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(TraceBoundsError):
    """A dataset or another input violates a structural invariant.

    When one unit breaks a per-unit rule, ``unit`` is its 0-based position
    in the dataset and, for a dataset read from a CSV file, ``row`` is its
    1-based data row; the message leads with the row, else the unit.
    """

    def __init__(self, message: str, unit: int | None = None):
        super().__init__(message)
        self.unit = unit
        self.row: int | None = None

    def __str__(self) -> str:
        rule = super().__str__()
        if self.row is not None:
            return f"row {self.row}: {rule}"
        if self.unit is not None:
            return f"unit {self.unit}: {rule}"
        return rule


class MissingColumn(TraceBoundsError):
    """A column required by the schema is absent from the CSV header."""


class ParseError(TraceBoundsError):
    """A CSV cell could not be parsed.

    Carries the 1-based data row number (0 for the header) and the
    column name, which is None when the fault lies in no named column.
    """

    def __init__(self, row: int, column: str | None, message: str):
        where = f"row {row}" if column is None else f"row {row}, column {column!r}"
        super().__init__(f"{where}: {message}")
        self.row = row
        self.column = column


class RequirementUnmet(TraceBoundsError):
    """The dataset lacks something a requested analysis needs."""


class EmptyCell(TraceBoundsError):
    """A conditional mean was requested over an empty (d, m) cell."""


class MissingM(TraceBoundsError):
    """The post-treatment indicator is unobserved where it is needed."""


class MonotonicityViolatedEmpirically(TraceBoundsError):
    """The control arm shows a larger reaction share than the treated arm,
    beyond numerical tolerance, so the monotone-reaction model is rejected
    by the data rather than silently repaired."""


class RankDeficient(TraceBoundsError):
    """The regression design matrix does not have full column rank."""


class OutOfRange(TraceBoundsError):
    """A probability input or a probability implied by inputs falls
    outside [0, 1]."""


class ZeroFraction(TraceBoundsError):
    """A trimmed mean was requested over a zero fraction of the weight."""


class EmptyInput(TraceBoundsError):
    """An operation received an empty value sequence."""


class NoReactiveTreated(TraceBoundsError):
    """No treated unit has m = 1, so reactive-group quantities are undefined."""


class NegativeControlMean(TraceBoundsError):
    """A bound that needs a nonnegative control-arm mean received a
    negative one."""


class DegenerateP(TraceBoundsError):
    """The reactive share is at a boundary value that makes the requested
    map undefined."""


class SignUndefined(TraceBoundsError):
    """A sign-based assumption cannot be applied because the effect
    estimate is exactly zero."""


class DegenerateShare(TraceBoundsError):
    """A stratum-share denominator needed for a back-out is zero."""


class EmptyReactiveStratum(TraceBoundsError):
    """A generating process puts zero mass on reactive strata, so the
    reactive-group estimand does not exist."""


class TooLarge(TraceBoundsError):
    """A brute-force enumeration guard was exceeded."""


class AllReplicatesFailed(TraceBoundsError):
    """Every bootstrap replicate failed to evaluate."""


class MissingBlockLabels(TraceBoundsError):
    """Block resampling needs a block label on every unit."""


class OutOfSupportWarning(UserWarning):
    """A backed-out mean lies outside the observed outcome range."""
