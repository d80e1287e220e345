"""Exception types shared across the package."""


class HelixkitError(Exception):
    """Base class for all errors raised by this package."""


class ExprParseError(HelixkitError):
    """Malformed expression source.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(HelixkitError):
    """An expression was evaluated with a variable left unbound.

    Singular points are not errors: they evaluate to inf or nan.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class CurveFormatError(HelixkitError):
    """Curve or surface specification file does not match the expected schema."""


class CurveError(HelixkitError):
    """Invalid curve data or an operation outside a curve's contract."""


class NotUnitSpeedError(CurveError):
    """Operation requires a unit-speed curve and the input is not one."""


class NonRegularCurveError(CurveError):
    """Curve has a point (or region) where the speed vanishes."""


class DegenerateCurveError(HelixkitError):
    """Frenet apparatus cannot be completed at the requested rank."""


class UnreliableResultError(HelixkitError):
    """Too many samples were masked out for the statistic to mean anything."""

    def __init__(self, message, masked_fraction=None):
        super().__init__(message)
        self.masked_fraction = masked_fraction


class AxisHintError(HelixkitError):
    """Axis hint that is not a finite non-zero vector of the curve's size."""


class ClassificationError(HelixkitError):
    """A verification step needed a classification the curve does not have.

    The report that failed the requirement is attached for inspection.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SurfaceError(HelixkitError):
    """Invalid surface data or tangent map, or a geodesic leaving its box."""
