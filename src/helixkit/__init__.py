"""helixkit: Frenet frames, curvatures, and helix classification in E^n."""

from .curve import (AnalyticCurve, Curve, SampledCurve,
                    arclength_reparametrize, load_curve)
from .errors import (AxisHintError, ClassificationError, CurveError,
                     CurveFormatError, DegenerateCurveError, ExprDomainError,
                     ExprParseError, HelixkitError, NonRegularCurveError,
                     NotUnitSpeedError, SurfaceError, UnreliableResultError)
from .frenet import FrenetGrid, frenet_at, frenet_grid, generalized_cross
from .helix import (AxisComparison, HelixFunctions, HelixReport, axis_field,
                    classify, general_functions, harmonic_curvatures,
                    slant_functions, tangent_indicatrix, verify_same_axis)
from .hypersurf import (GeodesicCheck, GeodesicPath, Hypersurface,
                        SurfaceGeodesicReport, geodesic, is_helix_surface,
                        load_surface, verify_geodesic_theorems)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCurve", "AxisComparison", "AxisHintError", "ClassificationError",
    "Curve", "CurveError", "CurveFormatError", "DegenerateCurveError",
    "ExprDomainError", "ExprParseError", "FrenetGrid",
    "GeodesicCheck", "GeodesicPath", "HelixFunctions", "HelixReport",
    "HelixkitError", "Hypersurface", "NonRegularCurveError",
    "NotUnitSpeedError", "SampledCurve", "SurfaceError",
    "SurfaceGeodesicReport", "UnreliableResultError",
    "arclength_reparametrize", "axis_field", "classify", "frenet_at",
    "frenet_grid", "general_functions", "generalized_cross", "geodesic",
    "harmonic_curvatures", "is_helix_surface", "load_curve", "load_surface",
    "slant_functions", "tangent_indicatrix",
    "verify_geodesic_theorems", "verify_same_axis",
]
