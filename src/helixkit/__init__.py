"""helixkit: Frenet frames, curvatures, and helix classification in E^n."""

from .curve import (AnalyticCurve, Curve, DerivativeJet, SampledCurve,
                    arclength_reparametrize, jet, load_curve)
from .errors import (AxisHintError, ClassificationError, CurveError,
                     CurveFormatError, DegenerateCurveError, ExprDomainError,
                     ExprParseError, HelixkitError, NonRegularCurveError,
                     NotUnitSpeedError, SurfaceError, UnreliableResultError)
from .frenet import (FrenetApparatus, FrenetGrid, frenet_at, frenet_grid,
                     frenet_ode_residual, generalized_cross)
from .helix import (AxisComparison, HelixFunctions, HelixReport, axis_field,
                    classify, general_functions, harmonic_curvatures,
                    helix_axis_field_3d, indicatrix_curvatures_3d,
                    slant_functions, slant_invariant_3d, tangent_indicatrix,
                    verify_same_axis)
from .hypersurf import (GeodesicCheck, GeodesicSample, Hypersurface,
                        SurfaceGeodesicReport, geodesic, is_helix_surface,
                        load_surface, samples_to_curve,
                        verify_geodesic_theorems)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCurve", "AxisComparison", "AxisHintError", "ClassificationError",
    "Curve", "CurveError", "CurveFormatError", "DegenerateCurveError",
    "DerivativeJet", "ExprDomainError", "ExprParseError", "FrenetApparatus",
    "FrenetGrid", "GeodesicCheck", "GeodesicSample", "HelixFunctions",
    "HelixReport", "HelixkitError", "Hypersurface", "NonRegularCurveError",
    "NotUnitSpeedError", "SampledCurve", "SurfaceError",
    "SurfaceGeodesicReport", "UnreliableResultError",
    "arclength_reparametrize", "axis_field", "classify", "frenet_at",
    "frenet_grid", "frenet_ode_residual", "general_functions",
    "generalized_cross", "geodesic", "harmonic_curvatures",
    "helix_axis_field_3d", "indicatrix_curvatures_3d", "is_helix_surface",
    "jet", "load_curve", "load_surface", "samples_to_curve",
    "slant_functions", "slant_invariant_3d", "tangent_indicatrix",
    "verify_geodesic_theorems", "verify_same_axis",
]
