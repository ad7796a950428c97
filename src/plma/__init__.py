"""Exact piecewise-linear Monge-Ampere equations on polytopes and metric graphs."""

from .geometry import (
    AffineFunctional,
    DimensionError,
    DiscreteMeasure,
    PLConvexFunction,
    Polytope,
    breakpoints,
    convex_envelope,
    is_admissible,
    subdifferential,
    support_function,
)
from .toric import (
    AdmissibilityError,
    DegeneratePolytopeError,
    MonomialPoint,
    ToricMAResult,
    degree,
    ma_measure,
    mixed_ma,
    point_mass_solution,
    real_measure,
)
from .curves import (
    GraphError,
    GraphMeasure,
    GraphPLFunction,
    MassBalanceError,
    MetricGraph,
    SubharmonicityError,
    canonical_metric,
    circle_graph,
    green,
    green_value,
    is_subharmonic,
    laplacian,
    ma_curve,
    solve_poisson,
    superpose,
)
from .variational import (
    MinOfConvex,
    PiecewiseLinear1D,
    energy_curve,
    energy_of_envelope_derivative,
    energy_toric,
    envelope_P,
    envelope_subharmonic,
    envelope_toric,
    f_mu,
    orthogonality_defect,
)
from .solver import SolveReport, residual, solve_curve, solve_toric

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
