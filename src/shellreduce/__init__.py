"""Reduced nonlinear shell energies on parametrized midsurfaces.

Three thickness-reduced energy models derived from a compressible
Ciarlet-Geymonat material, a brute-force through-thickness 3-D oracle to
verify them against, closed-form admissibility/convexity thickness
thresholds, load reduction, and a feasible-set quasi-Newton minimizer over
discretized midsurfaces.
"""

from .admissibility import AdmissibilityReport, admissibility_report
from .energy import (CONSTANT_MODES, MODELS, DeformedState, EnergyBreakdown,
                     MaterialParams, deformed_state, total_energy)
from .errors import (ConfigError, InadmissibleInitialState,
                     InadmissibleThickness, NonFinitePosition,
                     OrientationViolation, ShellError, StepCollapsed,
                     ThicknessError)
from .geometry import SurfaceChart, TrigDisplacement, displace_chart, \
    make_chart
from .grids import Grid
from .loads import LoadResultants, LoadSpec, reduce_loads, uniform_transverse
from .minimizer import (DiscreteDeformation, MinimizeResult, ShellObjective,
                        SolverConfig, minimize)
from .oracle3d import compare_reduced_3d, integrate_3d
from .reference import ReferenceField, build_reference

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "admissibility_report",
    "CONSTANT_MODES", "MODELS", "DeformedState", "EnergyBreakdown",
    "MaterialParams", "deformed_state", "total_energy",
    "ConfigError", "InadmissibleInitialState", "InadmissibleThickness",
    "NonFinitePosition", "OrientationViolation", "ShellError",
    "StepCollapsed", "ThicknessError",
    "SurfaceChart", "TrigDisplacement", "displace_chart", "make_chart",
    "Grid",
    "LoadResultants", "LoadSpec", "reduce_loads", "uniform_transverse",
    "DiscreteDeformation", "MinimizeResult", "ShellObjective",
    "SolverConfig", "minimize",
    "compare_reduced_3d", "integrate_3d",
    "ReferenceField", "build_reference",
    "__version__",
]
