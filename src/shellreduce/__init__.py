"""Reduced nonlinear shell energies on parametrized midsurfaces.

Three thickness-reduced energy models derived from a compressible
Ciarlet-Geymonat material, a brute-force through-thickness 3-D oracle to
verify them against, closed-form admissibility/convexity thickness
thresholds, load reduction, and a feasible-set quasi-Newton minimizer over
discretized midsurfaces.

The exports below are resolved on first access, so importing the package
(or ``shellreduce.cli``) does not load numpy: the CLI's ``--threads`` must
reach the environment before the array library sizes its thread pools.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "admissibility": ("AdmissibilityReport", "admissibility_report"),
    "energy": ("CONSTANT_MODES", "MODELS", "EnergyBreakdown",
               "MaterialParams", "total_energy"),
    "errors": ("ConfigError", "InadmissibleInitialState",
               "InadmissibleThickness", "NonFinitePosition",
               "OrientationViolation", "ShellError", "StepCollapsed",
               "ThicknessError"),
    "geometry": ("DeformedState", "SurfaceChart", "TrigDisplacement",
                 "deformed_state", "displace_chart", "make_chart"),
    "grids": ("Grid",),
    "loads": ("LoadResultants", "LoadSpec", "reduce_loads",
              "uniform_transverse"),
    "minimizer": ("MinimizeResult", "ShellObjective", "SolverConfig",
                  "minimize"),
    "oracle3d": ("compare_reduced_3d", "integrate_3d"),
    "reference": ("ReferenceField", "build_reference"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
