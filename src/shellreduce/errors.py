"""Exception types shared across the package.

Each error carries enough context (grid indices, offending values) to print
an actionable message from the CLI.
"""

from __future__ import annotations


class ShellError(Exception):
    """Base class for all package errors."""


class ConfigError(ShellError):
    """Malformed or inconsistent run configuration."""


class GridTooSmall(ShellError):
    """Fewer than the minimum number of nodes per direction for the
    requested stencil order."""


class DegenerateChart(ShellError):
    """The chart fails the rank-2 immersion check at some node; ``test``
    names the test that failed and its numbers there."""

    def __init__(self, index, test):
        self.index = tuple(int(k) for k in index)
        super().__init__(
            "chart is rank deficient at grid node %s: %s" % (self.index, test))


class CurvatureInconsistent(ShellError):
    """H^2 - K is negative beyond round-off; the fundamental forms are not
    mutually consistent."""


class OrientationViolation(ShellError):
    """A deformed configuration leaves the orientation-preserving set:
    a_m <= 0 or a face factor A_m^+/- <= 0 at some node."""

    def __init__(self, index, quantity, value):
        self.index = tuple(int(k) for k in index)
        self.quantity = str(quantity)
        self.value = float(value)
        super().__init__(
            "orientation violated at grid node %s: %s = %.6e <= tolerance"
            % (self.index, self.quantity, self.value)
        )


class NonFinitePosition(ShellError):
    """A nodal position given as input, or a chart's value or derivative
    field (``name``), has a NaN, infinite or overflowing coordinate."""

    def __init__(self, index, position, name="position"):
        self.index = tuple(int(k) for k in index)
        self.position = tuple(float(x) for x in position)
        super().__init__(
            "non-finite or overflowing %s at grid node %s: (%s)"
            % (name, self.index, ", ".join("%g" % x for x in self.position))
        )


class NonPositiveDeterminant(ShellError):
    """det F <= 0 inside the 3-D stored energy."""

    def __init__(self, value, where=None):
        self.value = float(value)
        self.where = where
        msg = "stored energy undefined: det F = %.6e <= 0" % self.value
        if where is not None:
            msg += " at %s" % (where,)
        super().__init__(msg)


class ThicknessError(ShellError):
    """Requested thickness violates the geometric bound or a convexity
    threshold."""


class InadmissibleThickness(ThicknessError):
    """Thickness at or above the minimizer's gate min(h_geom, model h0).

    ``report`` is the AdmissibilityReport the gate decided on."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class InadmissibleInitialState(ShellError):
    """The starting deformation violates the orientation constraints."""


class StepCollapsed(ShellError):
    """Line search (feasibility or Armijo phase) backtracked below the
    minimal step length."""

    def __init__(self, phase, step, iteration):
        self.phase = str(phase)
        self.step = float(step)
        self.iteration = int(iteration)
        super().__init__(
            "step collapsed during %s backtracking at iteration %d "
            "(step = %.3e)" % (self.phase, self.iteration, self.step)
        )
