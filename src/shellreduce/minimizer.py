"""Quasi-Newton minimization of the reduced energies over nodal midsurfaces.

The unknown is the grid of deformed nodal positions; its five derivative
fields come from the same finite-difference stencils the geometry pipeline
uses, so the discrete energy is the exact objective being differentiated
(discretize-then-optimize).  The energy is the ``energy`` command's own:
``ShellObjective`` extends :class:`~shellreduce.energy.ReducedEnergy`, so
both print the same bits for one surface.  Positions on the clamped edges
are pinned to the reference values; the normal condition on those edges
enters as a quadratic penalty because the normal is a nonlinear function of
positions and cannot be eliminated node-wise.  Every clamp removes a whole
edge, so the free nodes are one block of the grid: ``ShellObjective`` keeps
it as a pair of slices (``free_box``), through which packing and pinning
read and write views, and the metric reads one slice per axis.

Gradients are exact to round-off.  The density's closed-form partials in
a, H, K and the ten form components (``energy.density_partials``,
``energy.shell_form_weights``) and the normal's adjoint (load moment and
clamp penalty) seed the hand-derived adjoint of ``surface_bundle``
(``geometry.surface_bundle_vjp``); the per-point sensitivities are pushed
back through the transposed stencils.  Central finite differences
(``ShellObjective.grad_fd``) stay as the test oracle.

The iteration is limited-memory BFGS with a two-phase backtracking line
search: first the step is shrunk until every node keeps a_m and both face
factors above a safety floor (the logarithmic term then guards the
interior; the floor implies ``value``'s orientation check, so a trial is
checked once), then an Armijo test enforces decrease, so the energy trace
is nonincreasing by construction.  The accepted trial is handed on to the
gradient as an evaluated :class:`Point` (slots, bundle, energy and the
density fields the partials reuse), so each iteration applies the stencils
and builds the bundle and its face factors once per trial and no more.

The initial metric of the two-loop recursion (Nocedal & Wright, section
7.2) is the inverse of a reference model of the Hessian: membrane
stiffness ~ h |grad r|^2 for displacements across the mean normal, bending
stiffness ~ h^3/12 |grad^2 r|^2 along it.  The bending part is a
fourth-order operator that no nodal diagonal preconditions (the loaded
17^2 clamped plate took 402 iterations with one).  The model is a tensor
product over the free nodes and is inverted exactly by fast
diagonalization (``ShellObjective.metric_diagonal``,
``TensorMetric``): a 1-D generalized eigenproblem per axis, solved once,
then four small products per application.  The same plate now takes 18
iterations, and 23 / 45 / 117 at 33^2 / 49^2 / 65^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .admissibility import admissibility_report
from .energy import MODELS, ReducedEnergy, density_partials
from .errors import (ConfigError, InadmissibleInitialState,
                     InadmissibleThickness, NonFinitePosition, StepCollapsed)
from .geometry import (MAX_COORDINATE, require_finite_positions,
                       surface_bundle, surface_bundle_vjp)
from .grids import EDGES, edge_index, simpson_weights
from .loads import _edge_measure
from .stencils import GridDerivatives, _along0

EPS_FEAS = 1e-8
STEP_MIN = 1e-14
CURVATURE_FLOOR = 1e-12
MEMORY = 10             # curvature pairs kept by L-BFGS
ARMIJO_C1 = 1e-4        # sufficient-decrease constant
BACKTRACK = 0.5         # step shrink factor of the line search


@dataclass
class SolverConfig:
    model: int = 1
    constants: str = "oracle"
    max_iter: int = 200
    gtol_rel: float = 1e-6
    gtol_abs: float = 1e-11
    penalty_beta: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError("model must be one of %s" % (MODELS,))
        # written so that a NaN fails every test
        if not (0 < self.gtol_rel < np.inf and 0 < self.gtol_abs < np.inf):
            raise ConfigError("gradient tolerances must be positive and "
                              "finite")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be >= 0")
        if not 0 <= self.penalty_beta < MAX_COORDINATE:
            raise ConfigError("penalty weight must lie in [0, %g)"
                              % MAX_COORDINATE)


class Point(NamedTuple):
    """One evaluated configuration: its derivative slots, plain bundle and
    energy, plus the face factors and squared-volume density that the
    gradient's partials reuse."""

    slots: dict
    bundle: dict
    energy: float
    faces: tuple
    det2: np.ndarray


class ShellObjective(ReducedEnergy):
    """Total discrete energy (internal - loads + clamp penalty) and its
    exact nodal gradient: the stencils, penalty, gradient and metric on top
    of the :class:`~shellreduce.energy.ReducedEnergy` it evaluates."""

    def __init__(self, ref, mat, model, constants="oracle", loads=None,
                 clamped_edges=(), penalty_beta=0.0):
        super().__init__(ref, mat, model, constants, loads)
        self.penalty_beta = float(penalty_beta)
        self.clamped_edges = tuple(clamped_edges)
        grid = ref.grid
        self.ops = GridDerivatives(grid.n1, grid.n2, grid.dx1, grid.dx2,
                                   ref.order)

        # the free block (one slice per axis; see the module docstring),
        # each clamp trimming one end of its axis, and the clamp penalty
        # measure, the arclength-weighted union of the clamped edges
        box = [slice(0, grid.n1), slice(0, grid.n2)]
        self.penalty_weights = np.zeros((grid.n1, grid.n2))
        for name in self.clamped_edges:
            axis, idx = edge_index(name, grid.n1, grid.n2)
            line = box[axis]
            box[axis] = (slice(1, line.stop) if idx == 0
                         else slice(line.start, idx))
            self.penalty_weights += _edge_measure(ref, name, "surface")
        self.free_box = tuple(box)
        # the shell term's slot adjoints do not depend on the state
        self.form_seeds = {key: self.w2d * weight
                           for key, weight in self.form_weights.items()}

    # -- plain evaluation ---------------------------------------------------

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def point(self, positions, eps=None):
        """The evaluated :class:`Point` of ``positions``: one stencil pass
        and one bundle.  With ``eps`` given, None where an orientation
        defect reaches that floor; without, the value's orientation check,
        which raises.  Its warnings are silenced: a NaN from det I = 0 (a
        trial under a huge load) fails the orientation check, and an inf
        energy the Armijo test."""
        slots = self.ops.all_slots(positions)
        bundle = surface_bundle(slots)
        evaluated = self.evaluate(bundle, positions, eps)
        if evaluated is None:
            return None
        internal, load, faces, fields = evaluated
        # internal energy plus constant, minus loads, plus clamp penalty
        total = internal - load + self._penalty_value(bundle["n"])
        return Point(slots, bundle, total, faces, fields["curv_det2"])

    def feasible(self, positions):
        """V^h membership with the line-search safety floor: the evaluated
        Point (a true value), or None."""
        return self.point(positions, EPS_FEAS)

    def value(self, positions):
        return self.point(positions).energy

    def pack(self, field3):
        """The free nodes of an (n1, n2, 3) field as one vector: nodes in
        grid order, then x, y, z."""
        return field3[self.free_box].ravel()

    def unpack(self, vec, fixed):
        """A copy of ``fixed`` with its free nodes read from ``vec``."""
        out = fixed.copy()
        free = out[self.free_box]
        free[...] = vec.reshape(free.shape)
        return out

    def _penalty_value(self, normal):
        if self.penalty_beta == 0.0:
            return 0.0
        acc = 0.0
        for k in range(3):
            dn = normal[..., k] - self.ref.normal[..., k]
            acc += float(np.sum(self.penalty_weights * dn * dn))
        return self.penalty_beta * acc

    # -- gradient -----------------------------------------------------------

    def value_and_grad(self, positions, point=None):
        """Objective value and nodal gradient.  ``point`` may pass in the
        evaluated :class:`Point` of ``positions`` (the line search's
        accepted trial); without it, ``value``'s evaluation runs first.

        The density's partials and the normal's adjoint (load moment and
        clamp penalty) seed the adjoint of the bundle; the slot adjoints go
        back through the transposed stencils.
        """
        if point is None:
            point = self.point(positions)
        bundle = point.bundle
        partials = density_partials(bundle, self, point.faces, point.det2)
        seeds = dict(self.form_seeds)
        for key, part in zip("aHK", partials):
            seeds[key] = self.w2d * part
        normal = bundle["n"]
        seed = np.zeros_like(normal)
        if self.load.moment is not None:
            seed -= self.load.moment
        if self.penalty_beta > 0.0:
            weight = 2.0 * self.penalty_beta * self.penalty_weights
            seed += weight[..., None] * (normal - self.ref.normal)
        seeds["n"] = seed
        grad = self.ops.scatter(surface_bundle_vjp(point.slots, bundle, seeds))
        if self.load.force is not None:
            grad -= self.load.force
        return point.energy, grad

    def metric_diagonal(self):
        """Initial quasi-Newton metric: a membrane/bending model of the
        Hessian at the reference, inverted exactly by fast diagonalization.

        The free nodes are the block ``free_box``.  Per axis, on its free
        nodes, with W = diag(Simpson weights x a separable area factor),
        the first-derivative matrix D gives the membrane Gram
        matrix K = D^T W D and the second-derivative matrix the bending
        Gram matrix B = D2^T W D2 (plus, for each clamped end with a
        penalty, its rank-one edge term; see ``_axis_modes``).
        The pencil (B, W) is solved once per axis.  In the tensor eigenbasis
        V = V1 (x) V2 the metric is diagonal, with modal stiffnesses

            tangential  stiff h (k1 + k2)
            normal      stiff (h^3/12 (b1 + b2 + 2 k1 k2) + eps h (k1 + k2))

        (k = diag(V^T K V), b = diag(V^T B V), stiff = 2 mu + lam) for the
        components across and along the normalised mean reference normal;
        eps = mean(1 - (n . nbar)^2) is the membrane share the normal takes
        on a curved reference (0 on a plate).  The modal stiffnesses are the
        metric's diagonal in its eigenbasis, floored at 1e-8 of their max.
        The fourth-order bending operator is what a nodal diagonal cannot
        precondition; this metric keeps the L-BFGS iteration count nearly
        flat under grid refinement.
        """
        ref, mat = self.ref, self.mat
        grid = ref.grid
        area = ref.area
        weights = (simpson_weights(grid.n1, grid.dx1) * area.mean(axis=1),
                   simpson_weights(grid.n2, grid.dx2)
                   * area.mean(axis=0) / area.mean())
        stiff = 2.0 * mat.mu + mat.lam
        bend = stiff * mat.h ** 3 / 12.0
        edge_rows = ([], [])
        if self.penalty_beta > 0.0:
            for name in self.clamped_edges:
                axis, idx = edge_index(name, grid.n1, grid.n2)
                line = np.take(_edge_measure(ref, name, "surface"), idx,
                               axis=axis)
                rho = float(np.mean(line / weights[1 - axis]))
                edge_rows[axis].append(
                    (idx, 2.0 * self.penalty_beta * rho / bend))
        ops, free = self.ops, self.free_box
        v1, k1, b1 = _axis_modes(ops.d1, ops.d11, weights[0], free[0],
                                 edge_rows[0])
        v2, k2, b2 = _axis_modes(ops.d2, ops.d22, weights[1], free[1],
                                 edge_rows[1])
        lap = k1[:, None] + k2[None, :]
        nbar = ref.normal.mean(axis=(0, 1))
        nbar /= np.sqrt(np.sum(nbar * nbar))
        eps = float(np.mean(1.0 - np.sum(ref.normal * nbar, axis=-1) ** 2))
        mu_t = stiff * mat.h * lap
        mu_n = (bend * (b1[:, None] + b2[None, :] + 2.0 * k1[:, None] * k2)
                + stiff * eps * mat.h * lap)
        floor = 1e-8 * max(float(mu_t.max()), float(mu_n.max()))
        return TensorMetric(v1, v2, np.maximum(mu_t, floor),
                            np.maximum(mu_n, floor), nbar)

    def grad_fd(self, positions, step_scale=1e-6):
        """Central finite differences over every nodal component."""
        scale = max(1.0, float(np.max(np.abs(positions))))
        t = step_scale * scale
        grad = np.zeros_like(positions)
        work = positions.copy()
        n1, n2, _ = positions.shape
        for i in range(n1):
            for j in range(n2):
                for k in range(3):
                    keep = work[i, j, k]
                    work[i, j, k] = keep + t
                    up = self.value(work)
                    work[i, j, k] = keep - t
                    down = self.value(work)
                    work[i, j, k] = keep
                    grad[i, j, k] = (up - down) / (2.0 * t)
        return grad


def _axis_modes(d, dd, w, free, edge_rows):
    """One axis of the tensor metric: (V, k, b) on its free slice ``free``.

    With Df = d[:, free] and DDf = dd[:, free], K = Df^T W Df and
    B = DDf^T W DDf + sum coef * Df[row]^T Df[row] over ``edge_rows``; V
    solves the pencil B V = W V diag(b) with V^T W V = I (W restricted to
    the free nodes) and k = diag(V^T K V).  B is built from the
    second-derivative matrix rather than as K W^-1 K, because the centred
    first derivative does not see the checkerboard mode.  An edge row is
    the clamp penalty linearised about the reference: the normal turns by
    the cross-edge derivative of the normal displacement, whose weight
    along the edge is ``coef`` times W of the other axis.
    """
    df, ddf = d[:, free], dd[:, free]
    # einsum, not BLAS, for the O(n^3) products: a threaded GEMM changes
    # their last bits with the thread count (see the stencils module)
    k = np.einsum("ri,r,rj->ij", df, w, df)
    b = np.einsum("ri,r,rj->ij", ddf, w, ddf)
    for row, coef in edge_rows:
        b += coef * np.outer(df[row], df[row])
    s = 1.0 / np.sqrt(w[free])
    beta, u = np.linalg.eigh(s[:, None] * b * s[None, :])
    v = s[:, None] * u
    return v, np.einsum("ia,ij,ja->a", v, k, v), beta


class TensorMetric:
    """H0 = P^-1 on packed free nodal values, by fast diagonalization.

    P = (W V) diag(mu) (W V)^T per mode, with V = V1 (x) V2 and W the
    tensor quadrature weights of the free nodes (V^T W V = I): each mode's
    3-vector is split along ``nbar`` (stiffness ``mu_n``) and across it
    (``mu_t``).  Hence P^-1 = V diag(1/mu) V^T: one pass of the 1-D mode
    matrices per axis each way and one division per mode (Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).  The passes are the stencils' batched
    per-line products, whose bits do not depend on the thread count; one
    GEMM per component would be ~4x faster at 49^2 but is not.
    """

    def __init__(self, v1, v2, mu_t, mu_n, nbar):
        self.v1, self.v2, self.nbar = v1, v2, nbar
        self.mu_t, self.mu_n = mu_t, mu_n
        self._inv_t = 1.0 / mu_t
        self._inv_dn = 1.0 / mu_n - self._inv_t

    def apply(self, q):
        """H0 q for a packed vector: free nodes in grid order (the
        objective's ``free_box``, an (m1, m2) block), then x, y, z."""
        m1, m2 = len(self.v1), len(self.v2)
        c = _along0(self.v1.T, np.matmul(self.v2.T, q.reshape(m1, m2, 3)))
        nb = self.nbar
        cn = c[..., 0] * nb[0] + c[..., 1] * nb[1] + c[..., 2] * nb[2]
        r = c * self._inv_t[..., None] + (cn * self._inv_dn)[..., None] * nb
        return _along0(self.v1, np.matmul(self.v2, r)).ravel()


@dataclass
class MinimizeResult:
    positions: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str
    trace: list                 # rows (iter, energy, grad_norm, step)
    clamped_edges: tuple
    report: object              # AdmissibilityReport of the thickness gate


def line_search(objective, unpack, x, d, energy, slope, iteration):
    """Fused feasibility-then-Armijo backtracking from the unit step.

    Each trial ``unpack(x + step * d)`` gets one geometry pass, used both
    for the orientation floor and for the energy.  Returns (step, trial,
    point), the accepted trial's evaluated Point for ``value_and_grad``;
    raises StepCollapsed naming the phase that failed last.
    """
    step = 1.0
    while True:
        trial = x + step * d
        # the EPS_FEAS floor implies value's EPS_ORIENT one
        point = objective.point(unpack(trial), EPS_FEAS)
        feasible = point is not None
        if feasible and point.energy <= energy + ARMIJO_C1 * step * slope:
            return step, trial, point
        step *= BACKTRACK
        if step < STEP_MIN:
            raise StepCollapsed("line-search" if feasible else "feasibility",
                                step, iteration)


def _dot(a, b):
    """Inner product as numpy's pairwise sum.  BLAS ``ddot`` (behind
    ``np.dot`` and ``np.linalg.norm``) splits long vectors across threads,
    so its last bits, and the whole iteration after them, would change with
    the thread count."""
    return float(np.sum(a * b))


def _two_loop(g, pairs, metric):
    """Two-loop recursion (Nocedal & Wright, Alg. 7.4) with the initial
    metric gamma * H0, where ``metric(v)`` applies H0 and gamma =
    s.y / y.H0 y scales it by the newest curvature pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= a * y
    q = metric(q)
    if pairs:
        s, y, _ = pairs[-1]
        q *= _dot(s, y) / _dot(y, metric(y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return q


def minimize(ref, mat, config, loads=None, clamped_edges=None, initial=None,
             force=False, safety=1.0, callback=None):
    """Minimize the selected model's energy over the free nodal positions.

    ``loads`` is a 3-D LoadSpec (or None), reduced at ``mat.h``.
    ``clamped_edges`` defaults to the complement of its traction edges
    ``gamma_t`` (all four edges without loads).  The start is the
    reference, with its free nodes taken from ``initial`` when given.
    ``force=True`` skips the thickness gate.  The gate's admissibility
    report is computed once and returned on ``MinimizeResult.report``
    (``InadmissibleThickness.report`` when the gate stops the run).
    """
    if clamped_edges is None:
        traction = loads.gamma_t if loads is not None else ()
        clamped_edges = tuple(e for e in EDGES if e not in traction)
    report = admissibility_report(ref, mat.h, safety=safety)
    if not report.ok(config.model) and not force:
        raise InadmissibleThickness(
            "thickness %g at or above the model-%d bound %.12g"
            % (mat.h, config.model, report.h_max[config.model]), report)

    objective = ShellObjective(ref, mat, config.model, config.constants,
                               loads=loads, clamped_edges=clamped_edges,
                               penalty_beta=config.penalty_beta)
    positions = ref.positions.copy()
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != positions.shape:
            raise ConfigError("initial positions must have shape %s, got %s"
                              % (positions.shape, initial.shape))
        try:
            require_finite_positions(initial)
        except NonFinitePosition as exc:
            raise InadmissibleInitialState(
                "initial deformation: %s" % exc) from exc
        positions = objective.unpack(objective.pack(initial), positions)
    start = objective.feasible(positions)
    if start is None:
        raise InadmissibleInitialState(
            "initial deformation violates the orientation constraints")

    def unpack(vec):
        return objective.unpack(vec, positions)

    def eval_vg(pos, point):
        value, grad = objective.value_and_grad(pos, point)
        return value, objective.pack(grad)

    energy, g = eval_vg(positions, start)
    # a Point holds some thirty fields: keep at most one alive between
    # gradients, or the peak memory of a solve grows by one
    del start
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    tol = max(config.gtol_abs, config.gtol_rel * gnorm)
    trace = [(0, energy, gnorm, 0.0)]
    if callback is not None:
        callback(0, positions)

    if gnorm <= tol or g.size == 0:
        return MinimizeResult(positions=positions, energy=energy,
                              grad_norm=gnorm, iterations=0, converged=True,
                              message="stationary at start", trace=trace,
                              clamped_edges=tuple(clamped_edges),
                              report=report)

    x = objective.pack(positions)
    metric = objective.metric_diagonal().apply
    pairs = []
    converged = False
    message = "iteration limit reached"
    it = 0
    for it in range(1, config.max_iter + 1):
        d = -_two_loop(g, pairs, metric)
        slope = _dot(g, d)
        if slope >= -1e-14 * np.sqrt(_dot(g, g) * _dot(d, d)):
            pairs = []
            d = -metric(g)
            slope = _dot(g, d)

        try:
            step, trial, point = line_search(objective, unpack, x, d,
                                             energy, slope, it)
        except StepCollapsed as exc:
            message = str(exc)
            it -= 1
            break

        trial_energy, new_g = eval_vg(unpack(trial), point)
        del point
        s = trial - x
        yv = new_g - g
        sy = _dot(s, yv)
        if sy > CURVATURE_FLOOR * np.sqrt(_dot(s, s) * _dot(yv, yv)):
            pairs.append((s, yv, 1.0 / sy))
            if len(pairs) > MEMORY:
                pairs.pop(0)
        else:
            pairs = []

        x, g, energy = trial, new_g, trial_energy
        gnorm = float(np.max(np.abs(g)))
        trace.append((it, energy, gnorm, step))
        if callback is not None:
            callback(it, unpack(x))
        if gnorm <= tol:
            converged = True
            message = "gradient tolerance reached"
            break

    return MinimizeResult(positions=unpack(x), energy=energy, grad_norm=gnorm,
                          iterations=it, converged=converged, message=message,
                          trace=trace, clamped_edges=tuple(clamped_edges),
                          report=report)
