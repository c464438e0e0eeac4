"""Reduced shell energy densities and the three energy models.

All densities are *per unit reference area measure* ``a_y0 dx'``: the total
internal energy is the surface quadrature of ``density * a_y0``.  A density
is assembled from the deformed fundamental forms, the reference kernels (see
:mod:`shellreduce.reference`) and thickness-dependent scalar coefficients in
the reference curvatures:

- ``w_shell``  membrane/bending trace term, linear in the deformed forms
  with the reference weights of :func:`shell_form_weights` (all
  fifth-order blocks for models I and III, truncated after the cubic
  blocks for model II),
- ``w_curv_log`` three-point through-thickness rule for the logarithmic
  volumetric term,
- ``w_curv_det2_simpson`` three-point rule for the squared-volume term
  (models I and II),
- ``w_curv_det2_taylor`` closed-form thickness expansion of the
  squared-volume term (model III), :func:`det_square_bracket`.

Two constant calibrations are exposed.  ``oracle`` (default) matches the
through-thickness integral of the parent 3-D stored energy exactly: the
logarithm carries ``-(mu + lam/2)``, the additive constant is
``-(3 mu/2 + lam/4) (h + h^3 K / 12)``, and no density carries an interior
area factor.  ``paper`` keeps the as-published literals: logarithm
coefficient ``-(lam + 2 mu)/4``, flat constant ``-(3 mu/2 + lam/4)``, an
interior ``a_y0`` inside both squared-volume blocks, and the cubic model's
standalone thickness factor read as ``h + h^3 K / 6``.  The natural-state
and 3-D-agreement guarantees hold for ``oracle`` only.

The density is differentiated in closed form.  The shell term is linear in
the deformed forms with weights that depend on the reference only
(:func:`shell_form_weights`, the one encoding of the term: its value, its
gradient and the convexity Hessian of
:func:`~shellreduce.admissibility.shell_quadratic_hessian` all read them);
the log and squared-volume terms are scalar functions of a_m, H_m and K_m
whose partials :func:`density_partials` returns as plain fields; the
standalone and constant terms do not depend on the deformation.  The
minimizer seeds the adjoint of ``surface_bundle``
(:func:`~shellreduce.geometry.surface_bundle_vjp`) with these partials.

:class:`ReducedEnergy` is the one assembly of the energy and the one place
a thickness enters it (``mat.h``): it checks a run once and holds its
reference-only fields, and :func:`total_energy` and the minimizer's
``ShellObjective`` (a subclass) both evaluate through it.  A
deformed configuration enters as the same per-node record the reference is
built on, :func:`~shellreduce.geometry.deformed_state` (re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OrientationViolation, ThicknessError
# deformed_state/DeformedState live in geometry so that the reference can
# build on them without an import cycle; they are re-exported here because
# the package exports, the CLI and the benchmark (perfbench/) call them as
# shellreduce.energy.deformed_state
from .geometry import (DeformedState, deformed_state,  # noqa: F401
                       face_factors, with_thickness)
from .grids import area_weights
from .loads import load_covector, reduce_loads

MODELS = (1, 2, 3)
CONSTANT_MODES = ("oracle", "paper")

EPS_ORIENT = 1e-10


@dataclass(frozen=True)
class MaterialParams:
    """Material constants and thickness; both Lame constants positive."""

    mu: float
    lam: float
    h: float

    def __post_init__(self):
        values = (self.mu, self.lam, self.h)
        if not all(0.0 < v < float("inf") for v in values):
            raise ConfigError(
                "material parameters must be positive and finite: "
                "mu=%g lam=%g h=%g" % values
            )


@dataclass
class EnergyBreakdown:
    """Per-term energies; total = internal - load_term.

    ``internal`` is the node-by-node quadrature of the summed densities
    (:meth:`ReducedEnergy.evaluate`, the minimizer's order), so it can
    differ from the sum of the four separately integrated terms in the last
    bits.  ``fields`` holds the four density fields that were integrated
    (``energy_density_fields``).
    """

    shell_term: float
    curv_log_term: float
    curv_det2_term: float
    constant_term: float
    internal: float
    load_term: float
    model: int
    constants: str
    fields: dict = field(repr=False, compare=False)

    @property
    def total(self):
        return self.internal - self.load_term


def orientation_violations(bundle, ref, faces, eps=EPS_ORIENT):
    """(quantity, index, value) for the worst orientation defect of a plain
    bundle with face factors ``faces`` = (A^+_m, A^-_m), or None.

    The discrete admissible set requires a_m > eps * a_y0 and both face
    factors above eps at every node.  argmin returns the first NaN, so a
    NaN factor (a non-finite position upstream) is a violation at its node.
    """
    a_m = bundle["a"]
    plus, minus = faces
    checks = (
        ("midsurface area factor a_m", a_m, eps * ref.area),
        ("face factor A_m^+", plus, eps),
        ("face factor A_m^-", minus, eps),
    )
    worst = None
    for name, values, floor in checks:
        defect = values - floor
        idx = np.unravel_index(np.argmin(defect), defect.shape)
        if not defect[idx] > 0.0 and (worst is None
                                      or defect[idx] < worst[3]):
            worst = (name, idx, values[idx], defect[idx])
    if worst is None:
        return None
    return worst[:3]


# ---------------------------------------------------------------------------
# density kernels (plain fields of one bundle)
# ---------------------------------------------------------------------------

# The geometry pipeline stores the coupling form as II = -(grad m)^T grad n_m,
# but the thickness expansion of |F|^2 contracts +(grad m)^T grad n_m: the
# x3-linear block of (grad m + x3 grad n_m)^T (grad m + x3 grad n_m) is
# grad m^T grad n_m + its transpose = -2 II.  The II weights are negated so
# the contraction-slope table reproduces the through-thickness integral
# (checked by the natural-state and 3-D comparison tests; the cylinder is
# the sensitive case, the sphere's II-coefficients cancel identically).
# Per form: its sign and the bundle key of each matrix entry; the symmetric
# I and III store no 21 entry.
_FORM_KEYS = {
    "I": (1.0, {"11": "I11", "12": "I12", "21": "I12", "22": "I22"}),
    "II": (-1.0, {"11": "II11", "12": "II12", "21": "II21", "22": "II22"}),
    "III": (1.0, {"11": "III11", "12": "III12", "21": "III12",
                  "22": "III22"}),
}


def shell_coefficient_table(mean, gauss, h, full):
    """Thickness coefficients of the nine contraction blocks.

    Keys (p, form): p in {0, 1, 2} selects the contraction kernel
    F_p, form in {"I", "II", "III"} the deformed fundamental form.  ``full``
    keeps the fifth-order blocks (models I/III); otherwise they are dropped
    (model II).
    """
    h3 = h ** 3 / 12.0
    table = {
        (0, "I"): h - h3 * gauss,
        (0, "II"): -4.0 * h3 * mean,
        (0, "III"): h3,
        (1, "I"): np.zeros_like(mean),
        (1, "II"): 2.0 * h3,
        (2, "I"): h3,
        (2, "II"): np.zeros_like(mean),
        (2, "III"): np.zeros_like(mean),
    }
    if full:
        h5 = h ** 5 / 80.0
        table[(0, "I")] = table[(0, "I")] + h5 * gauss * gauss
        table[(0, "III")] = table[(0, "III")] - h5 * gauss
        table[(1, "I")] = -2.0 * h5 * mean * gauss
        table[(1, "II")] = table[(1, "II")] - 2.0 * h5 * gauss
        table[(2, "I")] = table[(2, "I")] + h5 * (4.0 * mean * mean - gauss)
        table[(2, "II")] = 4.0 * h5 * mean
        table[(2, "III")] = h5
    return table


def shell_form_weights(ref, mat, model):
    """The shell density's weights on the bundle's form components.

    The shell density is linear in the deformed forms, so these are plain
    reference fields keyed like the bundle (I11, I12, I22, II11, II12, II21,
    II22, III11, III12, III22): mu/2 sum_p coef(p, form) F_p entrywise, with
    the 12 and 21 kernel entries added for the symmetric I and III and
    negated for II (see ``_FORM_KEYS``).  They are the density's partials
    in the forms, since the standalone factor does not depend on the
    deformation in either constant mode.
    """
    table = shell_coefficient_table(ref.mean, ref.gauss, mat.h, model != 2)
    kernels = (ref.kernel0, ref.kernel1, ref.kernel2)
    weights = {}
    for (p, name), coef in table.items():
        sign, keys = _FORM_KEYS[name]
        for ij, key in keys.items():
            entry = kernels[p][..., int(ij[0]) - 1, int(ij[1]) - 1]
            term = (0.5 * mat.mu * sign) * coef * entry
            weights[key] = weights.get(key, 0.0) + term
    return weights


def w_shell(bundle, ref, mat, model, constants="oracle", weights=None):
    """Trace density mu/2 (h + h^3 K/12) + sum_k weights[k] bundle[k].

    ``weights`` may pass in :func:`shell_form_weights` of (ref, mat,
    model).  The model-II standalone factor is read as the as-published
    h + h^3 K/6 under ``paper``.
    """
    if weights is None:
        weights = shell_form_weights(ref, mat, model)
    denom = 6.0 if model == 2 and constants == "paper" else 12.0
    acc = 0.5 * mat.mu * (mat.h + mat.h ** 3 * ref.gauss / denom)
    for key, weight in weights.items():
        acc = acc + weight * bundle[key]
    return acc


def _log_coefficient(mat, constants):
    if constants == "oracle":
        return -(mat.mu + 0.5 * mat.lam)
    return -(mat.lam + 2.0 * mat.mu) / 4.0


def w_curv_log(bundle, ref, mat, constants, faces):
    """Three-point thickness rule for the logarithmic volume term, given the
    bundle's face factors ``faces`` = (A^+_m, A^-_m).

    bracket = A^-_y0 [log(a_m A^-_m) - log(a_y0 A^-_y0)]
              + 4 [log a_m - log a_y0]
              + A^+_y0 [log(a_m A^+_m) - log(a_y0 A^+_y0)]
    density = coef * (h/6) * bracket.
    """
    a_m = bundle["a"]
    plus_m, minus_m = faces
    log_a0 = np.log(ref.area)
    log_p0 = np.log(ref.area * ref.a_plus)
    log_m0 = np.log(ref.area * ref.a_minus)
    bracket = (
        ref.a_minus * (np.log(a_m * minus_m) - log_m0)
        + 4.0 * (np.log(a_m) - log_a0)
        + ref.a_plus * (np.log(a_m * plus_m) - log_p0)
    )
    return _log_coefficient(mat, constants) * (mat.h / 6.0) * bracket


def w_curv_det2_simpson(bundle, ref, mat, constants, faces):
    """Three-point thickness rule for the squared-volume term (models I, II).

    Under ``paper`` the block keeps its as-published interior area factor.
    """
    a_m = bundle["a"]
    plus_m, minus_m = faces
    r0 = a_m / ref.area
    r_plus = a_m * plus_m / (ref.area * ref.a_plus)
    r_minus = a_m * minus_m / (ref.area * ref.a_minus)
    bracket = (ref.a_minus * r_minus * r_minus + 4.0 * r0 * r0
               + ref.a_plus * r_plus * r_plus)
    density = 0.25 * mat.lam * (mat.h / 6.0) * bracket
    if constants == "paper":
        density = density * ref.area
    return density


def det_square_bracket(mean, gauss, d_mean, d_gauss, h):
    """int (b_m/b)^2 b dx3 through fifth order (error O(h^7)).

    = h + h^3/12 (K + 4 dH^2 + 2 dK)
        + h^5/80 (16 H^2 dH^2 - 8 H dH dK - 4 K dH^2 + dK^2),
    with reference curvatures (mean, gauss) = (H, K) and the deformed
    state's offsets (d_mean, d_gauss) = (dH, dK); complex offsets pass
    through.
    """
    H, K, dH, dK = mean, gauss, d_mean, d_gauss
    h3 = h ** 3 / 12.0
    h5 = h ** 5 / 80.0
    return (h + h3 * (K + 4.0 * dH * dH + 2.0 * dK)
            + h5 * (16.0 * H * H * dH * dH - 8.0 * H * dH * dK
                    - 4.0 * K * dH * dH + dK * dK))


def w_curv_det2_taylor(bundle, ref, mat, constants="oracle"):
    """Closed-form thickness expansion of the squared-volume term (model III):
    (lam/4) (a_m/a_y0)^2 times :func:`det_square_bracket` of
    dH = H_m - H, dK = K_m - K (reference curvatures unsubscripted).
    """
    bracket = det_square_bracket(ref.mean, ref.gauss, bundle["H"] - ref.mean,
                                 bundle["K"] - ref.gauss, mat.h)
    ratio = bundle["a"] / ref.area
    density = 0.25 * mat.lam * ratio * ratio * bracket
    if constants == "paper":
        density = density * ref.area
    return density


def density_partials(bundle, faces, det2, ref, mat, model,
                     constants="oracle"):
    """Closed-form partials (d_a, d_H, d_K) of a model's density in the
    area factor a_m and the curvatures H_m and K_m of a plain bundle, given
    the bundle's face factors (A^+_m, A^-_m) and its squared-volume density
    ``det2`` as the value path computed them.

    The log and squared-volume terms are the density's only dependence on
    a_m, H_m and K_m; the shell term is linear in the forms with the
    reference-only partials of :func:`shell_form_weights`, and the
    standalone and constant terms do not depend on the deformation.

    - log: coef (h/6) [A^-_y0 log(a_m A^-_m) + 4 log a_m
      + A^+_y0 log(a_m A^+_m)] plus a constant, so its a_m-partial is
      coef (h/6) (A^-_y0 + 4 + A^+_y0) / a_m and its A^+-_m-partial
      coef (h/6) A^+-_y0 / A^+-_m;
    - det^2 (both rules) is quadratic in a_m, so its a_m-partial is
      2 w / a_m; Simpson's A^+-_m-partial is (lam/2)(h/6)(a_m/a_y0)^2
      A^+-_m / A^+-_y0, Taylor's H_m- and K_m-partials differentiate its
      bracket in dH and dK; ``paper`` multiplies both rules by a_y0;
    - the face factors A^+-_m = 1 -+ h H_m + h^2 K_m / 4 carry the A^+-_m
      partials into H_m (-+h) and K_m (h^2/4).
    """
    a_m, mean, gauss = bundle["a"], bundle["H"], bundle["K"]
    h = mat.h
    plus_m, minus_m = faces
    coef = _log_coefficient(mat, constants) * (h / 6.0)
    d_a = coef * (ref.a_minus + 4.0 + ref.a_plus) / a_m
    d_plus = coef * ref.a_plus / plus_m
    d_minus = coef * ref.a_minus / minus_m
    ratio2 = (a_m / ref.area) ** 2
    scale = 0.25 * mat.lam * (ref.area if constants == "paper" else 1.0)
    if model == 3:
        d_mean = mean - ref.mean
        d_gauss = gauss - ref.gauss
        h3 = h ** 3 / 12.0
        h5 = h ** 5 / 80.0
        d_h = scale * ratio2 * (
            8.0 * h3 * d_mean
            + h5 * (32.0 * ref.mean ** 2 * d_mean - 8.0 * ref.mean * d_gauss
                    - 8.0 * ref.gauss * d_mean))
        d_k = scale * ratio2 * (
            2.0 * h3 + h5 * (2.0 * d_gauss - 8.0 * ref.mean * d_mean))
    else:
        q = 2.0 * scale * (h / 6.0) * ratio2
        d_plus = d_plus + q * plus_m / ref.a_plus
        d_minus = d_minus + q * minus_m / ref.a_minus
        d_h = d_k = 0.0
    d_a = d_a + 2.0 * det2 / a_m
    return (d_a, d_h + h * (d_minus - d_plus),
            d_k + 0.25 * h * h * (d_plus + d_minus))


def constant_density(ref, mat, constants="oracle"):
    """Deformation-independent additive density."""
    base = -(1.5 * mat.mu + 0.25 * mat.lam)
    if constants == "oracle":
        return base * (mat.h + mat.h ** 3 * ref.gauss / 12.0)
    return base * np.ones_like(ref.gauss)


def energy_density_fields(bundle, ref, mat, model, constants="oracle",
                          faces=None, weights=None, constant=None):
    """The four density fields of a model, keyed like EnergyBreakdown.
    ``faces``, ``weights`` and ``constant`` may pass in the bundle's face
    factors at ``mat.h``, :func:`shell_form_weights` and
    :func:`constant_density`.  Like the ``w_*`` terms it checks nothing:
    :class:`ReducedEnergy` checks the model, mode and thickness per run."""
    shell = w_shell(bundle, ref, mat, model, constants, weights)
    if faces is None:
        faces = face_factors(bundle["H"], bundle["K"], mat.h)
    log_term = w_curv_log(bundle, ref, mat, constants, faces)
    if model == 3:
        det2 = w_curv_det2_taylor(bundle, ref, mat, constants)
    else:
        det2 = w_curv_det2_simpson(bundle, ref, mat, constants, faces)
    if constant is None:
        constant = constant_density(ref, mat, constants)
    return {
        "shell": shell,
        "curv_log": log_term,
        "curv_det2": det2,
        "constant": constant,
    }


# ---------------------------------------------------------------------------
# the reduced energy of one run
# ---------------------------------------------------------------------------

class ReducedEnergy:
    """A model's reduced energy on one reference: the per-run checks and
    the reference-only fields that every evaluation reads, all at the one
    thickness ``mat.h``.  The reference's face factors are rebuilt for it
    (:func:`~shellreduce.geometry.with_thickness`) and ``loads``, a 3-D
    LoadSpec (or None), is reduced at it."""

    def __init__(self, ref, mat, model, constants="oracle", loads=None):
        if model not in MODELS:
            raise ConfigError("model must be one of %s, got %r"
                              % (MODELS, model))
        if constants not in CONSTANT_MODES:
            raise ConfigError("constants mode must be one of %s, got %r"
                              % (CONSTANT_MODES, constants))
        # b(x3) = 1 - 2 H x3 + K x3^2 stays positive through the slab iff
        # h sup|kappa| < 2; on a sphere it can vanish inside while both faces
        # stay positive, so the face factors alone are not the test
        if mat.h * ref.kappa_sup >= 2.0:
            raise ThicknessError(
                "thickness h = %g exceeds the geometric bound "
                "(h sup|kappa| = %.3f, needs < 2)"
                % (mat.h, mat.h * ref.kappa_sup))
        self.ref = ref = with_thickness(ref, mat.h)
        self.mat = mat
        self.model = model
        self.constants = constants
        self.w2d = area_weights(ref.grid) * ref.area
        # the shell density is linear in the forms: its value and its
        # partials both read these reference-only weights
        self.form_weights = shell_form_weights(ref, mat, model)
        self.constant = constant_density(ref, mat, constants)
        self.load = load_covector(
            None if loads is None else reduce_loads(loads, mat.h), ref)

    def evaluate(self, bundle, positions, eps=None):
        """(internal energy, load potential, face factors, density fields)
        of a plain bundle and its nodal ``positions``.

        The orientation check raises OrientationViolation at EPS_ORIENT;
        with ``eps`` given it returns None where a defect reaches that floor.
        The internal energy sums the density and the constant node by node:
        their separate sums cancel near the natural state, leaving more
        round-off than late descents move.
        """
        faces = face_factors(bundle["H"], bundle["K"], self.mat.h)
        bad = orientation_violations(
            bundle, self.ref, faces, EPS_ORIENT if eps is None else eps)
        if bad is not None:
            if eps is not None:
                return None
            name, idx, value = bad
            raise OrientationViolation(idx, name, value)
        fields = energy_density_fields(bundle, self.ref, self.mat, self.model,
                                       self.constants, faces,
                                       self.form_weights, self.constant)
        density = fields["shell"] + fields["curv_log"] + fields["curv_det2"]
        internal = float(np.sum(self.w2d * (density + self.constant)))
        load = float(self.load.potential(positions, bundle["n"]))
        return internal, load, faces, fields


def total_energy(state, ref, mat, model, constants="oracle", loads=None):
    """Integrate a model's densities over the midsurface
    (:meth:`ReducedEnergy.evaluate`, the minimizer's evaluation).

    ``loads`` is a 3-D LoadSpec (or None), reduced at ``mat.h``; its
    potential enters the total with a minus sign.
    """
    energy = ReducedEnergy(ref, mat, model, constants, loads)
    internal, load_term, _, fields = energy.evaluate(state.bundle,
                                                     state.positions)
    parts = {key: float(np.sum(energy.w2d * fields[key])) for key in fields}
    return EnergyBreakdown(
        shell_term=parts["shell"],
        curv_log_term=parts["curv_log"],
        curv_det2_term=parts["curv_det2"],
        constant_term=parts["constant"],
        internal=internal,
        load_term=load_term,
        model=model,
        constants=constants,
        fields=fields,
    )
