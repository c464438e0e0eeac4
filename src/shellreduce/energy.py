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
- ``w_curv_det2`` squared-volume term, a quadratic form in
  (a_m/a_y0) (1, H_m - H, K_m - K) whose reference-only matrix
  :func:`det2_form` builds from the three-point rule (models I and II,
  a sum of squares) or the closed-form thickness expansion (model III).

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
whose partials :func:`density_partials` returns as plain fields, the
squared-volume ones from the same :func:`det2_form` as its value and the
Hessian of :func:`~shellreduce.admissibility.volume_quadratic_hessian`; the
standalone and constant terms do not depend on the deformation.  The
minimizer seeds the adjoint of ``surface_bundle``
(:func:`~shellreduce.geometry.surface_bundle_vjp`) with these partials.

:class:`ReducedEnergy` is the record of one run and the one place a
thickness (``mat.h``) or a calibration enters the energy: it builds the
reference's face factors at ``mat.h``, and the terms,
:func:`energy_density_fields` and :func:`density_partials` read it as
``(bundle, energy, faces)``.  :func:`total_energy` and the minimizer's
``ShellObjective`` (a subclass) both evaluate through it.  A deformed
configuration enters as the per-node record the reference is built on,
:func:`~shellreduce.geometry.deformed_state`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OrientationViolation
# re-exported only for the benchmark (perfbench/), which calls
# shellreduce.energy.deformed_state; ROADMAP item 4 deletes it
from .geometry import DeformedState, deformed_state  # noqa: F401
from .geometry import MAX_MATERIAL, face_factors
from .grids import area_weights
from .loads import load_covector, reduce_loads

MODELS = (1, 2, 3)
CONSTANT_MODES = ("oracle", "paper")

EPS_ORIENT = 1e-10


@dataclass(frozen=True)
class MaterialParams:
    """Material constants and thickness, each positive and finite, inside
    (1 / MAX_MATERIAL, MAX_MATERIAL)."""

    mu: float
    lam: float
    h: float

    def __post_init__(self):
        values = (self.mu, self.lam, self.h)
        if not all(1.0 / MAX_MATERIAL < v < MAX_MATERIAL for v in values):
            raise ConfigError("material parameters must be positive and "
                              "finite, in (%g, %g): mu=%g lam=%g h=%g"
                              % ((1.0 / MAX_MATERIAL, MAX_MATERIAL) + values))


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
    factors above eps at every node.  A NaN minimum defect is not positive
    and argmin returns the first NaN, so a NaN factor (a non-finite
    position upstream) is a violation at its node.
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
        if defect.min() > 0.0:
            continue
        idx = np.unravel_index(np.argmin(defect), defect.shape)
        if worst is None or defect[idx] < worst[3]:
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
        scaled = (0.5 * mat.mu * sign) * coef
        for ij, key in keys.items():
            # the first add is 0.0 + term, which turns -0.0 into +0.0
            weights[key] = weights.get(key, 0.0) + scaled * kernels[p][ij]
    return weights


def w_shell(bundle, energy):
    """Trace density: the run's standalone term mu/2 (h + h^3 K/12), read as
    h + h^3 K/6 for model II under ``paper``, plus sum_k weights[k]
    bundle[k] over the run's :func:`shell_form_weights`."""
    acc = energy.standalone
    for key, weight in energy.form_weights.items():
        acc = acc + weight * bundle[key]
    return acc


def w_curv_log(bundle, energy, faces):
    """Three-point thickness rule for the logarithmic volume term, given the
    bundle's face factors ``faces`` = (A^+_m, A^-_m).

    bracket = A^-_y0 [log(a_m A^-_m) - log(a_y0 A^-_y0)]
              + 4 [log a_m - log a_y0]
              + A^+_y0 [log(a_m A^+_m) - log(a_y0 A^+_y0)]
    density = coef * (h/6) * bracket.
    """
    a_m = bundle["a"]
    plus_m, minus_m = faces
    bracket = (
        energy.minus0 * (np.log(a_m * minus_m) - energy.log_minus0)
        + 4.0 * (np.log(a_m) - energy.log_area0)
        + energy.plus0 * (np.log(a_m * plus_m) - energy.log_plus0)
    )
    return energy.log_coef * bracket


def det2_form(mean, gauss, h, faces=None):
    """The five nonzero planes (m00, m02, m11, m12, m22) of the symmetric
    3x3 M, m01 = 0, that both thickness rules integrate (b_m/b)^2 b dx3 to:
    (1/2) v^T M v with v = (1, H_m - H, K_m - K).  m00 = 2h + K h^3/6 and
    m02 = h^3/6.  ``faces`` = None gives the fifth-order Taylor expansion
    (model III, error O(h^7)): m11 = 2h^3/3 + h^5/40 (16 H^2 - 4K),
    m12 = -H h^5/10, m22 = h^5/40.  The reference face factors ``faces`` =
    (A^+_y0, A^-_y0) give Simpson's rule (models I, II), the sum of squares
    (h/6) [A^-_y0 (A^-_m/A^-_y0)^2 + 4 + A^+_y0 (A^+_m/A^+_y0)^2]:
    m11 = (h^3/3) s, m12 = (h^4/12) d, m22 = (h^5/48) s, with
    s, d = 1/A^-_y0 +- 1/A^+_y0."""
    h3 = h ** 3
    m00 = 2.0 * h + gauss * (h3 / 6.0)
    m02 = h3 / 6.0
    if faces is None:
        h5 = h ** 5
        m11 = 2.0 * h3 / 3.0 + (h5 / 10.0) * (4.0 * mean * mean - gauss)
        return m00, m02, m11, -mean * (h5 / 10.0), h5 / 40.0
    inv_plus, inv_minus = 1.0 / faces[0], 1.0 / faces[1]
    s, d = inv_minus + inv_plus, inv_minus - inv_plus
    return m00, m02, (h3 / 3.0) * s, (h ** 4 / 12.0) * d, (h ** 5 / 48.0) * s


def _form_at(form, d_mean, d_gauss):
    """(1/2) v^T M v at v = (1, dH, dK), and rows 1 and 2 of M v, its dH-
    and dK-partials."""
    m00, m02, m11, m12, m22 = form
    row_h = m11 * d_mean + m12 * d_gauss
    row_k = m02 + m12 * d_mean + m22 * d_gauss
    return (0.5 * (m00 + m02 * d_gauss + d_mean * row_h + d_gauss * row_k),
            row_h, row_k)


def det_square_bracket(mean, gauss, d_mean, d_gauss, h):
    """int (b_m/b)^2 b dx3 through fifth order (error O(h^7)): the Taylor
    :func:`det2_form`'s (1/2) v^T M v at the reference curvatures (mean,
    gauss) = (H, K) and v = (1, d_mean, d_gauss); complex offsets pass
    through."""
    return _form_at(det2_form(mean, gauss, h), d_mean, d_gauss)[0]


def w_curv_det2(bundle, energy):
    """The squared-volume term of either rule: (a_m/a_y0)^2 (1/2) v^T M v
    over the run's :func:`det2_form`, which carries (lam/4) and, under
    ``paper``, the as-published interior area factor."""
    ref = energy.ref
    ratio = bundle["a"] / ref.area
    return ratio * ratio * _form_at(energy.det2_form, bundle["H"] - ref.mean,
                                    bundle["K"] - ref.gauss)[0]


def density_partials(bundle, energy, faces, det2):
    """Closed-form partials (d_a, d_H, d_K) of a run's density in the
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
      coef (h/6) A^+-_y0 / A^+-_m, which the face factors
      A^+-_m = 1 -+ h H_m + h^2 K_m / 4 carry into H_m (-+h) and
      K_m (h^2/4);
    - det^2 (either rule) is (a_m/a_y0)^2 (1/2) v^T M v with
      v = (1, dH, dK): its a_m-partial is 2 det2 / a_m, its H_m- and
      K_m-partials (a_m/a_y0)^2 times rows 1 and 2 of M v.
    """
    a_m = bundle["a"]
    ref, h = energy.ref, energy.mat.h
    d_plus = energy.d_log_plus / faces[0]
    d_minus = energy.d_log_minus / faces[1]
    ratio2 = (a_m / ref.area) ** 2
    _, row_h, row_k = _form_at(energy.det2_form, bundle["H"] - ref.mean,
                               bundle["K"] - ref.gauss)
    return (energy.d_log_area / a_m + 2.0 * det2 / a_m,
            ratio2 * row_h + h * (d_minus - d_plus),
            ratio2 * row_k + 0.25 * h * h * (d_plus + d_minus))


def constant_density(ref, mat, constants="oracle"):
    """Deformation-independent additive density."""
    base = -(1.5 * mat.mu + 0.25 * mat.lam)
    if constants == "oracle":
        return base * (mat.h + mat.h ** 3 * ref.gauss / 12.0)
    return base * np.ones_like(ref.gauss)


def energy_density_fields(bundle, energy, faces):
    """The four density fields of the run ``energy``, keyed like
    EnergyBreakdown, for a bundle with face factors ``faces`` (A^+_m, A^-_m)
    at its thickness.  Like the ``w_*`` terms it checks nothing."""
    return {
        "shell": w_shell(bundle, energy),
        "curv_log": w_curv_log(bundle, energy, faces),
        "curv_det2": w_curv_det2(bundle, energy),
        "constant": energy.constant,
    }


# ---------------------------------------------------------------------------
# the reduced energy of one run
# ---------------------------------------------------------------------------

class ReducedEnergy:
    """A model's reduced energy on one reference, and the record that its
    density terms and :func:`density_partials` read: the per-run checks, the
    calibration and every reference-only factor, decided once at the one
    thickness ``mat.h``, at which the reference's face factors ``plus0``,
    ``minus0`` are built and ``loads`` (a 3-D LoadSpec or None) reduced."""

    def __init__(self, ref, mat, model, constants="oracle", loads=None):
        if model not in MODELS:
            raise ConfigError("model must be one of %s, got %r"
                              % (MODELS, model))
        if constants not in CONSTANT_MODES:
            raise ConfigError("constants mode must be one of %s, got %r"
                              % (CONSTANT_MODES, constants))
        ref.require_slab(mat.h)
        self.ref = ref
        self.mat = mat
        self.model = model
        self.w2d = area_weights(ref.grid) * ref.area
        # the shell density is linear in the forms: its value and its
        # partials both read these reference-only weights
        self.form_weights = shell_form_weights(ref, mat, model)
        self.constant = constant_density(ref, mat, constants)
        self.load = load_covector(
            None if loads is None else reduce_loads(loads, mat.h), ref)
        # calibration; each factor is a term's exact subexpression, in order
        paper = constants == "paper"
        h = mat.h
        denom = 6.0 if model == 2 and paper else 12.0
        coef = (-(mat.lam + 2.0 * mat.mu) / 4.0 if paper
                else -(mat.mu + 0.5 * mat.lam))
        self.plus0, self.minus0 = face_factors(ref.mean, ref.gauss, h)
        self.standalone = 0.5 * mat.mu * (h + h ** 3 * ref.gauss / denom)
        self.log_coef = coef * (h / 6.0)
        self.log_area0 = np.log(ref.area)
        self.log_plus0 = np.log(ref.area * self.plus0)
        self.log_minus0 = np.log(ref.area * self.minus0)
        self.d_log_area = self.log_coef * (self.minus0 + 4.0 + self.plus0)
        self.d_log_plus = self.log_coef * self.plus0
        self.d_log_minus = self.log_coef * self.minus0
        # the squared-volume term's one form, with the paper's interior a_y0
        scale = 0.25 * mat.lam * (ref.area if paper else 1.0)
        self.det2_form = tuple(scale * m for m in det2_form(
            ref.mean, ref.gauss, h,
            None if model == 3 else (self.plus0, self.minus0)))

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
        fields = energy_density_fields(bundle, self, faces)
        density = fields["shell"] + fields["curv_log"] + fields["curv_det2"]
        internal = float((self.w2d * (density + self.constant)).sum())
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
