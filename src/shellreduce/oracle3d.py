"""Brute-force 3-D verification oracle for the reduced models.

The reduced energies claim to equal (up to a known thickness order) the
through-thickness integral of the parent 3-D stored energy

    W(F) = mu/2 (|F|^2 - 2 log det F - 3)
         + lam/4 ((det F)^2 - 2 log det F - 1)

evaluated on the normal-extension ansatz

    Phi(x', x3)   = m(x') + x3 n_m(x'),
    Theta(x', x3) = y0(x') + x3 n_y0(x'),
    F = grad Phi (grad Theta)^{-1}.

W reads F only through |F|^2 and det F, and on this ansatz both are exact
functions of the two midsurfaces' fundamental forms, with no thickness
expansion.  n . dn = 0 and n . d_alpha y = 0 make
(grad Phi)^T grad Phi = diag(G_m(x3), 1), with the tangent metric

    G(x3) = I - x3 (II + II^T) + x3^2 III

of each configuration, and likewise for Theta with G_0, so that

    |F|^2 = 1 + tr(G_m adj G_0) / det G_0,   (det F)^2 = det G_m / det G_0,
    det G_0 = (a_y0 b_y0(x3))^2,            det F = a_m b_m / (a_y0 b_y0),

with b(x3) = 1 - 2 H x3 + K x3^2.  W is stationary at F = Id, so an error
in |F|^2 or det F alone would enter W at first order.  :func:`integrate_3d`
therefore reads both as differences from Id's, through the metric strain
dG = G_m - G_0 and the mean metric Gbar = (G_m + G_0) / 2 (for 2x2 matrices
tr(A adj A) = 2 det A, and det is a quadratic form):

    |F|^2 - 3     = tr(dG adj G_0) / det G_0,
    (det F)^2 - 1 = tr(dG adj Gbar) / det G_0.

Both numerators are quartics in x3 whose per-node coefficients do not
depend on x3: they are built once per call from the bundles, and each
thickness node costs a few Horner steps on (n1, n2) planes, with no 3x3
stack.  Their round-off is relative to the strain rather than to 3 and 1,
and the natural state (dG = 0) reads W = 0 exactly.  :func:`ansatz_point`
still assembles F itself from the frames; it is the slow oracle the fast
path is tested against.

W is integrated over the slab with Gauss-Legendre or composite-Simpson
rules through the thickness and the tensor Simpson rule over the surface.
The module also exposes the closed-form thickness-moment/coefficient
tables the reduced densities are built from, so tests can pin them against
independent re-derivations.
"""

from __future__ import annotations

import numpy as np

from .energy import MaterialParams, total_energy
from .errors import ConfigError, NonPositiveDeterminant
from .geometry import deformed_state, face_factors, form22, require_thickness
from .grids import area_weights, thickness_rule
from .reference import build_reference

EYE3 = np.eye(3)


def det3(F):
    """Determinants of a (..., 3, 3) stack by cofactor expansion."""
    return (F[..., 0, 0] * (F[..., 1, 1] * F[..., 2, 2]
                            - F[..., 1, 2] * F[..., 2, 1])
            - F[..., 0, 1] * (F[..., 1, 0] * F[..., 2, 2]
                              - F[..., 1, 2] * F[..., 2, 0])
            + F[..., 0, 2] * (F[..., 1, 0] * F[..., 2, 1]
                              - F[..., 1, 1] * F[..., 2, 0]))


def _strain_energy(excess, rho, mu, lam):
    """W from |F|^2 - 3 (``excess``) and rho = (det F)^2 - 1:

        W = mu/2 (excess - log(1 + rho)) + lam/4 (rho - log(1 + rho)).
    """
    log_det2 = np.log1p(rho)
    return 0.5 * mu * (excess - log_det2) + 0.25 * lam * (rho - log_det2)


def stored_energy(F, mu, lam):
    """Pointwise 3-D stored energy of deformation gradients F (..., 3, 3)."""
    det = det3(F)
    if np.any(det <= 0.0):
        idx = np.unravel_index(np.argmin(det), det.shape)
        raise NonPositiveDeterminant(det[idx], tuple(int(k) for k in idx))
    log_det = np.log(det)
    frob2 = np.einsum("...ij,...ij->...", F, F)
    return (0.5 * mu * (frob2 - 2.0 * log_det - 3.0)
            + 0.25 * lam * (det * det - 2.0 * log_det - 1.0))


# ---------------------------------------------------------------------------
# ansatz frames
# ---------------------------------------------------------------------------

def _frame(col1, col2, col3):
    """[col1 | col2 | col3] of three (..., 3) fields as (..., 3, 3)."""
    return np.stack([col1, col2, col3], axis=-1)


def _inverse_frame(ref):
    """T0^{-1} of the reference frame T0 = [d1 | d2 | n]: the unit normal
    is orthogonal to d1 and d2, so T0^{-1} stacks I^{-1} (grad y)^T (with
    I^{-1} = ``kernel0``) over n^T."""
    k0 = {ij: plane[..., None] for ij, plane in ref.kernel0.items()}
    out = np.empty(ref.d1.shape + (3,))
    out[..., 0, :] = k0["11"] * ref.d1 + k0["12"] * ref.d2
    out[..., 1, :] = k0["21"] * ref.d1 + k0["22"] * ref.d2
    out[..., 2, :] = ref.normal
    return out


def thickness_jacobian(mean, gauss, x3):
    """b(x3) = 1 - 2 H x3 + K x3^2 (pointwise det ratio through thickness)."""
    return 1.0 - 2.0 * mean * x3 + gauss * x3 * x3


def _ansatz_coefficients(ref, state):
    """Per-node (M0, M1, M2) with b(x3) F(x3) = M0 + x3 M1 + x3^2 M2.

    With T0 = [d1 | d2 | n] of the reference and R = T0^{-1},
    grad Theta(x3) = T0 (Id - x3 L^) for the lifted shape operator L^, whose
    adjugate gives (grad Theta)^{-1} b = (Id + x3 C1 + x3^2 K e3 e3^T) R
    with C1 = L^ - 2H Id.  grad Phi(x3) = P0 + x3 P1, and P1 = [dn1 | dn2 | 0]
    has no normal column, so the cubic term x3^3 K P1 e3 e3^T R vanishes:
        M0 = P0 R,  M1 = (P1 + P0 C1) R,  M2 = (P1 C1 + K P0 e3 e3^T) R.
    """
    inv_frame0 = _inverse_frame(ref)
    c1 = np.zeros(ref.mean.shape + (3, 3))
    c1[..., :2, :2] = form22(ref.bundle, "L")
    c1 -= 2.0 * ref.mean[..., None, None] * EYE3
    p0 = _frame(state.d1, state.d2, state.normal)
    p1 = _frame(state.bundle["dn1"], state.bundle["dn2"],
                np.zeros_like(state.normal))
    p2 = np.matmul(p1, c1)
    p2[..., 2] += ref.gauss[..., None] * state.normal
    return (np.matmul(p0, inv_frame0),
            np.matmul(p1 + np.matmul(p0, c1), inv_frame0),
            np.matmul(p2, inv_frame0))


def _ansatz_gradient(coeffs, b, x3):
    """F(x3) from _ansatz_coefficients by Horner, divided by b = b(x3)."""
    m0, m1, m2 = coeffs
    return (m0 + x3 * (m1 + x3 * m2)) / b[..., None, None]


def ansatz_point(ref, state, x3):
    """Deformation-gradient data of the ansatz at offset x3.

    Returns a dict with grad_theta, F, det_F and the reference thickness
    Jacobian b.
    """
    x3 = float(x3)
    grad_theta = _frame(ref.d1 + x3 * ref.bundle["dn1"],
                        ref.d2 + x3 * ref.bundle["dn2"], ref.normal)
    b = thickness_jacobian(ref.mean, ref.gauss, x3)
    F = _ansatz_gradient(_ansatz_coefficients(ref, state), b, x3)
    return {"grad_theta": grad_theta, "F": F, "det_F": det3(F), "b": b}


def _metric_coefficients(bundle):
    """The x3^0, x3^1, x3^2 coefficients I, -(II + II^T), III of a
    bundle's tangent metric G(x3), each as its (11, 12, 22) planes."""
    b = bundle
    return ((b["I11"], b["I12"], b["I22"]),
            (-2.0 * b["II11"], -(b["II12"] + b["II21"]), -2.0 * b["II22"]),
            (b["III11"], b["III12"], b["III22"]))


def _adjugate_trace(a, b):
    """Per-node x3^0 .. x3^4 coefficients of tr(A(x3) adj B(x3)) for two
    metrics given by their quadratic coefficients, each as (11, 12, 22)
    planes: tr(A adj B) = A11 B22 + A22 B11 - 2 A12 B12 for symmetric 2x2
    A, B."""
    out = [None] * 5
    for p, (a11, a12, a22) in enumerate(a):
        for q, (b11, b12, b22) in enumerate(b):
            term = a11 * b22 + a22 * b11 - 2.0 * (a12 * b12)
            out[p + q] = term if out[p + q] is None else out[p + q] + term
    return out


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k for a scalar x, in one new array."""
    acc = coeffs[-1] * x
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= x
    acc += coeffs[0]
    return acc


def _invariant_numerators(state, ref):
    """Per-node x3^0 .. x3^4 coefficients of tr(dG adj G_0) and
    tr(dG adj Gbar), the numerators of |F|^2 - 3 and (det F)^2 - 1 over
    det G_0 (see the module docstring)."""
    metric_m = _metric_coefficients(state.bundle)
    metric_0 = _metric_coefficients(ref.bundle)
    strain = [[m - g for m, g in zip(*pair)]
              for pair in zip(metric_m, metric_0)]
    mean_metric = [[0.5 * (m + g) for m, g in zip(*pair)]
                   for pair in zip(metric_m, metric_0)]
    return (_adjugate_trace(strain, metric_0),
            _adjugate_trace(strain, mean_metric))


def integrate_3d(state, ref, mat, rule=("gauss", 16)):
    """Slab integral of the parent stored energy over the ansatz.

    integral = sum_x3 w(x3) sum_nodes W2d a_y0 b_y0(x3) W(F(x', x3)), with
    |F|^2 - 3 and (det F)^2 - 1 read from the two bundles' fundamental
    forms as the quartics of the module docstring.

    Raises ThicknessError unless ``mat.h`` < ``ref.h_geom`` (b_y0 would
    vanish inside the slab), and NonPositiveDeterminant where
    det F = a_m b_m / (a_y0 b_y0) <= 0, at the grid node of the smallest
    det F at the first thickness node where one is.
    """
    ref.require_slab(mat.h)
    kind, count = rule
    nodes, weights = thickness_rule(kind, count, mat.h)
    frob_excess, det2_excess = _invariant_numerators(state, ref)
    jacobian_0 = (1.0, -2.0 * ref.mean, ref.gauss)
    jacobian_m = (1.0, -2.0 * state.mean, state.gauss)
    area2 = ref.area * ref.area
    w2d = area_weights(ref.grid) * ref.area
    total = 0.0
    for x3, w in zip(nodes, weights):
        b = _horner(jacobian_0, x3)
        b_m = _horner(jacobian_m, x3)
        if b_m.min() <= 0.0:
            det = state.area * b_m / (ref.area * b)
            idx = np.unravel_index(np.argmin(det), det.shape)
            raise NonPositiveDeterminant(det[idx], tuple(int(k) for k in idx))
        inv_det_0 = 1.0 / (area2 * b * b)
        density = _strain_energy(_horner(frob_excess, x3) * inv_det_0,
                                 _horner(det2_excess, x3) * inv_det_0,
                                 mat.mu, mat.lam)
        total += w * float(np.sum(w2d * b * density))
    return total


def simpson_point_products(state, ref):
    """det F at the three-point rule nodes, scaled back to volume factors.

    At x3 in {-h/2, 0, +h/2} the ansatz satisfies
    a_y0 b_y0(x3) det F(x3) = a_m b_m(x3), so the products must reproduce
    a_m A_m^-, a_m, a_m A_m^+ exactly, with the state's face factors at
    ``ref.h``.  Returns (via_det, direct) dicts for keys "minus", "mid",
    "plus".
    """
    h = ref.h
    plus, minus = face_factors(state.mean, state.gauss, h)
    via = {}
    for key, x3 in (("minus", -0.5 * h), ("mid", 0.0), ("plus", 0.5 * h)):
        point = ansatz_point(ref, state, x3)
        via[key] = point["det_F"] * ref.area * point["b"]
    direct = {
        "minus": state.area * minus,
        "mid": state.area,
        "plus": state.area * plus,
    }
    return via, direct


# ---------------------------------------------------------------------------
# printed coefficient tables (closed-form thickness quantities)
# ---------------------------------------------------------------------------

def trace_moment_coefficients(mean, gauss, h):
    """Truncated thickness moments alpha_p = int x3^p / b(x3) dx3.

    Closed forms through fifth order (error O(h^7)):
        alpha_0 = h + h^3/12 (4H^2 - K) + h^5/80 (16H^4 - 12H^2 K + K^2)
        alpha_1 = h^3/12 (2H) + h^5/80 (8H^3 - 4HK)
        alpha_2 = h^3/12 + h^5/80 (4H^2 - K)
        alpha_3 = h^5/80 (2H)
        alpha_4 = h^5/80
    """
    mean = np.asarray(mean, dtype=float)
    gauss = np.asarray(gauss, dtype=float)
    h3 = h ** 3 / 12.0
    h5 = h ** 5 / 80.0
    h2 = mean * mean
    return {
        0: h + h3 * (4.0 * h2 - gauss)
           + h5 * (16.0 * h2 * h2 - 12.0 * h2 * gauss + gauss * gauss),
        1: h3 * 2.0 * mean + h5 * (8.0 * h2 * mean - 4.0 * mean * gauss),
        2: h3 + h5 * (4.0 * h2 - gauss),
        3: h5 * 2.0 * mean,
        4: h5,
    }


def det_square_series(mean, gauss, d_mean, d_gauss):
    """x3-polynomial coefficients of (b_m(x3)/b_y0(x3))^2 - 1 through x3^4.

    All arguments are reference curvatures (mean, gauss) and curvature
    offsets of the deformed state.  Returns {1: c1, ..., 4: c4} with
    (b_m/b)^2 = 1 + c1 x3 + c2 x3^2 + c3 x3^3 + c4 x3^4 + O(x3^5).
    """
    H, K = np.asarray(mean, dtype=float), np.asarray(gauss, dtype=float)
    dH, dK = np.asarray(d_mean, dtype=float), np.asarray(d_gauss, dtype=float)
    c1 = -4.0 * dH
    c2 = -8.0 * H * dH + 4.0 * dH * dH + 2.0 * dK
    c3 = (-16.0 * H * H * dH + 16.0 * H * dH * dH + 4.0 * K * dH
          + 4.0 * H * dK - 4.0 * dH * dK)
    c4 = (-32.0 * H ** 3 * dH + 48.0 * H * H * dH * dH + 8.0 * H * H * dK
          + 16.0 * H * K * dH - 16.0 * H * dH * dK - 8.0 * K * dH * dH
          - 2.0 * K * dK + dK * dK)
    return {1: c1, 2: c2, 3: c3, 4: c4}


def log_det_bracket(mean, gauss, log_area_ratio, d_mean, d_gauss, h):
    """int log(det F) b dx3 through fifth order (error O(h^7)).

    With r = log(a_m / a_y0):
    = h r + h^3/12 (K r + dK - 2 dH^2)
        + h^5/80 ( -4 dH^4 - 32/3 H dH^3 + (2K - 8H^2) dH^2
                   + 4 H dH dK + 4 dH^2 dK - dK^2 / 2 ).
    """
    H, K = np.asarray(mean, dtype=float), np.asarray(gauss, dtype=float)
    dH, dK = np.asarray(d_mean, dtype=float), np.asarray(d_gauss, dtype=float)
    r = np.asarray(log_area_ratio, dtype=float)
    h3 = h ** 3 / 12.0
    h5 = h ** 5 / 80.0
    block5 = (-4.0 * dH ** 4 - (32.0 / 3.0) * H * dH ** 3
              + (2.0 * K - 8.0 * H * H) * dH * dH
              + 4.0 * H * dH * dK + 4.0 * dH * dH * dK - 0.5 * dK * dK)
    return h * r + h3 * (K * r + dK - 2.0 * dH * dH) + h5 * block5


# ---------------------------------------------------------------------------
# reduced-vs-3D comparison engine
# ---------------------------------------------------------------------------

def compare_reduced_3d(chart, deformed_chart, grid, mu, lam, h_values,
                       models=(1, 2, 3), constants="oracle", order=4,
                       rule=("gauss", 16)):
    """Reduced energies against the slab integral over a thickness sweep.

    Returns {"rows": [(h, model, reduced, full3d, abs_err), ...],
             "orders": {model: fitted slope of log|err| vs log h}}.
    Every thickness is checked, and a repeated one (it would skew the
    fitted orders) rejected, before any geometry is built.  The
    reference and the deformed state are built once and shared by every
    thickness: the reduced energy and the slab integral both take their
    thickness from the material and read the two records' fundamental
    forms, with no 3x3 stack.  A thickness at or above ``h_geom`` raises
    ThicknessError before its slab is integrated.  The sweep runs
    serially, so the numeric library's threads (which the CLI's
    ``--threads`` caps) are the only ones.
    """
    h_values = [float(h) for h in h_values]
    if not h_values:
        raise ConfigError("the thickness sweep is empty")
    for h in h_values:
        require_thickness(h)
    if len(set(h_values)) < len(h_values):
        raise ConfigError("the thickness sweep repeats a value: %s" % h_values)
    models = tuple(models)
    shared_ref = build_reference(chart, grid, h_values[0], order)
    shared_state = deformed_state(deformed_chart, grid, h_values[0], order)

    rows = []
    for h in h_values:
        mat = MaterialParams(mu=mu, lam=lam, h=h)
        full3d = integrate_3d(shared_state, shared_ref, mat, rule=rule)
        for model in models:
            reduced = total_energy(shared_state, shared_ref, mat, model,
                                   constants).internal
            rows.append((h, model, reduced, full3d, abs(reduced - full3d)))

    orders = {}
    log_h = np.log(np.asarray(h_values))
    for k, model in enumerate(models):
        errs = np.asarray([row[4] for row in rows[k::len(models)]])
        if np.all(errs > 0.0) and len(h_values) >= 2:
            orders[model] = float(np.polyfit(log_h, np.log(errs), 1)[0])
        else:
            orders[model] = float("inf")
    return {"rows": rows, "orders": orders}
