"""Brute-force 3-D verification oracle for the reduced models.

The reduced energies claim to equal (up to a known thickness order) the
through-thickness integral of the parent 3-D stored energy

    W(F) = mu/2 (|F|^2 - 2 log det F - 3)
         + lam/4 ((det F)^2 - 2 log det F - 1)

evaluated on the normal-extension ansatz

    Phi(x', x3)   = m(x') + x3 n_m(x'),
    Theta(x', x3) = y0(x') + x3 n_y0(x'),
    F = grad Phi (grad Theta)^{-1}.

This module assembles F without any thickness expansion.  The closed-form
inverse of grad Theta makes b(x3) F(x3) an exact quadratic in x3 whose
per-node 3x3 coefficients do not depend on x3, so :func:`integrate_3d`
builds them once per call and evaluates F by Horner at each thickness node.
W is integrated over the slab with Gauss-Legendre or composite-Simpson
rules through the thickness and the tensor Simpson rule over the surface.
The module also exposes the closed-form thickness-moment/coefficient
tables the reduced densities are built from, so tests can pin them against
independent re-derivations.
"""

from __future__ import annotations

import numpy as np

from .energy import MaterialParams, deformed_state, total_energy
from .errors import ConfigError, NonPositiveDeterminant
from .geometry import form22, lift_flat, require_thickness
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

def _frame(grad, normal):
    """[d1 | d2 | n] as (..., 3, 3)."""
    return np.concatenate([grad, normal[..., None]], axis=-1)


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
    inv_frame0 = np.linalg.inv(_frame(ref.grad, ref.normal))
    c1 = (lift_flat(form22(ref.bundle, "L"))
          - 2.0 * ref.mean[..., None, None] * EYE3)
    p0 = _frame(state.grad, state.normal)
    p1 = _frame(state.grad_n, np.zeros_like(state.normal))
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
    grad_theta = _frame(ref.grad + x3 * ref.grad_n, ref.normal)
    b = thickness_jacobian(ref.mean, ref.gauss, x3)
    F = _ansatz_gradient(_ansatz_coefficients(ref, state), b, x3)
    return {"grad_theta": grad_theta, "F": F, "det_F": det3(F), "b": b}


def integrate_3d(state, ref, mat, rule=("gauss", 16), coeffs=None):
    """Slab integral of the parent stored energy over the ansatz.

    integral = sum_x3 w(x3) sum_nodes W2d a_y0 b_y0(x3) W(F(x', x3)), with
    the x3-invariant coefficients of F built once per call, or passed in as
    ``coeffs`` (``_ansatz_coefficients(ref, state)``, which does not depend
    on the thickness) by a thickness sweep.
    """
    kind, count = rule
    nodes, weights = thickness_rule(kind, count, mat.h)
    if coeffs is None:
        coeffs = _ansatz_coefficients(ref, state)
    w2d = area_weights(ref.grid) * ref.area
    total = 0.0
    for x3, w in zip(nodes, weights):
        b = thickness_jacobian(ref.mean, ref.gauss, x3)
        density = stored_energy(_ansatz_gradient(coeffs, b, x3), mat.mu,
                                mat.lam)
        total += w * float(np.sum(w2d * b * density))
    return total


def simpson_point_products(state, ref):
    """det F at the three-point rule nodes, scaled back to volume factors.

    At x3 in {-h/2, 0, +h/2} the ansatz satisfies
    a_y0 b_y0(x3) det F(x3) = a_m b_m(x3), so the products must reproduce
    a_m A_m^-, a_m, a_m A_m^+ exactly.  Returns (via_det, direct) dicts for
    keys "minus", "mid", "plus".
    """
    h = ref.h
    via = {}
    for key, x3 in (("minus", -0.5 * h), ("mid", 0.0), ("plus", 0.5 * h)):
        point = ansatz_point(ref, state, x3)
        via[key] = point["det_F"] * ref.area * point["b"]
    direct = {
        "minus": state.area * state.a_minus,
        "mid": state.area,
        "plus": state.area * state.a_plus,
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
    reference, the deformed state and the ansatz coefficients are built
    once and shared by every thickness: the reduced energy takes its
    thickness from the material, and the slab integral reads the shared
    coefficients.  The sweep runs serially, so the numeric library's
    threads (which the CLI's ``--threads`` caps) are the only ones.
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
    coeffs = _ansatz_coefficients(shared_ref, shared_state)

    rows = []
    for h in h_values:
        mat = MaterialParams(mu=mu, lam=lam, h=h)
        full3d = integrate_3d(shared_state, shared_ref, mat, rule=rule,
                              coeffs=coeffs)
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
