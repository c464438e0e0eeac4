"""Thickness thresholds under which the reduced densities are convex.

Each of the three models has a sufficient convexity condition of the form
h < h0, with h0 computed from reference curvature fields and the coupling
constant C = 2 sup |I^{1/2} L^T I^{-1/2}|_F:

- ``stretch_threshold_full``   trace term with fifth-order blocks
  (models 1 and 3): a Gauss-curvature bound plus the smallest positive root
  of a pointwise cubic in t = h^2,
- ``stretch_threshold_cubic``  cubic-truncation trace term (model 2):
  h0 = 1 / sqrt(sup T), T = K/12 + (|H| + C/4)^2 / 3,
- ``volume_threshold_taylor``  squared-volume Taylor block (model 3 extra):
  principal-minor bounds of a closed-form 3x3 Hessian plus the root of a
  pointwise quadratic in t = h^2.

The cubic/quadratic coefficients here are re-derived from the defining
inequalities (expanding the products and squares directly); the brute-force
scans of those inequalities live alongside as ``scan_*`` oracles, and the
test-suite holds the closed forms to one grid step of the scans.

All thresholds are suprema-based and conservative; they are *sufficient*
bounds, so sampled Hessians may stay positive somewhat above h0.  The
geometric bound h * sup|kappa| < 2 is a hard validity constraint and is
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import det2_form, shell_form_weights
from .errors import ConfigError

_INF = float("inf")


# ---------------------------------------------------------------------------
# root finding for the pointwise polynomials g(t, x')
# ---------------------------------------------------------------------------

def smallest_positive_roots(coeffs):
    """Smallest positive real root of each row sum_k coeffs[:, k] t^k, or +inf.

    ``coeffs`` is an (N, d+1) stack of ascending coefficients, d <= 3.
    Leading coefficients at or below 1e-14 of the row's largest |c| are
    trimmed (plate and cylinder charts zero out entire blocks).  Roots come
    in closed form per degree: -c0 / c1, the stable quadratic formula, and
    for a cubic the trigonometric form when it has three real roots,
    Cardano's otherwise (see ``_cubic_roots``).  A complex pair counts as a
    (double) real root at its real part when |imag| <= 1e-9 max(|re|, 1).
    From degree 2 on, Newton steps polish a root whose sign change survives
    on [0.9999 t, 1.0001 t]; a double root keeps its closed-form estimate.
    """
    # one row per power, so that every step below is elementwise
    c = np.array(coeffs, dtype=float).T.copy()
    width, rows = c.shape
    if not 1 <= width <= 4:
        raise ValueError("smallest_positive_roots takes degree 0 to 3, "
                         "got %d coefficients" % width)
    scale = np.abs(c).max(axis=0)
    deg = np.full(rows, width - 1)
    for k in range(width - 1, 0, -1):
        deg[(deg == k) & (np.abs(c[k]) <= 1e-14 * scale)] = k - 1
    c[np.arange(width)[:, None] > deg] = 0.0
    out = np.full(rows, _INF)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(1, width):
            sel = deg == d
            # NaN (no real root) fails the comparison like a negative root
            out[sel] = np.fmin.reduce(
                [np.where(r > 0.0, r, _INF)
                 for r in _ROOTS_BY_DEGREE[d](*c[d::-1, sel])])
        found = (deg >= 2) & np.isfinite(out)
        c, dc, t = c[:, found], _polyder(c[:, found]), out[found]
        lo, hi = 0.9999 * t, 1.0001 * t
        bracketed = _polyval(lo, c) * _polyval(hi, c) < 0
        for _ in range(2):      # one step already reaches round-off
            g, dg = _polyval(t, c), _polyval(t, dc)
            step = t - g / dg
            t = np.where(bracketed & (step >= lo) & (step <= hi), step, t)
    out[found] = t
    return out


def _polyval(x, c):
    """``numpy.polynomial.polynomial.polyval(x, c, tensor=False)``, operation
    for operation, without importing that package into every command."""
    out = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + out * x
    return out


def _polyder(c):
    """``numpy.polynomial.polynomial.polyder(c)``, operation for operation."""
    if len(c) == 1:
        return c[:1] * 0
    return np.arange(1, len(c))[:, None] * c[1:]


def _linear_roots(a, b):
    """The root of a t + b (a != 0)."""
    return (-b / a,)


def _quadratic_roots(a, b, c):
    """The two roots of a t^2 + b t + c (a != 0), real values or NaN:
    q = -(b + sign(b) sqrt(disc)) / 2, roots q / a and c / q, in which
    nothing cancels.  A complex pair re +- i im counts as a double root at
    re when |im| <= 1e-9 max(|re|, 1)."""
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    re = -0.5 * b / a
    im = 0.5 * np.sqrt(np.maximum(-disc, 0.0)) / np.abs(a)
    pair = np.where(im <= 1e-9 * np.maximum(np.abs(re), 1.0), re, np.nan)
    return np.where(real, q / a, pair), np.where(real, c / q, pair)


def _cubic_roots(a, b, c, d):
    """The three roots of a t^3 + b t^2 + c t + d (a != 0), real values or
    NaN.

    One real root r comes in closed form from the depressed cubic
    y^3 + p y + q, t = y - b / 3a: the largest in magnitude of the
    trigonometric form's three when the cubic has three real roots
    (q^2/4 + p^3/27 < 0), Cardano's one real root otherwise.  Newton steps
    that lower |g| polish it.  The other two are the roots of the quadratic
    left after dividing r out, from the end where the division is stable
    (Kahan): the constant end when r is the largest root, |r|^3 > |d / a|,
    the leading end otherwise.  Taken directly from the closed forms, a
    root many orders of magnitude below the others would be lost to
    cancellation against the shift b / 3a.
    """
    e1, e2, e3 = b / a, c / a, d / a
    shift = -e1 / 3.0
    p = e2 - e1 * e1 / 3.0
    q = (2.0 * e1 * e1 - 9.0 * e2) * e1 / 27.0 + e3
    disc = 0.25 * q * q + p * p * p / 27.0
    # trigonometric form, p < 0 wherever disc < 0: y = m cos(theta - 2 pi
    # k / 3) with theta in [0, pi / 3], largest at k = 0, smallest at k = 2
    m = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
    theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
    top = shift + m * np.cos(theta)
    bottom = shift + m * np.cos(theta - 4.0 * np.pi / 3.0)
    # Cardano's form: y = u + v with u v = -p / 3, u from the branch in
    # which nothing cancels
    u = -np.copysign(np.cbrt(0.5 * np.abs(q)
                             + np.sqrt(np.maximum(disc, 0.0))), q)
    v = np.where(u != 0.0, -p / (3.0 * u), 0.0)
    r = np.where(disc >= 0.0, u + v + shift,
                 np.where(np.abs(top) >= np.abs(bottom), top, bottom))
    g = ((a * r + b) * r + c) * r + d
    for _ in range(3):
        step = r - g / ((3.0 * a * r + 2.0 * b) * r + c)
        g_step = ((a * step + b) * step + c) * step + d
        better = np.abs(g_step) < np.abs(g)
        r, g = np.where(better, step, r), np.where(better, g_step, g)
    lead_b = a * r + b
    const_c = -d / r
    big = np.abs(r) ** 3 > np.abs(e3)
    return (r,) + _quadratic_roots(
        a, np.where(big, (const_c - c) / r, lead_b),
        np.where(big, const_c, lead_b * r + c))


_ROOTS_BY_DEGREE = {1: _linear_roots, 2: _quadratic_roots, 3: _cubic_roots}


def _root_field(*fields):
    """Smallest positive root of sum_k fields[k] t^k over the grid, and the
    first node where it is attained."""
    shape = fields[0].shape
    roots = smallest_positive_roots(np.stack(fields, axis=-1).reshape(
        -1, len(fields)))
    flat = int(np.argmin(roots))
    return float(roots[flat]), np.unravel_index(flat, shape)


# ---------------------------------------------------------------------------
# model 1 / model 3 trace term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StretchThresholds:
    """Convexity bound for the full trace density (models 1 and 3)."""

    h1_prime: float     # Gauss-curvature bound sqrt(20 / (3 sup K))
    h1_second: float    # sqrt(t*) from the pointwise cubic
    h1: float           # min of the two
    h2: float           # fifth-order block bound; same condition as h1_prime
    h0: float
    argmin: tuple       # grid index where the cubic root is smallest


def _h_from_sup(value, factor):
    """sqrt(factor / sup) when the supremum is positive, else +inf."""
    return float(np.sqrt(factor / value)) if value > 0.0 else _INF


def stretch_threshold_full(ref):
    H = ref.mean
    K = ref.gauss
    C = ref.curvature_bound
    h1_prime = _h_from_sup(float(K.max()), 20.0 / 3.0)

    absH = np.abs(H)
    absHK = np.abs(H * K)
    # expansion of 4 (c0I - C |c1I|) (c0III) >= (|c0II| + C |c1II|)^2 in
    # t = h^2, valid on t <= h1_prime^2 where c0III and c1II keep their sign
    c0 = np.full(H.shape, 1.0 / 3.0)
    c1 = -(7.0 * K / 90.0 + H * H / 9.0 + C * absH / 9.0 + C * C / 36.0)
    c2 = (K * K / 120.0 - C * absHK / 120.0 + C * absH * K / 60.0
          + C * C * K / 120.0)
    c3 = -(K ** 3 / 1600.0 - C * absHK * K / 800.0 + C * C * K * K / 1600.0)
    t_min, argmin = _root_field(c0, c1, c2, c3)
    h1_second = float(np.sqrt(t_min))
    h1 = min(h1_prime, h1_second)
    h2 = h1_prime
    return StretchThresholds(h1_prime=h1_prime, h1_second=h1_second,
                             h1=h1, h2=h2, h0=min(h1, h2), argmin=argmin)


# ---------------------------------------------------------------------------
# model 2 trace term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicStretchThreshold:
    """Convexity bound for the cubic-truncation trace density (model 2)."""

    t_sup: float        # sup of T = K/12 + (|H| + C/4)^2 / 3
    h0: float
    argmax: tuple


def stretch_threshold_cubic(ref):
    H = ref.mean
    K = ref.gauss
    C = ref.curvature_bound
    T = K / 12.0 + (np.abs(H) + C / 4.0) ** 2 / 3.0
    t_sup = float(T.max())
    flat = int(np.argmax(T))
    argmax = np.unravel_index(flat, T.shape)
    h0 = 1.0 / np.sqrt(t_sup) if t_sup > 0.0 else _INF
    return CubicStretchThreshold(t_sup=t_sup, h0=float(h0), argmax=argmax)


# ---------------------------------------------------------------------------
# model 3 squared-volume Taylor block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeThresholds:
    """Convexity bound for the squared-volume Taylor density (model 3)."""

    h1: float           # first diagonal entry positive
    h2_prime: float     # leading 2x2 minor positive
    h2_second: float    # trailing 2x2 minor positive
    h2: float
    h3: float           # sqrt(t*) from the determinant quadratic
    h0: float
    argmin: tuple


def volume_threshold_taylor(ref):
    H = ref.mean
    K = ref.gauss
    neg_k = float((-K).max())
    h1 = _h_from_sup(neg_k, 12.0)
    h2_prime = _h_from_sup(neg_k, 16.0 / 3.0)
    h2_second = _h_from_sup(float(K.max()), 20.0 / 3.0)
    h2 = min(h1, h2_prime, h2_second)
    # determinant of the 3x3 Hessian divided by lambda^3 a^3 h^9 / 64:
    # 2/135 + t (K/1800 - H^2/90) - t^2 K^2/2400, t = h^2 (re-derived from
    # the minor products; the K-coefficient comes out 1/1800)
    c0 = np.full(H.shape, 2.0 / 135.0)
    c1 = K / 1800.0 - H * H / 90.0
    c2 = -(K * K) / 2400.0
    t_min, argmin = _root_field(c0, c1, c2)
    h3 = float(np.sqrt(t_min))
    return VolumeThresholds(h1=h1, h2_prime=h2_prime, h2_second=h2_second,
                            h2=h2, h3=h3, h0=min(h3, h2), argmin=argmin)


def volume_quadratic_hessian(ref, mat):
    """Hessian of the squared-volume Taylor density (model III) in
    (r, X, Y) = (a_m/a_y0) (1, dH, dK), per grid point: the (n1, n2, 3, 3)
    stack (lam a_y0 / 4) M of the Taylor :func:`~shellreduce.energy.det2_form`
    M at h = ``mat.h``, the matrix whose minors the thresholds above bound.
    """
    m00, m02, m11, m12, m22 = det2_form(ref.mean, ref.gauss, mat.h)
    M = np.zeros(ref.mean.shape + (3, 3))
    M[..., 0, 0], M[..., 1, 1], M[..., 2, 2] = m00, m11, m22
    M[..., 0, 2] = M[..., 2, 0] = m02
    M[..., 1, 2] = M[..., 2, 1] = m12
    return 0.25 * mat.lam * ref.area[..., None, None] * M


# ---------------------------------------------------------------------------
# quadratic-form Hessians of the trace densities, sampled convexity
# ---------------------------------------------------------------------------

def shell_quadratic_hessian(ref, mat, model):
    """12x12 Hessian of a model's trace density as a quadratic in (E, G).

    E plays grad m and G plays grad n_m as independent 3x2 matrices; the
    density's form slots become I = E^T E, II = -E^T G, III = G^T G, so
    its deformation part sum_k w_k form_k, with the weights w of
    :func:`~shellreduce.energy.shell_form_weights`, is a quadratic form
    (1/2) x^T H x on R^12 whose Hessian is state-independent:

        E-E  [[2 w_I11, w_I12], [w_I12, 2 w_I22]] (x) Id_3,
        G-G  the same from the III weights,
        E-G  -[[w_II11, w_II12], [w_II21, w_II22]] (x) Id_3.

    Returned as an (n1, n2, 12, 12) stack (flattening order: E rows first,
    then G rows, each row-major 3x2), at h = ``mat.h``.
    """
    w = shell_form_weights(ref, mat, model)

    def block(w11, w12, w21, w22):
        pair = np.stack([np.stack([w11, w12], -1), np.stack([w21, w22], -1)],
                        -2)
        return np.einsum("ij,...ab->...iajb", np.eye(3), pair).reshape(
            pair.shape[:-2] + (6, 6))

    first = block(2.0 * w["I11"], w["I12"], w["I12"], 2.0 * w["I22"])
    third = block(2.0 * w["III11"], w["III12"], w["III12"], 2.0 * w["III22"])
    coupling = block(-w["II11"], -w["II12"], -w["II21"], -w["II22"])
    return np.concatenate(
        [np.concatenate([first, coupling], -1),
         np.concatenate([np.swapaxes(coupling, -1, -2), third], -1)], -2)


def sample_convexity(ref, mat, which, n_samples=1000, seed=0):
    """Minimum Hessian eigenvalue and Rayleigh-quotient sample at ``mat.h``.

    ``which`` picks the density: "full" or "cubic" for the trace quadratics
    (12 variables), "volume" for the squared-volume quadratic (3 variables).
    Returns (min_eigenvalue, min_rayleigh, scale) where scale is the largest
    Hessian magnitude encountered; PSD within slack means
    min_eigenvalue >= -1e-12 * scale.
    """
    if which in ("full", "cubic"):
        hess = shell_quadratic_hessian(ref, mat, 1 if which == "full" else 2)
    elif which == "volume":
        hess = volume_quadratic_hessian(ref, mat)
    else:
        raise ConfigError("unknown convexity form %r" % (which,))
    eigs = np.linalg.eigvalsh(hess)
    min_eig = float(eigs.min())
    scale = float(np.abs(eigs).max())

    rng = np.random.default_rng(seed)
    dim = hess.shape[-1]
    flat = hess.reshape(-1, dim, dim)
    idx = rng.integers(0, flat.shape[0], size=n_samples)
    vecs = rng.standard_normal((n_samples, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    quad = np.einsum("ni,nij,nj->n", vecs, flat[idx], vecs)
    return min_eig, float(quad.min()), scale


# ---------------------------------------------------------------------------
# brute-force inequality scans (oracles for the closed forms)
# ---------------------------------------------------------------------------

def scan_stretch_full(ref, h_values):
    """First h in h_values violating the trace-term product inequality.

    Checks, at every grid point,

        h^3/12 - h^5 K / 80 >= 0   and
        4 (h - h^3 K/12 + h^5 K^2/80 - C h^5 |H K|/40)(h^3/12 - h^5 K/80)
            >= (h^3 |H|/3 + C |h^3/6 - h^5 K/40|)^2 ,

    returning +inf when every h passes.
    """
    H = ref.mean
    K = ref.gauss
    C = ref.curvature_bound
    absH = np.abs(H)
    for h in np.asarray(h_values, dtype=float):
        third = h ** 3
        fifth = h ** 5
        lead = third / 12.0 - fifth * K / 80.0
        if np.any(lead < 0.0):
            return float(h)
        left = 4.0 * (h - third * K / 12.0 + fifth * K * K / 80.0
                      - C * fifth * np.abs(H * K) / 40.0) * lead
        right = (third * absH / 3.0
                 + C * np.abs(third / 6.0 - fifth * K / 40.0)) ** 2
        if np.any(left < right):
            return float(h)
    return _INF


def scan_stretch_cubic(ref, h_values):
    """First h violating the cubic-truncation discriminant inequality

        (h^3/3)(h - h^3 K/12) >= (h^3 |H|/3 + h^3 C/12)^2 .
    """
    H = ref.mean
    K = ref.gauss
    C = ref.curvature_bound
    for h in np.asarray(h_values, dtype=float):
        third = h ** 3
        left = (third / 3.0) * (h - third * K / 12.0)
        right = (third * np.abs(H) / 3.0 + third * C / 12.0) ** 2
        if np.any(left < right):
            return float(h)
    return _INF


def scan_volume_det(ref, h_values):
    """First h violating the squared-volume Hessian determinant condition

        (2h + K h^3/6)(h^8/60 - K h^10/400)
            - (h^6/36)(2 h^3/3 + (h^5/40)(16 H^2 - 4K)) >= 0 .
    """
    H = ref.mean
    K = ref.gauss
    for h in np.asarray(h_values, dtype=float):
        det = ((2.0 * h + K * h ** 3 / 6.0)
               * (h ** 8 / 60.0 - K * h ** 10 / 400.0)
               - (h ** 6 / 36.0) * (2.0 * h ** 3 / 3.0
                                    + (h ** 5 / 40.0) * (16.0 * H * H - 4.0 * K)))
        if np.any(det < 0.0):
            return float(h)
    return _INF


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Geometric and per-model convexity bounds plus verdicts for one h."""

    h: float
    h_geom: float                   # the reference's 2 / sup max|kappa_i|
    stretch_full: StretchThresholds
    stretch_cubic: CubicStretchThreshold
    volume: VolumeThresholds
    model_h0: dict                  # model number -> convexity bound
    h_max: dict                     # model number -> min(geom, safety * h0)
    verdicts: dict                  # model number -> bool (h admissible)
    safety: float

    def ok(self, model):
        return self.verdicts[model]

    def rows(self):
        """CSV-ready (quantity, value) rows in a fixed order."""
        out = [("h", self.h), ("h_geom", self.h_geom),
               ("stretch_full.h1_prime", self.stretch_full.h1_prime),
               ("stretch_full.h1_second", self.stretch_full.h1_second),
               ("stretch_full.h1", self.stretch_full.h1),
               ("stretch_full.h2", self.stretch_full.h2),
               ("stretch_full.h0", self.stretch_full.h0),
               ("stretch_cubic.h0", self.stretch_cubic.h0),
               ("volume.h1", self.volume.h1),
               ("volume.h2_prime", self.volume.h2_prime),
               ("volume.h2_second", self.volume.h2_second),
               ("volume.h2", self.volume.h2),
               ("volume.h3", self.volume.h3),
               ("volume.h0", self.volume.h0)]
        for model in (1, 2, 3):
            out.append(("model%d.h0" % model, self.model_h0[model]))
            out.append(("model%d.h_max" % model, self.h_max[model]))
            out.append(("model%d.ok" % model, self.verdicts[model]))
        return out


def admissibility_report(ref, h, safety=1.0):
    """Assemble every threshold and verdict for the reference at ``h``."""
    h = float(h)
    if not (safety > 0.0):
        raise ConfigError("safety factor must be positive, got %g" % safety)
    full = stretch_threshold_full(ref)
    cubic = stretch_threshold_cubic(ref)
    vol = volume_threshold_taylor(ref)
    model_h0 = {1: full.h0, 2: cubic.h0, 3: min(full.h0, vol.h0)}
    h_max = {m: min(ref.h_geom, safety * h0) for m, h0 in model_h0.items()}
    verdicts = {m: bool(h < h_max[m]) for m in model_h0}
    return AdmissibilityReport(h=h, h_geom=ref.h_geom, stretch_full=full,
                               stretch_cubic=cubic, volume=vol,
                               model_h0=model_h0, h_max=h_max,
                               verdicts=verdicts, safety=float(safety))
