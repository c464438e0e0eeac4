"""Parametrized midsurfaces and their pointwise differential geometry.

A midsurface y : omega in R^2 -> R^3 is given either by an analytic chart
(position and first/second derivatives in a single call) or by nodal
positions on a tensor grid with finite-difference derivatives.  From the
five derivative fields ``d1 y, d2 y, d11 y, d12 y, d22 y`` everything else
follows pointwise:

- unit normal       n = d1 x d2 / |d1 x d2|,  area factor a = |d1 x d2|
- first form        I = (grad y)^T grad y
- second form       II = -(grad y)^T grad n
- third form        III = (grad n)^T grad n
- shape operator    L = I^{-1} II,  mean H = tr(L)/2,  Gauss K = det(L)

``grad n`` is produced by the chain rule through the normalization (never by
differencing a stored normal field), so n . dn = 0 and n . d_alpha y = 0 hold
to round-off and the identity III = II^T I^{-1} II is exact in both analytic
and finite-difference modes.

:func:`surface_bundle` works on stacked ``(..., 3)`` vector fields;
:func:`surface_bundle_vjp` is its hand-derived vector-Jacobian product
(Griewank & Walther, *Evaluating Derivatives*, ch. 3-4), which maps output
adjoints on a, H, K, the ten form components and n back to the five
derivative slots.  :func:`deformed_state` gathers the per-node fields of
one configuration, reference or deformed, into one :class:`DeformedState`
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CurvatureInconsistent, DegenerateChart,
                     NonFinitePosition)
from .grids import MIN_SPACING, Grid
from .stencils import GridDerivatives

EPS_RANK = 1e-12

SLOT_NAMES = ("d1", "d2", "d11", "d12", "d22")


# Vector fields are stacked (..., 3) arrays.  The kernels run over their
# (3, nodes) component views, each component rounded as its scalar formula:
# a loop over the length-3 last axis innermost is several times slower.
# The output dtype follows the inputs, so complex fields pass through.

def _planes(x):
    return x.reshape(-1, 3).T


def _cross(u, v):
    out = np.empty(u.shape, np.result_type(u, v))
    u_k, v_k, out_k = _planes(u), _planes(v), _planes(out)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        res = out_k[k]
        np.multiply(u_k[i], v_k[j], out=res)
        res -= u_k[j] * v_k[i]
    return out


def _dot(u, v):
    prod = u * v
    return prod[..., 0] + prod[..., 1] + prod[..., 2]


def _scale(s, u):
    out = np.empty(u.shape, np.result_type(s, u))
    np.multiply(np.reshape(s, -1), _planes(u), out=_planes(out), order="C")
    return out


def _combine(terms):
    """sum s u over (scalar field, vector field) pairs, in place."""
    (s, u), *rest = terms
    out = _scale(s, u)
    out_k = _planes(out)
    for s, u in rest:
        out_k += np.reshape(s, -1) * _planes(u)
    return out


def surface_bundle(slots):
    """Pointwise surface quantities from the five derivative fields.

    Parameters
    ----------
    slots : dict
        Keys ``d1, d2, d11, d12, d22``; each value a stacked ``(..., 3)``
        vector field.

    Returns
    -------
    dict with the vector fields ``n, dn1, dn2`` (unit normal and its two
    derivatives, stacked like the slots) and the scalar fields
        ``a, a1, a2, I11, I12, I22, II11, II12, II21, II22,
        III11, III12, III22, L11, L12, L21, L22, H, K``
    (``a1, a2`` are the area factor's derivatives n . d_k(d1 x d2)).
    """
    d1, d2, d11, d12, d22 = (slots[name] for name in SLOT_NAMES)

    c = _cross(d1, d2)
    a = np.sqrt(_dot(c, c))
    inv_a = 1.0 / a
    n = _scale(inv_a, c)

    # derivatives of the (unnormalized) cross field, then of the unit normal
    c1 = _cross(d11, d2) + _cross(d1, d12)
    c2 = _cross(d12, d2) + _cross(d1, d22)
    a1 = _dot(n, c1)
    a2 = _dot(n, c2)
    dn1 = _scale(inv_a, c1 - _scale(a1, n))
    dn2 = _scale(inv_a, c2 - _scale(a2, n))

    i11 = _dot(d1, d1)
    i12 = _dot(d1, d2)
    i22 = _dot(d2, d2)

    ii11 = -_dot(d1, dn1)
    ii12 = -_dot(d1, dn2)
    ii21 = -_dot(d2, dn1)
    ii22 = -_dot(d2, dn2)

    iii11 = _dot(dn1, dn1)
    iii12 = _dot(dn1, dn2)
    iii22 = _dot(dn2, dn2)

    det_i = i11 * i22 - i12 * i12
    inv_det = 1.0 / det_i
    # L = I^{-1} II with I^{-1} = [[i22, -i12], [-i12, i11]] / det
    l11 = (i22 * ii11 - i12 * ii21) * inv_det
    l12 = (i22 * ii12 - i12 * ii22) * inv_det
    l21 = (i11 * ii21 - i12 * ii11) * inv_det
    l22 = (i11 * ii22 - i12 * ii12) * inv_det

    h = 0.5 * (l11 + l22)
    k = l11 * l22 - l12 * l21

    return {
        "a": a, "a1": a1, "a2": a2, "n": n, "dn1": dn1, "dn2": dn2,
        "I11": i11, "I12": i12, "I22": i22,
        "II11": ii11, "II12": ii12, "II21": ii21, "II22": ii22,
        "III11": iii11, "III12": iii12, "III22": iii22,
        "L11": l11, "L12": l12, "L21": l21, "L22": l22,
        "H": h, "K": k,
    }


def surface_bundle_vjp(slots, bundle, seeds):
    """Adjoints of the five slots for output adjoints of ``surface_bundle``.

    ``bundle`` is ``surface_bundle(slots)``; ``seeds`` holds an adjoint for
    each of ``a, H, K``, the ten form components ``I11 .. III22`` (scalar
    fields) and ``n`` (a vector field).  Returns the gradient of the linear
    functional sum(seed * output) in each slot, keyed like ``slots``.  The
    sweep runs the forward chain backwards: H, K -> L -> I, II; the forms
    -> d1, d2, dn1, dn2; the projection dn_k = (c_k - a_k n) / a; the cross
    products c = d1 x d2, c_k = d_k c; the normalisation n = c / a.
    """
    d1, d2, d11, d12, d22 = (slots[name] for name in SLOT_NAMES)
    n, dn1, dn2 = bundle["n"], bundle["dn1"], bundle["dn2"]
    i11, i12, i22 = bundle["I11"], bundle["I12"], bundle["I22"]
    l11, l12, l21, l22 = (bundle[key] for key in ("L11", "L12", "L21", "L22"))
    inv_a = 1.0 / bundle["a"]

    # H = tr(L) / 2, K = det(L)
    half_h, g_k = 0.5 * seeds["H"], seeds["K"]
    gl11 = half_h + g_k * l22
    gl22 = half_h + g_k * l11
    gl12 = -g_k * l21
    gl21 = -g_k * l12
    # L = I^{-1} II: II takes P = I^{-1} G_L and I takes -P L^T, whose two
    # off-diagonal entries both land on the one stored I12
    inv_det = 1.0 / (i11 * i22 - i12 * i12)
    p11 = (i22 * gl11 - i12 * gl21) * inv_det
    p12 = (i22 * gl12 - i12 * gl22) * inv_det
    p21 = (i11 * gl21 - i12 * gl11) * inv_det
    p22 = (i11 * gl22 - i12 * gl12) * inv_det
    g_i11 = 2.0 * (seeds["I11"] - p11 * l11 - p12 * l12)
    g_i22 = 2.0 * (seeds["I22"] - p21 * l21 - p22 * l22)
    g_i12 = seeds["I12"] - p11 * l21 - p12 * l22 - p21 * l11 - p22 * l12
    # II = -(grad y)^T grad n
    g_ii11 = -(seeds["II11"] + p11)
    g_ii12 = -(seeds["II12"] + p12)
    g_ii21 = -(seeds["II21"] + p21)
    g_ii22 = -(seeds["II22"] + p22)
    g_iii12 = seeds["III12"]

    g_d1 = _combine(((g_i11, d1), (g_i12, d2), (g_ii11, dn1), (g_ii12, dn2)))
    g_d2 = _combine(((g_i12, d1), (g_i22, d2), (g_ii21, dn1), (g_ii22, dn2)))
    g_dn1 = _combine(((g_ii11, d1), (g_ii21, d2),
                      (2.0 * seeds["III11"], dn1), (g_iii12, dn2)))
    g_dn2 = _combine(((g_ii12, d1), (g_ii22, d2), (g_iii12, dn1),
                      (2.0 * seeds["III22"], dn2)))

    # dn_k = (c_k - a_k n) / a with a_k = n . c_k.  The form adjoints of
    # dn_k combine d1, d2, dn1 and dn2, all tangent, so the projection
    # passes them unchanged: c_k takes g_dn_k / a, n takes -a_k g_dn_k / a
    # and a takes -(g_dn_k . dn_k) / a through the 1 / a
    g_c1 = _scale(inv_a, g_dn1)
    g_c2 = _scale(inv_a, g_dn2)
    g_n = seeds["n"] - _combine(((bundle["a1"], g_c1), (bundle["a2"], g_c2)))
    g_a = seeds["a"] - _dot(g_c1, dn1) - _dot(g_c2, dn2)
    # n = c / a, a = |c|
    g_c = _combine(((g_a - inv_a * _dot(g_n, n), n), (inv_a, g_n)))

    # c = d1 x d2, c1 = d11 x d2 + d1 x d12, c2 = d12 x d2 + d1 x d22;
    # the adjoints of u x v are v x g for u and g x u for v
    g_d1 += _cross(d2, g_c) + _cross(d12, g_c1) + _cross(d22, g_c2)
    g_d2 += _cross(g_c, d1) + _cross(g_c1, d11) + _cross(g_c2, d12)
    return {
        "d1": g_d1, "d2": g_d2,
        "d11": _cross(d2, g_c1),
        "d12": _cross(g_c1, d1) + _cross(d2, g_c2),
        "d22": _cross(g_c2, d1),
    }


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

class SurfaceChart:
    """An analytic parametrized surface patch.

    Wraps one function ``fields(X1, X2)`` that returns the position and its
    five derivatives as stacked ``(..., 3)`` arrays, keyed ``value`` and
    SLOT_NAMES.  Nodal positions need no chart: :func:`deformed_state`
    differentiates them with finite-difference stencils.
    """

    def __init__(self, name, domain, fields):
        self.name = name
        self.domain = tuple((float(lo), float(hi)) for (lo, hi) in domain)
        self.fields = fields

    def position(self, X1, X2):
        return self.fields(X1, X2)["value"]

    def positions_on(self, grid):
        return self.position(*grid.mesh())


def _stack3(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def _graph_fields(fz):
    """Chart fields of a graph (x1, x2, f(x1, x2)) given f and derivatives.

    ``fz`` maps (X1, X2) -> dict with f, f1, f2, f11, f12, f22.
    """

    def fields(X1, X2):
        d = fz(X1, X2)
        return {
            "value": _stack3(X1, X2, d["f"]),
            "d1": _stack3(1.0, 0.0, d["f1"]),
            "d2": _stack3(0.0, 1.0, d["f2"]),
            "d11": _stack3(0.0, 0.0, d["f11"]),
            "d12": _stack3(0.0, 0.0, d["f12"]),
            "d22": _stack3(0.0, 0.0, d["f22"]),
        }

    return fields


def make_chart(kind, **params):
    """Chart catalog.

    kind = "plate"            : (x1, x2, 0) on [0, length1] x [0, length2]
    kind = "sphere-cap"       : graph of sqrt(R^2 - x1^2 - x2^2) over the
                                square inscribed in the cap of half-angle
                                ``extent`` (outward normal; H = -1/R,
                                K = 1/R^2)
    kind = "cylinder-patch"   : (R cos t, R sin t, s) with t in
                                [-arc/2, arc/2], s in [0, height] (outward
                                normal; H = -1/(2R), K = 0)
    kind = "graph"            : polynomial and/or sine-bump height field
                                over [0, length1] x [0, length2]
    """
    if kind == "plate":
        L1 = float(params.pop("length1", 1.0))
        L2 = float(params.pop("length2", 1.0))
        _reject_extra(kind, params)

        def fz(X1, X2):
            z = np.zeros(np.broadcast(X1, X2).shape)
            return {"f": z, "f1": z, "f2": z, "f11": z, "f12": z, "f22": z}

        return SurfaceChart("plate", ((0.0, L1), (0.0, L2)),
                            _graph_fields(fz))

    if kind == "sphere-cap":
        R = float(params.pop("radius", 1.0))
        extent = float(params.pop("extent", 0.6))
        _reject_extra(kind, params)
        if not (0 < extent < np.pi / 2):
            raise ConfigError("sphere-cap extent must lie in (0, pi/2)")
        half = R * np.sin(extent) / np.sqrt(2.0)

        def fz(X1, X2):
            z2 = R * R - X1 ** 2 - X2 ** 2
            z = np.sqrt(z2)
            z3 = z * z2
            return {
                "f": z,
                "f1": -X1 / z,
                "f2": -X2 / z,
                "f11": -(R * R - X2 ** 2) / z3,
                "f12": -(X1 * X2) / z3,
                "f22": -(R * R - X1 ** 2) / z3,
            }

        return SurfaceChart("sphere-cap", ((-half, half), (-half, half)),
                            _graph_fields(fz))

    if kind == "cylinder-patch":
        R = float(params.pop("radius", 1.0))
        height = float(params.pop("height", 1.0))
        arc = float(params.pop("arc", 1.0))
        _reject_extra(kind, params)
        if not abs(R) >= MIN_SPACING:
            raise ConfigError("cylinder-patch radius must be at least %g in "
                              "magnitude, got %g" % (MIN_SPACING, R))

        def fields(T, S):
            T, S = np.broadcast_arrays(T, S)
            cos, sin = np.cos(T), np.sin(T)
            return {
                "value": _stack3(R * cos, R * sin, S),
                "d1": _stack3(-R * sin, R * cos, 0.0),
                "d2": _stack3(0.0, 0.0, np.ones(T.shape)),
                "d11": _stack3(-R * cos, -R * sin, 0.0),
                "d12": np.zeros(T.shape + (3,)),
                "d22": np.zeros(T.shape + (3,)),
            }

        return SurfaceChart("cylinder-patch",
                            ((-arc / 2.0, arc / 2.0), (0.0, height)), fields)

    if kind == "graph":
        L1 = float(params.pop("length1", 1.0))
        L2 = float(params.pop("length2", 1.0))
        poly = dict(params.pop("poly", {}))
        bump = params.pop("bump", None)
        _reject_extra(kind, params)
        poly = {(int(p), int(q)): float(c) for (p, q), c in poly.items()}
        for p, q in poly:
            if p < 0 or q < 0:
                raise ConfigError("chart.poly powers must be >= 0, got the "
                                  "term %d,%d" % (p, q))
        if bump is not None:
            amp, k1, k2 = float(bump[0]), float(bump[1]), float(bump[2])
            if not (k1.is_integer() and k2.is_integer()):
                raise ConfigError("chart.bump wave numbers must be integers, "
                                  "got %r" % (tuple(bump),))
        else:
            amp, k1, k2 = 0.0, 1, 1

        def fz(X1, X2):
            w1, w2 = np.pi * k1 / L1, np.pi * k2 / L2
            shape = np.broadcast(X1, X2).shape
            f, f1, f2, f11, f12, f22 = (np.zeros(shape) for _ in range(6))
            for (p, q), c in poly.items():
                f += c * X1 ** p * X2 ** q
                if p >= 1:
                    f1 += c * p * X1 ** (p - 1) * X2 ** q
                if q >= 1:
                    f2 += c * q * X1 ** p * X2 ** (q - 1)
                if p >= 2:
                    f11 += c * p * (p - 1) * X1 ** (p - 2) * X2 ** q
                if p >= 1 and q >= 1:
                    f12 += c * p * q * X1 ** (p - 1) * X2 ** (q - 1)
                if q >= 2:
                    f22 += c * q * (q - 1) * X1 ** p * X2 ** (q - 2)
            if amp != 0.0:
                s1, c1 = np.sin(w1 * X1), np.cos(w1 * X1)
                s2, c2 = np.sin(w2 * X2), np.cos(w2 * X2)
                f += amp * s1 * s2
                f1 += amp * w1 * c1 * s2
                f2 += amp * w2 * s1 * c2
                f11 -= amp * w1 * w1 * s1 * s2
                f12 += amp * w1 * w2 * c1 * c2
                f22 -= amp * w2 * w2 * s1 * s2
            return {"f": f, "f1": f1, "f2": f2,
                    "f11": f11, "f12": f12, "f22": f22}

        return SurfaceChart("graph", ((0.0, L1), (0.0, L2)),
                            _graph_fields(fz))

    raise ConfigError("unknown chart kind %r" % (kind,))


def _reject_extra(kind, params):
    if params:
        raise ConfigError("unknown parameters for chart %r: %s"
                          % (kind, sorted(params)))


# ---------------------------------------------------------------------------
# analytic displacement family (for manufactured deformed states)
# ---------------------------------------------------------------------------

class TrigDisplacement:
    """Sum of separable sine bumps with fixed direction vectors.

    Each term is ``vec * sin(pi k1 u) * sin(pi k2 v)`` in normalized domain
    coordinates (u, v) in [0, 1]^2, so the displacement and its tangential
    derivatives vanish nowhere in general but the displacement itself is
    zero on the domain boundary.  ``fields`` returns the displacement and
    its exact first and second derivatives in the chart-field layout, which
    keeps manufactured deformed charts exact.
    """

    def __init__(self, domain, terms):
        (self.a1, b1), (self.a2, b2) = domain
        self.s1 = 1.0 / (b1 - self.a1)
        self.s2 = 1.0 / (b2 - self.a2)
        self.terms = [(np.asarray(v, dtype=float), int(k1), int(k2))
                      for (v, k1, k2) in terms]

    @classmethod
    def standard(cls, domain, amplitude):
        """The fixed three-bump family used by the reduction-order checks."""
        a = float(amplitude)
        return cls(domain, [
            ((0.0, 0.0, a), 1, 1),
            ((0.5 * a, 0.0, 0.0), 2, 1),
            ((0.0, 0.5 * a, 0.0), 1, 2),
        ])

    def fields(self, X1, X2):
        u, v = (X1 - self.a1) * self.s1, (X2 - self.a2) * self.s2
        shape = np.broadcast(X1, X2).shape + (3,)
        acc = {key: np.zeros(shape) for key in ("value",) + SLOT_NAMES}
        for vec, k1, k2 in self.terms:
            w1 = np.pi * k1
            w2 = np.pi * k2
            # (u-factor, v-factor) of each field, before the domain scaling
            sin_u, sin_v = np.sin(w1 * u), np.sin(w2 * v)
            cos_u, cos_v = w1 * np.cos(w1 * u), w2 * np.cos(w2 * v)
            factors = {
                "value": (sin_u, sin_v),
                "d1": (cos_u, sin_v),
                "d2": (sin_u, cos_v),
                "d11": (-w1 * w1 * sin_u, sin_v),
                "d12": (cos_u, cos_v),
                "d22": (sin_u, -w2 * w2 * sin_v),
            }
            for key, (fu, fv) in factors.items():
                acc[key] += fu[..., None] * fv[..., None] * vec
        scale = {"value": 1.0, "d1": self.s1, "d2": self.s2,
                 "d11": self.s1 ** 2, "d12": self.s1 * self.s2,
                 "d22": self.s2 ** 2}
        return {key: scale[key] * acc[key] for key in acc}


def displace_chart(base, displacement):
    """Analytic chart ``base + displacement`` (both with exact derivatives)."""

    def fields(X1, X2):
        own, extra = base.fields(X1, X2), displacement.fields(X1, X2)
        return {key: own[key] + extra[key] for key in own}

    return SurfaceChart(base.name + "+displacement", base.domain, fields)


# ---------------------------------------------------------------------------
# the per-node surface record of one configuration (numpy path)
# ---------------------------------------------------------------------------

# surface_bundle multiplies up to four stencil derivatives of the positions,
# and stencil weights grow like 1/spacing^2: below this magnitude every such
# product stays finite for grid spacings down to grids.MIN_SPACING, above it
# an overflow turns into a NaN at whichever node the stencils carry it to
MAX_COORDINATE = 1e60
# the densities carry h^5 and the 3-D integrand up to h^7 times a Lame
# constant: inside (1 / MAX_MATERIAL, MAX_MATERIAL) they stay normal floats
MAX_MATERIAL = 1e12


def require_finite_positions(positions, bound=MAX_COORDINATE,
                             name="position"):
    """Raise NonFinitePosition at the first grid node of an (n1, n2, 3)
    field (``name``, positions by default) that has a NaN, infinite or
    overflowing coordinate (magnitude at or above ``bound``; ``np.inf``
    admits every finite one)."""
    if (np.abs(positions) < bound).all():   # one flat test, no node scan
        return
    bad = ~(np.abs(positions) < bound).all(axis=-1)
    idx = np.unravel_index(np.argmax(bad), bad.shape)
    raise NonFinitePosition(idx, positions[idx], name)


def require_thickness(h):
    """Raise ConfigError unless 1 / MAX_MATERIAL < h < MAX_MATERIAL."""
    if not 1.0 / MAX_MATERIAL < h < MAX_MATERIAL:
        raise ConfigError("thickness must be finite and positive, in (%g, %g):"
                          " h = %g" % (1.0 / MAX_MATERIAL, MAX_MATERIAL, h))


def face_factors(mean, gauss, h):
    """A^+ = 1 - hH + h^2 K/4 and A^- = 1 + hH + h^2 K/4 (the thickness
    Jacobian b(x3) = 1 - 2 H x3 + K x3^2 evaluated at x3 = +-h/2)."""
    quarter = 0.25 * h * h * gauss
    return 1.0 - h * mean + quarter, 1.0 + h * mean + quarter


@dataclass
class DeformedState:
    """Per-node fields of one midsurface configuration on a grid; none of
    them depends on the thickness.  The reference configuration's record is
    a :class:`~shellreduce.reference.ReferenceField`."""

    h: float                # recorded only: no field depends on it
    grid: Grid
    order: int
    positions: np.ndarray   # (n1, n2, 3)
    bundle: dict            # surface_bundle output (numpy fields)
    d1: np.ndarray          # (n1, n2, 3) tangents, no packed gradient:
    d2: np.ndarray          # the normal's are the bundle's dn1, dn2
    normal: np.ndarray      # (n1, n2, 3)
    area: np.ndarray        # (n1, n2)
    mean: np.ndarray
    gauss: np.ndarray


def deformed_state(source, grid, h, order=4):
    """The DeformedState of an analytic chart, or of an (n1, n2, 3) array
    of nodal positions differentiated by the order-``order`` stencils; a
    chart field or input position that is not finite or reaches
    MAX_COORDINATE raises NonFinitePosition."""
    if isinstance(source, SurfaceChart):
        with np.errstate(all="ignore"):     # checked right below
            fields = source.fields(*grid.mesh())
        for name in ("value",) + SLOT_NAMES:
            require_finite_positions(fields[name], name="chart " + name)
        positions = fields["value"]
        slots = {name: fields[name] for name in SLOT_NAMES}
    else:
        positions = np.asarray(source, dtype=float)
        if positions.shape != (grid.n1, grid.n2, 3):
            raise ConfigError("nodal positions must have shape (%d, %d, 3), "
                              "got %s" % (grid.n1, grid.n2, positions.shape))
        require_finite_positions(positions)
        ops = GridDerivatives(grid.n1, grid.n2, grid.dx1, grid.dx2, order)
        slots = ops.all_slots(positions)
    # checked by check_rank (a reference) or orientation_violations
    with np.errstate(divide="ignore", invalid="ignore"):
        bundle = surface_bundle(slots)
    return DeformedState(
        h=float(h), grid=grid, order=order, positions=positions,
        bundle=bundle, d1=slots["d1"], d2=slots["d2"], normal=bundle["n"],
        area=bundle["a"], mean=bundle["H"], gauss=bundle["K"],
    )


def pack22(m11, m12, m21, m22):
    """Four (n1, n2) component planes as one (n1, n2, 2, 2) stack."""
    return np.stack((m11, m12, m21, m22), axis=-1).reshape(m11.shape + (2, 2))


def form22(bundle, form):
    """A bundle form ("I", "II", "III" or the shape operator "L") packed as
    (n1, n2, 2, 2); the symmetric forms store no 21 entry."""
    lower = form + "21" if form + "21" in bundle else form + "12"
    return pack22(bundle[form + "11"], bundle[form + "12"], bundle[lower],
                  bundle[form + "22"])


def check_rank(state):
    """Raise DegenerateChart where |d1 x d2| drops below round-off scale, or
    where det I = I11 I22 - I12^2, which surface_bundle divides by, is not
    a^2 to 1e-6: near-parallel tangents leave its ~1e-16 I11 I22 round-off
    at a^2's size."""
    b = state.bundle
    scale2 = np.maximum(b["I11"], b["I22"])     # max |d_k y|^2
    a2 = state.area * state.area
    det = b["I11"] * b["I22"] - b["I12"] * b["I12"]
    thin = state.area <= EPS_RANK * scale2
    bad = thin | ~(np.abs(det - a2) <= 1e-6 * a2)
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        if thin[idx]:
            test = ("|d1 x d2| = %.3e against tangent scale^2 = %.3e"
                    % (state.area[idx], scale2[idx]))
        else:
            test = ("det I = I11 I22 - I12^2 = %.3e is not a^2 = %.3e "
                    "to 1e-6" % (det[idx], a2[idx]))
        raise DegenerateChart(idx, test)


def principal_curvatures(mean, gauss):
    """kappa = H +- sqrt(H^2 - K) with a round-off clamp on the discriminant."""
    disc = mean * mean - gauss
    tol = 1e-12 * np.maximum(1.0, np.maximum(mean * mean, np.abs(gauss)))
    if np.any(disc < -tol):
        idx = np.unravel_index(np.argmin(disc + tol), disc.shape)
        raise CurvatureInconsistent(
            "H^2 - K = %.3e < 0 beyond round-off at node %s"
            % (disc[idx], (int(idx[0]), int(idx[1])))
        )
    root = np.sqrt(np.maximum(disc, 0.0))
    return mean + root, mean - root
