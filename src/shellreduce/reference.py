"""Precomputed reference-surface data shared by energies and thresholds.

The reduced densities contract deformed-surface forms against fixed kernels
built from the reference chart:

    F0(Q) = <Q, I^{-1}>,   F1(Q) = <Q, L I^{-1} + I^{-1} L>,
    F2(Q) = <Q, L^T I^{-1} L>,

with <A, B> = sum_ij A_ij B_ij.  Those kernels, the face factors
A^{+-} = 1 -+ h H + h^2 K / 4 and the curvature suprema entering the
convexity thresholds are all fixed once per (chart, grid, thickness), so
:func:`build_reference` computes them once into a :class:`ReferenceField`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import FundamentalData, fundamental_data


def spd_sqrt_2x2(mat):
    """Symmetric square root and inverse square root of SPD 2x2 fields.

    Uses the closed form sqrt(M) = (M + sqrt(det M) Id) / t with
    t = sqrt(tr M + 2 sqrt(det M)).
    """
    m = np.asarray(mat, dtype=float)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    tr = m[..., 0, 0] + m[..., 1, 1]
    if np.any(det <= 0.0) or np.any(tr <= 0.0):
        raise ConfigError("spd_sqrt_2x2 needs symmetric positive definite input")
    s = np.sqrt(det)
    t = np.sqrt(tr + 2.0 * s)
    root = (m + s[..., None, None] * np.eye(2)) / t[..., None, None]
    inv_root = np.linalg.inv(root)
    return root, inv_root


def face_factors(mean, gauss, h):
    """A^+ = 1 - hH + h^2 K/4 and A^- = 1 + hH + h^2 K/4 (the thickness
    Jacobian b(x3) = 1 - 2 H x3 + K x3^2 evaluated at x3 = +-h/2)."""
    quarter = 0.25 * h * h * gauss
    return 1.0 - h * mean + quarter, 1.0 + h * mean + quarter


@dataclass
class ReferenceField:
    """Reference-chart data on a grid for one thickness value."""

    h: float
    fd: FundamentalData
    positions: np.ndarray       # y0 nodal positions  (n1, n2, 3)
    kernel0: np.ndarray         # I^{-1}               (n1, n2, 2, 2)
    kernel1: np.ndarray         # L I^{-1} + I^{-1} L
    kernel2: np.ndarray         # L^T I^{-1} L
    a_plus: np.ndarray          # A^+ = b(+h/2)
    a_minus: np.ndarray         # A^- = b(-h/2)
    curvature_bound: float      # C = 2 sup |I^{1/2} L^T I^{-1/2}|_F
    kappa_sup: float            # sup max(|kappa1|, |kappa2|)

    @property
    def grid(self):
        return self.fd.grid

    @property
    def order(self):
        return self.fd.order

    @property
    def area(self):
        return self.fd.area

    @property
    def mean(self):
        return self.fd.mean

    @property
    def gauss(self):
        return self.fd.gauss

    @property
    def normal(self):
        return self.fd.normal


def contract(Q, kernel):
    """<Q, kernel> = sum_ij Q_ij kernel_ij pointwise.

    ``Q`` may be a stacked (n1, n2, 2, 2) array or a dict of numpy or Var
    components {"11": .., "12": .., "21": .., "22": ..}; the kernel is always
    a plain stacked array.
    """
    if isinstance(Q, np.ndarray):
        return np.einsum("...ij,...ij->...", Q, kernel)
    return (Q["11"] * kernel[..., 0, 0] + Q["12"] * kernel[..., 0, 1]
            + Q["21"] * kernel[..., 1, 0] + Q["22"] * kernel[..., 1, 1])


def build_reference(chart, grid, h, order=4):
    """The ReferenceField of a chart/grid/thickness triple.

    Never raises on thick geometry: the face factors may come out
    non-positive and :func:`~shellreduce.admissibility.admissibility_report`
    reports the geometric bound ``h_geom``, so the admissibility CLI can
    describe a failing thickness instead of crashing.
    """
    if h <= 0:
        raise ConfigError("thickness must be positive, h = %g" % h)
    fd = fundamental_data(chart, grid, order)
    inv_first = np.linalg.inv(fd.first)
    sqrt_first, inv_sqrt_first = spd_sqrt_2x2(fd.first)

    L = fd.shape_op
    kernel1 = np.einsum("...ij,...jk->...ik", L, inv_first)
    kernel1 = kernel1 + np.einsum("...ij,...jk->...ik", inv_first, L)
    Lt = np.swapaxes(L, -1, -2)
    kernel2 = np.einsum("...ij,...jk,...kl->...il", Lt, inv_first, L)

    a_plus, a_minus = face_factors(fd.mean, fd.gauss, h)

    bend = np.einsum("...ij,...jk,...kl->...il", sqrt_first, Lt, inv_sqrt_first)
    bend_norm = np.sqrt(np.einsum("...ij,...ij->...", bend, bend))
    curvature_bound = 2.0 * float(bend_norm.max())
    kappa_sup = float(np.maximum(np.abs(fd.kappa1), np.abs(fd.kappa2)).max())

    return ReferenceField(
        h=float(h),
        fd=fd,
        positions=np.asarray(chart.positions_on(grid), dtype=float),
        kernel0=inv_first,
        kernel1=kernel1,
        kernel2=kernel2,
        a_plus=a_plus,
        a_minus=a_minus,
        curvature_bound=curvature_bound,
        kappa_sup=kappa_sup,
    )
