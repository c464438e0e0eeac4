"""Precomputed reference-surface data shared by energies and thresholds.

The reduced densities contract deformed-surface forms against fixed kernels
built from the reference chart:

    F0(Q) = <Q, I^{-1}>,   F1(Q) = <Q, L I^{-1} + I^{-1} L>,
    F2(Q) = <Q, L^T I^{-1} L>,

with <A, B> = sum_ij A_ij B_ij.  Those kernels, the face factors
A^{+-} = 1 -+ h H + h^2 K / 4, the symmetric square roots of the first form,
and the curvature suprema entering the convexity thresholds are all fixed
once per (chart, grid, thickness), so they live in one cached record.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import FundamentalData, fundamental_data
from .grids import Grid


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

    chart_name: str
    chart_params: dict
    grid: Grid
    h: float
    order: int
    fd: FundamentalData
    positions: np.ndarray       # y0 nodal positions  (n1, n2, 3)
    inv_first: np.ndarray       # I^{-1}               (n1, n2, 2, 2)
    sqrt_first: np.ndarray      # I^{1/2}
    inv_sqrt_first: np.ndarray  # I^{-1/2}
    kernel0: np.ndarray         # I^{-1}
    kernel1: np.ndarray         # L I^{-1} + I^{-1} L
    kernel2: np.ndarray         # L^T I^{-1} L
    a_plus: np.ndarray          # A^+ = b(+h/2)
    a_minus: np.ndarray         # A^- = b(-h/2)
    bend_norm: np.ndarray       # |I^{1/2} L^T I^{-1/2}|_F per node
    curvature_bound: float      # C = 2 sup |I^{1/2} L^T I^{-1/2}|_F
    kappa_sup: float            # sup max(|kappa1|, |kappa2|)

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

    def thickness_margin(self):
        """h * sup|kappa|, admissible geometry iff < 2."""
        return self.h * self.kappa_sup


def contract(Q, kernel):
    """<Q, kernel> = sum_ij Q_ij kernel_ij pointwise.

    ``Q`` may be a stacked (n1, n2, 2, 2) array or a dict of possibly-Dual
    components {"11": .., "12": .., "21": .., "22": ..}; the kernel is always
    a plain stacked array.
    """
    if isinstance(Q, np.ndarray):
        return np.einsum("...ij,...ij->...", Q, kernel)
    return (Q["11"] * kernel[..., 0, 0] + Q["12"] * kernel[..., 0, 1]
            + Q["21"] * kernel[..., 1, 0] + Q["22"] * kernel[..., 1, 1])


def build_reference(chart, grid, h, order=4):
    """Assemble the ReferenceField for a chart/grid/thickness triple.

    Never raises on thick geometry: the face factors may come out
    non-positive and :func:`check_thickness` reports the verdict, so the
    admissibility CLI can describe a failing thickness instead of crashing.
    """
    if h <= 0:
        raise ConfigError("thickness must be positive, h = %g" % h)
    return _assemble(fundamental_data(chart, grid, order), h,
                     chart.positions_on(grid), chart.name, chart.params)


def _assemble(fd, h, positions, chart_name, chart_params):
    """The kernels, face factors and curvature suprema of ``fd`` at ``h``."""
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
        chart_name=str(chart_name),
        chart_params=dict(chart_params),
        grid=fd.grid,
        h=float(h),
        order=int(fd.order),
        fd=fd,
        positions=np.asarray(positions, dtype=float),
        inv_first=inv_first,
        sqrt_first=sqrt_first,
        inv_sqrt_first=inv_sqrt_first,
        kernel0=inv_first,
        kernel1=kernel1,
        kernel2=kernel2,
        a_plus=a_plus,
        a_minus=a_minus,
        bend_norm=bend_norm,
        curvature_bound=curvature_bound,
        kappa_sup=kappa_sup,
    )


def check_thickness(ref):
    """(margin, ok): margin = h * sup|kappa| must stay below 2.

    Equivalent to b(x3) > 0 through the whole thickness, hence to positive
    face factors A^{+-} everywhere.
    """
    margin = ref.thickness_margin()
    return margin, bool(margin < 2.0)


# ---------------------------------------------------------------------------
# cache serialization
# ---------------------------------------------------------------------------

_ARRAY_FIELDS = (
    "grad", "normal", "grad_n", "area", "first", "second", "third",
    "shape_op", "mean", "gauss", "kappa1", "kappa2",
)


def save_reference(ref, path):
    """Write a ReferenceField to an .npz cache file."""
    header = {
        "chart_name": ref.chart_name,
        "chart_params": _jsonable(ref.chart_params),
        "h": ref.h,
        "order": ref.order,
        "domain": ref.grid.domain,
        "shape": [ref.grid.n1, ref.grid.n2],
    }
    arrays = {name: getattr(ref.fd, name) for name in _ARRAY_FIELDS}
    arrays["positions"] = ref.positions
    arrays["x1"] = ref.grid.x1
    arrays["x2"] = ref.grid.x2
    with open(path, "wb") as fh:
        np.savez_compressed(fh, header=json.dumps(header, sort_keys=True),
                            **arrays)


def load_reference(path, expect=None):
    """Load a cached ReferenceField; optionally validate its identity.

    ``expect`` may hold any of the header keys (chart_name, h, order, shape,
    domain); mismatches raise ConfigError so a stale cache cannot silently
    feed a run.
    """
    with open(path, "rb") as fh:
        data = np.load(io.BytesIO(fh.read()), allow_pickle=False)
    header = json.loads(str(data["header"]))
    if expect:
        for key, want in expect.items():
            have = header.get(key)
            if _normalize(have) != _normalize(want):
                raise ConfigError(
                    "reference cache mismatch for %r: cache has %r, run wants %r"
                    % (key, have, want)
                )
    grid = Grid(data["x1"], data["x2"])
    fd = FundamentalData(
        grid=grid, order=int(header["order"]),
        **{name: data[name] for name in _ARRAY_FIELDS},
    )
    return _assemble(fd, float(header["h"]), data["positions"],
                     header["chart_name"], header["chart_params"])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {_key_str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _key_str(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _normalize(x):
    if isinstance(x, (list, tuple)):
        return tuple(_normalize(v) for v in x)
    return x
