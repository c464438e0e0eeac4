"""Precomputed reference-surface data shared by energies and thresholds.

The reduced shell density contracts deformed-surface forms against fixed
kernels built from the reference chart:

    F0(Q) = <Q, I^{-1}>,   F1(Q) = <Q, L I^{-1} + I^{-1} L>,
    F2(Q) = <Q, L^T I^{-1} L>,

with <A, B> = sum_ij A_ij B_ij, folded into one weight per form component
by :func:`~shellreduce.energy.shell_form_weights`.  Those kernels and the
curvature suprema entering the convexity thresholds are fixed once per
(chart, grid); only the face factors depend on the thickness, and the
energy evaluator rebuilds them at the material's.  :func:`build_reference`
builds the reference's per-node record with the same
:func:`~shellreduce.geometry.deformed_state` as any deformed configuration
(face factors A^{+-} = 1 -+ h H + h^2 K / 4 included), checks its rank and
curvatures, and adds the kernels to make a :class:`ReferenceField`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (DeformedState, check_rank, deformed_state, form22,
                       principal_curvatures, require_thickness)


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


@dataclass
class ReferenceField(DeformedState):
    """The reference configuration's record on a grid (face factors at the
    h it was built for), plus the h-free kernels and curvature suprema."""

    kernel0: np.ndarray         # I^{-1}               (n1, n2, 2, 2)
    kernel1: np.ndarray         # L I^{-1} + I^{-1} L
    kernel2: np.ndarray         # L^T I^{-1} L
    curvature_bound: float      # C = 2 sup |I^{1/2} L^T I^{-1/2}|_F
    kappa_sup: float            # sup max(|kappa1|, |kappa2|)


def _product22(*factors):
    """Pointwise product of two or three stacked (..., 2, 2) fields.

    Each entry is a sum over the inner index path, with every term
    multiplied left to right and the terms added in lexicographic path order
    (np.einsum's order, so the result matches the einsum bit for bit).
    Working on whole component planes avoids the per-node overhead that
    einsum and batched matmul pay on 2x2 blocks.
    """
    out = np.empty(factors[0].shape)
    for i, last in itertools.product(range(2), repeat=2):
        total = 0.0
        for inner in itertools.product(range(2), repeat=len(factors) - 1):
            path = (i,) + inner + (last,)
            term = factors[0][..., path[0], path[1]]
            for factor, a, b in zip(factors[1:], path[1:], path[2:]):
                term = term * factor[..., a, b]
            total = total + term
        out[..., i, last] = total
    return out


def build_reference(source, grid, h, order=4):
    """The ReferenceField of an analytic chart or nodal positions on a grid;
    ``h`` sets only its face factors (an energy reads ``mat.h``).

    Raises DegenerateChart where the surface loses rank and
    CurvatureInconsistent where H^2 < K beyond round-off.  Never raises on
    thick geometry: the face factors may come out non-positive and
    :func:`~shellreduce.admissibility.admissibility_report` reports the
    geometric bound ``h_geom``, so the admissibility CLI can describe a
    failing thickness instead of crashing.
    """
    require_thickness(h)
    state = deformed_state(source, grid, h, order)
    check_rank(state)
    kappa1, kappa2 = principal_curvatures(state.mean, state.gauss)
    first = form22(state.bundle, "I")
    inv_first = np.linalg.inv(first)
    sqrt_first, inv_sqrt_first = spd_sqrt_2x2(first)

    L = form22(state.bundle, "L")
    Lt = np.swapaxes(L, -1, -2)
    kernel1 = _product22(L, inv_first) + _product22(inv_first, L)
    kernel2 = _product22(Lt, inv_first, L)

    bend = _product22(sqrt_first, Lt, inv_sqrt_first)
    # squared Frobenius norm as the sum of the two squared column norms
    bend_norm = np.sqrt((bend[..., 0, 0] ** 2 + bend[..., 1, 0] ** 2)
                        + (bend[..., 0, 1] ** 2 + bend[..., 1, 1] ** 2))
    curvature_bound = 2.0 * float(bend_norm.max())
    kappa_sup = float(np.maximum(np.abs(kappa1), np.abs(kappa2)).max())

    return ReferenceField(
        **vars(state),
        kernel0=inv_first,
        kernel1=kernel1,
        kernel2=kernel2,
        curvature_bound=curvature_bound,
        kappa_sup=kappa_sup,
    )
