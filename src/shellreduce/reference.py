"""Precomputed reference-surface data shared by energies and thresholds.

The reduced shell density contracts deformed-surface forms against fixed
kernels built from the reference chart:

    F0(Q) = <Q, I^{-1}>,   F1(Q) = <Q, L I^{-1} + I^{-1} L>,
    F2(Q) = <Q, L^T I^{-1} L>,

with <A, B> = sum_ij A_ij B_ij, folded into one weight per form component
by :func:`~shellreduce.energy.shell_form_weights`.  The coupling constant
C = 2 sup |I^{1/2} L^T I^{-1/2}|_F of the convexity thresholds needs no
matrix square root: by the cyclic trace,

    |I^{1/2} L^T I^{-1/2}|_F^2 = tr(L^T I^{-1} L I) = <I, L^T I^{-1} L>,

the Frobenius product of I with the third kernel.  The kernels, curvature
suprema and geometric bound h_geom = 2 / sup|kappa| are fixed once per
(chart, grid); the energy evaluator builds the face factors at its own h.
:func:`build_reference` builds the reference's per-node record with the
same :func:`~shellreduce.geometry.deformed_state` as any deformed
configuration, checks its rank and curvatures, and adds the kernels,
products of the bundle's component planes, to make a :class:`ReferenceField`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThicknessError
from .geometry import (DeformedState, check_rank, deformed_state, pack22,
                       principal_curvatures, require_thickness)


@dataclass
class ReferenceField(DeformedState):
    """The reference configuration's record on a grid, plus the kernels,
    the curvature suprema and the geometric bound.

    ``curvature_bound`` is C = 2 sup |I^{1/2} L^T I^{-1/2}|_F, computed as
    2 sup sqrt(<I, kernel2>) by tr(L^T I^{-1} L I) = <I, L^T I^{-1} L>."""

    kernel0: np.ndarray         # I^{-1}               (n1, n2, 2, 2)
    kernel1: np.ndarray         # L I^{-1} + I^{-1} L
    kernel2: np.ndarray         # L^T I^{-1} L
    curvature_bound: float      # C = 2 sup |I^{1/2} L^T I^{-1/2}|_F
    kappa_sup: float            # sup max(|kappa1|, |kappa2|)
    h_geom: float               # 2 / kappa_sup (inf where kappa_sup = 0)

    def require_slab(self, h):
        """Raise ThicknessError unless h < h_geom.

        b(x3) = 1 - 2 H x3 + K x3^2 stays positive through the slab iff
        h sup|kappa| < 2; on a sphere it can vanish inside while both faces
        stay positive, so the face factors alone are not the test."""
        if not h < self.h_geom:
            raise ThicknessError(
                "thickness h = %g exceeds the geometric bound "
                "(h sup|kappa| = %.3f, needs < 2)" % (h, h * self.kappa_sup))


def build_reference(source, grid, h, order=4):
    """The ReferenceField of an analytic chart or nodal positions on a grid;
    ``h`` is recorded only (an energy reads ``mat.h``).

    Raises DegenerateChart where the surface loses rank and
    CurvatureInconsistent where H^2 < K beyond round-off.  Never raises on
    thick geometry: the admissibility report and the energy evaluator both
    test h < ``h_geom`` (the evaluator and the slab integral through
    :meth:`ReferenceField.require_slab`), so the admissibility CLI can
    describe a failing thickness instead of crashing.
    """
    require_thickness(h)
    state = deformed_state(source, grid, h, order)
    check_rank(state)
    kappa1, kappa2 = principal_curvatures(state.mean, state.gauss)
    b = state.bundle
    i11, i12, i22 = b["I11"], b["I12"], b["I22"]
    l11, l12, l21, l22 = b["L11"], b["L12"], b["L21"], b["L22"]

    # I^{-1} = adj(I) / det I, with the det that L = I^{-1} II divides by
    # in surface_bundle; det I = a^2 > 0 once check_rank has passed
    inv_det = 1.0 / (i11 * i22 - i12 * i12)
    j11, j12, j22 = i22 * inv_det, -i12 * inv_det, i11 * inv_det
    # M = I^{-1} L, shared by kernel1 = L I^{-1} + M and kernel2 = L^T M
    m11, m12 = j11 * l11 + j12 * l21, j11 * l12 + j12 * l22
    m21, m22 = j12 * l11 + j22 * l21, j12 * l12 + j22 * l22
    k11, k12 = l11 * m11 + l21 * m21, l11 * m12 + l21 * m22
    k21, k22 = l12 * m11 + l22 * m21, l12 * m12 + l22 * m22

    # |I^{1/2} L^T I^{-1/2}|_F^2 = <I, kernel2> (see the module docstring)
    frob2 = i11 * k11 + i12 * (k12 + k21) + i22 * k22
    curvature_bound = 2.0 * float(np.sqrt(frob2.max()))
    kappa_sup = float(np.maximum(np.abs(kappa1), np.abs(kappa2)).max())

    return ReferenceField(
        **vars(state),
        kernel0=pack22(j11, j12, j12, j22),
        kernel1=pack22(l11 * j11 + l12 * j12 + m11,
                       l11 * j12 + l12 * j22 + m12,
                       l21 * j11 + l22 * j12 + m21,
                       l21 * j12 + l22 * j22 + m22),
        kernel2=pack22(k11, k12, k21, k22),
        curvature_bound=curvature_bound,
        kappa_sup=kappa_sup,
        # b(x3) = 1 - 2 H x3 + K x3^2 > 0 through the slab iff h < h_geom
        h_geom=2.0 / kappa_sup if kappa_sup > 0.0 else np.inf,
    )
