"""One-dimensional finite-difference operators on uniform grids.

Weights come from Fornberg's recursion, which returns the exact
interpolatory differentiation weights for an arbitrary node set.  Interior
rows use centered windows of the requested order; on a uniform grid they all
share one set of weights.  Rows too close to the boundary fall back to
one-sided windows wide enough to keep the same formal order.

Slots are applied to ``(n1, n2, c)`` fields as batched BLAS matmuls: one
``(n, n)`` operator times an ``(n, c)`` slab per grid line.  The batched form
is kept over a single 2-D GEMM on the flattened field (``op @
f.reshape(n1, -1)``) because results must not depend on the thread count:
with OpenBLAS 0.3.31 the 2-D GEMM gives different last bits at one and two
threads from 97^2 up (as do the square GEMMs a tensor-product metric
would take: seen at 97^2 and 129^2), while the batched products hash
identically at both thread counts from 17^2 to 257^2.  The minimizer's
tensor metric applies its 1-D mode matrices through the same helper.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooSmall

ORDERS = (2, 4)     # formal accuracy orders of the stencils


def fornberg_weights(z, x, m):
    """Differentiation weights at point ``z`` for nodes ``x``.

    Returns an array ``w`` of shape ``(len(x), m + 1)`` where ``w[:, k]``
    are the weights of the ``k``-th derivative at ``z``:
    ``f^(k)(z) ~= sum_j w[j, k] f(x[j])``.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w


def _window(i, n, npts):
    """Index range of the stencil window for row i, clipped to the grid."""
    half = npts // 2
    lo = i - half
    if npts % 2 == 0:
        lo = i - (half - 1)
    lo = max(0, min(lo, n - npts))
    return lo, lo + npts


def derivative_matrix(n, spacing, deriv, order=4):
    """Dense ``(n, n)`` differentiation matrix of the given derivative.

    Parameters
    ----------
    n : int
        Number of grid nodes.
    spacing : float
        Uniform node spacing.
    deriv : int
        Derivative order, 1 or 2.
    order : int
        Formal accuracy order, 2 or 4 (boundary rows keep the same order
        through wider one-sided windows).
    """
    if deriv not in (1, 2):
        raise ValueError("deriv must be 1 or 2")
    if order not in ORDERS:
        raise ValueError("order must be one of %s" % (ORDERS,))
    # interior: centered window with order+1 points (the centered second
    # derivative gains one order from symmetry); boundary: order+deriv points.
    npts_int = order + 1
    npts_bnd = order + deriv
    npts_min = max(npts_int, npts_bnd)
    if n < npts_min:
        raise GridTooSmall(
            "need at least %d nodes per direction for deriv=%d order=%d, got %d"
            % (npts_min, deriv, order, n)
        )
    mat = np.zeros((n, n))
    half = npts_int // 2
    # uniform spacing: every centered row has the same weights
    offsets = np.arange(-half, half + 1, dtype=float) * spacing
    centered = fornberg_weights(0.0, offsets, deriv)[:, deriv]
    for i in range(half, n - half):
        mat[i, i - half:i + half + 1] = centered
    for i in list(range(half)) + list(range(n - half, n)):
        lo, hi = _window(i, n, npts_bnd)
        nodes = np.arange(lo, hi, dtype=float) * spacing
        w = fornberg_weights(i * spacing, nodes, deriv)
        mat[i, lo:hi] = w[:, deriv]
    return mat


class GridDerivatives:
    """Pre-built differentiation matrices for a tensor grid.

    Each derivative slot applies one 1-D matrix per axis it differentiates:
    d1 and d11 run along axis 0, d2 and d22 along axis 1, and d12 is the d1
    pass followed by d2.  ``all_slots`` applies the five to a field shaped
    ``(n1, n2, c)``; ``scatter`` is its mirror, the summed transpose the
    gradient assembly needs.
    """

    def __init__(self, n1, n2, dx1, dx2, order=4):
        self.d1 = derivative_matrix(n1, dx1, 1, order)
        self.d2 = derivative_matrix(n2, dx2, 1, order)
        self.d11 = derivative_matrix(n1, dx1, 2, order)
        self.d22 = derivative_matrix(n2, dx2, 2, order)

    def all_slots(self, f):
        """The five derivative fields of ``f``: d1, d2, d11, d12, d22.

        Every field is C-ordered, so the vector kernels view components
        without a copy; the axis-1 products already return that layout.
        """
        d1 = _along0(self.d1, f)
        return {"d1": np.ascontiguousarray(d1),
                "d2": np.matmul(self.d2, f),
                "d11": np.ascontiguousarray(_along0(self.d11, f)),
                "d12": np.matmul(self.d2, d1),
                "d22": np.matmul(self.d22, f)}

    def scatter(self, dots):
        """Adjoint of ``all_slots``: the nodal gradient of the functional
        ``sum over slots of sum(dots[slot] * slot(f))``.

        Each slot's transpose runs the reverse of its forward pass (for d12
        the axis-1 transpose first), and the five fields are summed in slot
        order into a zeroed C-ordered array.
        """
        grad = np.zeros(dots["d1"].shape)
        grad += _along0(self.d1.T, dots["d1"])
        grad += np.matmul(self.d2.T, dots["d2"])
        grad += _along0(self.d11.T, dots["d11"])
        grad += _along0(self.d1.T, np.matmul(self.d2.T, dots["d12"]))
        grad += np.matmul(self.d22.T, dots["d22"])
        return grad


def _along0(op, f):
    """``op`` applied along axis 0 of an (n1, n2, c) field, one (n1, n1) by
    (n1, c) product per axis-1 line; batched, not one GEMM on
    ``f.reshape(n1, -1)``, so the bits do not depend on the thread count
    (see the module docstring)."""
    return np.matmul(op, f.transpose(1, 0, 2)).transpose(1, 0, 2)
