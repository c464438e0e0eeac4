import numpy as np
import pytest

from shellreduce.errors import GridTooSmall
from shellreduce.geometry import SLOT_NAMES
from shellreduce.stencils import (GridDerivatives, _window,
                                  derivative_matrix, fornberg_weights)


def test_fornberg_weights_differentiate_polynomials_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nodes = np.sort(rng.uniform(-1.0, 1.0, size=7))
        z = rng.uniform(nodes[0], nodes[-1])
        w = fornberg_weights(z, nodes, 2)
        coeffs = rng.standard_normal(7)  # degree-6 polynomial
        p = np.polynomial.Polynomial(coeffs)
        vals = p(nodes)
        assert abs(w[:, 0] @ vals - p(z)) < 1e-10
        assert abs(w[:, 1] @ vals - p.deriv(1)(z)) < 1e-9
        assert abs(w[:, 2] @ vals - p.deriv(2)(z)) < 1e-8


@pytest.mark.parametrize("deriv,order", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_derivative_matrix_exact_on_low_degree_polynomials(deriv, order):
    # boundary rows use wider one-sided windows, so exactness must hold on
    # every row, not just the interior
    n, dx = 13, 0.37
    x = np.arange(n) * dx
    mat = derivative_matrix(n, dx, deriv, order)
    for deg in range(order + deriv):
        f = x ** deg
        if deriv == 1:
            exact = deg * x ** (deg - 1) if deg >= 1 else np.zeros(n)
        else:
            exact = deg * (deg - 1) * x ** (deg - 2) if deg >= 2 else np.zeros(n)
        assert np.abs(mat @ f - exact).max() < 1e-8 * max(1.0, np.abs(exact).max())


def test_derivative_matrix_fourth_order_convergence_on_sine():
    errs = []
    for n in (17, 33, 65):
        x = np.linspace(0.0, 1.0, n)
        mat = derivative_matrix(n, x[1] - x[0], 1, 4)
        errs.append(np.abs(mat @ np.sin(3.0 * x) - 3.0 * np.cos(3.0 * x)).max())
    rate = np.log2(errs[0] / errs[1])
    assert rate > 3.7
    rate = np.log2(errs[1] / errs[2])
    assert rate > 3.7


def test_derivative_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        derivative_matrix(9, 0.1, 3)
    with pytest.raises(ValueError):
        derivative_matrix(9, 0.1, 1, order=6)
    with pytest.raises(GridTooSmall):
        derivative_matrix(4, 0.1, 2, order=4)


def _relerr(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# (n1, n2, dx1, dx2, order): non-square grids at both accuracy orders
GRIDS = ((11, 9, 0.1, 0.2, 4), (9, 13, 0.21, 0.08, 4), (7, 12, 0.3, 0.05, 2),
         (16, 5, 0.04, 0.5, 2))


def _axis_ops(ops):
    """Oracle table: slot -> (axis-0 matrix, axis-1 matrix), None for an
    axis the slot does not differentiate."""
    return {"d1": (ops.d1, None), "d2": (None, ops.d2),
            "d11": (ops.d11, None), "d12": (ops.d1, ops.d2),
            "d22": (None, ops.d22)}


def _einsum_slot(ops, slot, f):
    """Oracle: the slot operator applied with einsum, axis 0 first."""
    op0, op1 = _axis_ops(ops)[slot]
    if op0 is not None:
        f = np.einsum("ik,kjc->ijc", op0, f)
    if op1 is not None:
        f = np.einsum("jk,ikc->ijc", op1, f)
    return f


def _kron_adjoint(ops, slot, sigma):
    """Oracle: the transposed slot operator as one Kronecker matrix on the
    C-ordered nodal values, applied to each component."""
    n1, n2, c = sigma.shape
    op0, op1 = _axis_ops(ops)[slot]
    mat = np.kron(np.eye(n1) if op0 is None else op0,
                  np.eye(n2) if op1 is None else op1)
    return (mat.T @ sigma.reshape(n1 * n2, c)).reshape(sigma.shape)


def test_derivative_matrix_matches_the_per_row_build():
    # interior rows share one Fornberg call; the oracle runs the recursion
    # on every row's own window
    for n, dx in ((5, 0.3), (6, 0.7), (13, 0.37), (40, 1.0 / 39)):
        for deriv in (1, 2):
            for order in (2, 4):
                if n < order + deriv:
                    continue
                mat = derivative_matrix(n, dx, deriv, order)
                want = np.zeros((n, n))
                half = (order + 1) // 2
                for i in range(n):
                    if half <= i <= n - 1 - half:
                        lo, hi = i - half, i + half + 1
                    else:
                        lo, hi = _window(i, n, order + deriv)
                    nodes = np.arange(lo, hi, dtype=float) * dx
                    want[i, lo:hi] = fornberg_weights(i * dx, nodes,
                                                      deriv)[:, deriv]
                assert _relerr(mat, want) <= 1e-13, (n, deriv, order)


def _fornberg_numpy(z, x, m):
    """Oracle: Fornberg's recursion on numpy scalars indexing a 2-D array,
    the operations ``fornberg_weights`` runs on Python floats."""
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


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("n", [5, 9, 17, 33, 97, 257])
def test_float_fornberg_is_bit_identical_to_the_numpy_scalar_recursion(n):
    dx = 1.0 / (n - 1)
    for deriv in (1, 2):
        for order in (2, 4):
            half = (order + 1) // 2
            if n < max(2 * half + 1, order + deriv):
                continue
            offsets = np.arange(-half, half + 1, dtype=float) * dx
            centered = _fornberg_numpy(0.0, offsets, deriv)
            assert _same_bits(fornberg_weights(0.0, offsets, deriv),
                              centered)
            want = np.zeros((n, n))
            for i in range(n):
                # every row's own window, interior rows included
                interior = half <= i <= n - 1 - half
                lo, hi = ((i - half, i + half + 1) if interior
                          else _window(i, n, order + deriv))
                nodes = np.arange(lo, hi, dtype=float) * dx
                w = _fornberg_numpy(i * dx, nodes, deriv)
                assert _same_bits(fornberg_weights(i * dx, nodes, deriv), w)
                want[i, lo:hi] = (centered if interior else w)[:, deriv]
            assert _same_bits(derivative_matrix(n, dx, deriv, order),
                              want), (n, deriv, order)


def test_all_slots_match_manual_axis_application():
    for seed in (3, 17, 29):
        rng = np.random.default_rng(seed)
        for n1, n2, dx1, dx2, order in GRIDS:
            ops = GridDerivatives(n1, n2, dx1, dx2, order=order)
            f = rng.standard_normal((n1, n2, 3))
            slots = ops.all_slots(f)
            assert list(slots) == list(SLOT_NAMES)
            for name in SLOT_NAMES:
                assert slots[name].shape == f.shape
                assert slots[name].flags.c_contiguous, name
                assert _relerr(slots[name], _einsum_slot(ops, name, f)) \
                    <= 1e-13, (seed, n1, n2, order, name)
            # mixed derivative must not depend on application order
            d21 = np.einsum("ik,kjc->ijc", ops.d1,
                            np.einsum("jk,ikc->ijc", ops.d2, f))
            assert _relerr(slots["d12"], d21) <= 1e-13


def test_scatter_is_the_exact_adjoint_of_every_slot():
    # <sigma, op(f)> == <scatter(sigma), f> must hold to round-off, slot by
    # slot and summed; the gradient assembly relies on this identity, not
    # on approximations
    for seed in (11, 23, 37):
        rng = np.random.default_rng(seed)
        for n1, n2, dx1, dx2, order in GRIDS:
            ops = GridDerivatives(n1, n2, dx1, dx2, order=order)
            f = rng.standard_normal((n1, n2, 3))
            dots = {name: rng.standard_normal((n1, n2, 3))
                    for name in SLOT_NAMES}
            slots = ops.all_slots(f)
            for name in SLOT_NAMES:
                alone = {other: np.zeros_like(f) for other in SLOT_NAMES}
                alone[name] = dots[name]
                back = ops.scatter(alone)
                assert back.shape == f.shape
                assert _relerr(back, _kron_adjoint(ops, name, dots[name])) \
                    <= 1e-13, (seed, n1, n2, order, name)
                lhs = np.sum(dots[name] * slots[name])
                rhs = np.sum(back * f)
                assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
            summed = ops.scatter(dots)
            assert summed.flags.c_contiguous
            want = sum(_kron_adjoint(ops, name, dots[name])
                       for name in SLOT_NAMES)
            assert _relerr(summed, want) <= 1e-13, (seed, n1, n2, order)
            lhs = sum(np.sum(dots[name] * slots[name]) for name in SLOT_NAMES)
            assert abs(lhs - np.sum(summed * f)) < 1e-11 * max(1.0, abs(lhs))
