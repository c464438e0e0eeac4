import numpy as np
import pytest

from shellreduce.errors import GridTooSmall
from shellreduce.geometry import SLOT_NAMES
from shellreduce.stencils import (GridDerivatives, derivative_matrix,
                                  fornberg_weights)


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


def test_all_slots_match_manual_axis_application():
    rng = np.random.default_rng(3)
    ops = GridDerivatives(11, 9, 0.1, 0.2, order=4)
    f = rng.standard_normal((11, 9, 3))
    slots = ops.all_slots(f)
    assert np.allclose(slots["d1"], np.einsum("ik,kjc->ijc", ops.d1, f))
    assert np.allclose(slots["d2"], np.einsum("jk,ikc->ijc", ops.d2, f))
    assert np.allclose(slots["d22"], np.einsum("jk,ikc->ijc", ops.d22, f))
    # mixed derivative must not depend on application order
    d21 = np.einsum("ik,kjc->ijc", ops.d1, np.einsum("jk,ikc->ijc", ops.d2, f))
    assert np.allclose(slots["d12"], d21, atol=1e-12)


def test_scatter_is_the_exact_adjoint_of_every_slot():
    # <sigma, op(f)> == <scatter(op, sigma), f> must hold to round-off;
    # the gradient assembly relies on this identity, not on approximations
    rng = np.random.default_rng(11)
    ops = GridDerivatives(9, 13, 0.21, 0.08, order=4)
    for _ in range(5):
        f = rng.standard_normal((9, 13, 3))
        sigma = rng.standard_normal((9, 13, 3))
        slots = ops.all_slots(f)
        for name in SLOT_NAMES:
            lhs = np.sum(sigma * slots[name])
            rhs = np.sum(ops.scatter(name, sigma) * f)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
