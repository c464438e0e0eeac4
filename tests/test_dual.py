"""Reverse-mode fields (``shellreduce.adjoint``) against finite differences."""

import gc

import numpy as np
import pytest

from shellreduce import adjoint
from shellreduce.adjoint import Var
from shellreduce.energy import MaterialParams
from shellreduce.geometry import make_chart
from shellreduce.grids import Grid
from shellreduce.loads import LoadSpec, load_covector, reduce_loads
from shellreduce.minimizer import ShellObjective
from shellreduce.reference import build_reference


def _fd_jacobian(func, fields, eps=1e-7):
    """Forward-difference Jacobian of a scalar-field function of k arrays."""
    base = func(*fields)
    jac = []
    for i, f in enumerate(fields):
        bumped = [g.copy() for g in fields]
        bumped[i] = bumped[i] + eps
        jac.append((func(*bumped) - base) / eps)
    return np.stack(jac, axis=-1)


def test_seeded_arithmetic_matches_finite_differences():
    rng = np.random.default_rng(5)

    def expr(a, b, c):
        return adjoint.sqrt(a * a + 2.0) * adjoint.log(b * b + c * c + 1.5) \
            - (a - b) / (c * c + 2.0) + a * b * c + (a + 1.0) ** 3

    for _ in range(10):
        fields = [rng.uniform(0.3, 1.7, size=(4, 5)) for _ in range(3)]
        leaves = [Var(f) for f in fields]
        out = expr(*leaves)
        assert isinstance(out, Var)
        # pointwise expression: a unit output adjoint gives the diagonal
        # of the Jacobian, one field per leaf
        grads = adjoint.gradient([(out, np.ones((4, 5)))], leaves)
        fd = _fd_jacobian(expr, fields)
        assert np.abs(np.stack(grads, axis=-1) - fd).max() < 5e-6
        # values are computed exactly as on plain arrays
        assert np.array_equal(out.val, expr(*fields))


def _central_gradient(loss, x, eps=1e-6):
    """Central-difference gradient of a scalar ``loss`` of one array."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        bump = np.zeros_like(x)
        bump[idx] = eps
        grad[idx] = (loss(x + bump) - loss(x - bump)) / (2.0 * eps)
    return grad


@pytest.mark.parametrize("op, vector_args", [
    (adjoint.cross, (True, True)),
    (adjoint.dot, (True, True)),
    (adjoint.scale, (False, True)),
])
def test_vector_node_vjps_match_central_differences(op, vector_args):
    rng = np.random.default_rng(13)
    args = [rng.normal(size=(3, 4, 3) if vec else (3, 4))
            for vec in vector_args]
    plain = op(*args)
    assert isinstance(plain, np.ndarray)
    weight = rng.normal(size=plain.shape)
    # both operands as Vars, then each alone against a plain ndarray
    for as_var in ((True, True), (True, False), (False, True)):
        inputs = [Var(a) if flag else a for a, flag in zip(args, as_var)]
        out = op(*inputs)
        assert isinstance(out, Var)
        assert np.array_equal(out.val, plain)
        leaves = [x for x in inputs if isinstance(x, Var)]
        grads = iter(adjoint.gradient([(out, weight)], leaves))
        for pos, flag in enumerate(as_var):
            if not flag:
                continue

            def loss(x, pos=pos):
                bumped = list(args)
                bumped[pos] = x
                return np.sum(weight * op(*bumped))

            fd = _central_gradient(loss, args[pos])
            assert np.abs(next(grads) - fd).max() < 1e-8, (op, as_var)


def test_vector_node_with_a_shared_operand():
    rng = np.random.default_rng(17)
    c_val = rng.normal(size=(4, 3, 3))
    weight = rng.normal(size=(4, 3))
    c = Var(c_val)
    out = adjoint.dot(c, c)
    (grad,) = adjoint.gradient([(out, weight)], [c])
    # both operand slots feed the one leaf: exactly 2 g c
    assert np.array_equal(grad, 2.0 * weight[..., None] * c_val)
    fd = _central_gradient(
        lambda x: np.sum(weight * adjoint.dot(x, x)), c_val)
    assert np.abs(grad - fd).max() < 1e-8


def test_vector_forward_values_are_the_componentwise_formulas():
    rng = np.random.default_rng(19)
    u, v = rng.normal(size=(2, 5, 6, 3))
    s = rng.normal(size=(5, 6))
    assert np.array_equal(adjoint.cross(u, v), np.cross(u, v))
    assert np.array_equal(adjoint.dot(u, v), u[..., 0] * v[..., 0]
                          + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2])
    assert np.array_equal(adjoint.scale(s, u), s[..., None] * u)


def test_total_propagates_weighted_sums():
    rng = np.random.default_rng(9)
    fields = [rng.uniform(0.5, 1.5, size=(3, 3)) for _ in range(2)]
    w = rng.uniform(0.1, 1.0, size=(3, 3))
    a, b = leaves = [Var(f) for f in fields]
    out = a * b + adjoint.sqrt(a)
    # the output adjoint w makes the leaf adjoints the gradient of the
    # weighted total sum(w * out)
    grad_a, grad_b = adjoint.gradient([(out, w)], leaves)
    expect_a = np.sum(w * (fields[1] + 0.5 / np.sqrt(fields[0])))
    expect_b = np.sum(w * fields[0])
    assert abs(np.sum(grad_a) - expect_a) < 1e-12 * abs(expect_a)
    assert abs(np.sum(grad_b) - expect_b) < 1e-12 * abs(expect_b)
    # the load potential sums plain arrays: the covector's fields contracted
    # with the displacement and the normal change
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 5, 5)
    ref = build_reference(chart, grid, 0.05)
    spec = LoadSpec(face_plus=(0.0, 0.01, 0.002), face_minus=(0.0, 0.0, 0.001),
                    lateral={"top": {0: (0.003, 0.0, 0.0)}}, gamma_t=("top",))
    cov = load_covector(reduce_loads(spec, 0.05), ref)
    assert cov.force is not None and cov.moment is not None
    pos = ref.positions + rng.normal(scale=0.01, size=ref.positions.shape)
    normal = ref.normal + rng.normal(scale=0.01, size=ref.normal.shape)
    expect = (np.sum(cov.force * (pos - ref.positions))
              + np.sum(cov.moment * (normal - ref.normal)))
    got = cov.potential(pos, normal)
    assert abs(got - expect) < 1e-14 * max(1.0, abs(expect))


def test_ndarray_on_the_left_dispatches_to_dual():
    # without the dispatch override, ndarray + Var would broadcast the Var
    # into an object array instead of calling __radd__
    x = Var(np.ones((2, 2)))
    arr = np.full((2, 2), 3.0)
    for out in (arr + x, arr * x, arr - x, arr / x):
        assert isinstance(out, Var)
    assert np.allclose((arr - x).val, 2.0)
    assert np.allclose((arr / x).val, 3.0)


def test_quotient_and_power_rules():
    vals = np.array([0.7, 1.3])
    unit = np.ones(2)
    x = Var(vals)
    (gy,) = adjoint.gradient([(2.0 / (x * x), unit)], [x])
    assert np.allclose(gy, -4.0 / vals ** 3)
    x = Var(vals)
    (gz,) = adjoint.gradient([(x ** 4, unit)], [x])
    assert np.allclose(gz, 4.0 * vals ** 3)
    x = Var(vals)
    zero = x ** 0
    assert np.allclose(zero.val, 1.0)
    (g0,) = adjoint.gradient([(zero, unit)], [x])
    assert np.allclose(g0, 0.0)
    with pytest.raises(TypeError):
        x ** 0.5


def test_value_strips_tangents_and_is_identity_on_arrays():
    arr = np.arange(4.0)
    assert adjoint.value(arr) is arr
    d = Var(arr)
    assert adjoint.value(d) is arr


def test_sweep_accumulates_shared_operands_and_drops_the_graph():
    x = Var(np.array([0.5, 2.0]))
    y = Var(np.array([1.5, -1.0]))
    mid = x * y
    out = mid * x + x
    # seeds on an interior node and on the output add up in one sweep
    gx, gy = adjoint.gradient([(out, np.ones(2)), (mid, np.full(2, 3.0))],
                              [x, y])
    # out = x^2 y + x, plus 3 x y from the interior seed
    assert np.allclose(gx, 2.0 * x.val * y.val + 1.0 + 3.0 * y.val)
    assert np.allclose(gy, x.val ** 2 + 3.0 * x.val)
    # every interior node has pushed its adjoint and let its operands go
    for var in (mid, out):
        assert var.parents == () and var.adj is None


def test_value_and_grad_leaves_no_reference_cycles():
    # nodes reference only their operands, so each call's graph is freed by
    # reference counting and the cyclic collector finds nothing
    chart = make_chart("plate")
    grid = Grid.uniform(chart.domain, 17, 17)
    ref = build_reference(chart, grid, 0.1)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.1)
    loads = reduce_loads(LoadSpec(face_plus=(0.0, 0.0, 0.002),
                                  face_minus=(0.0, 0.0, 0.001)), mat.h)
    objective = ShellObjective(ref, mat, model=1, loads=loads,
                               clamped_edges=("left", "right"),
                               penalty_beta=0.1)
    rng = np.random.default_rng(3)
    pos = ref.positions + rng.normal(scale=1e-3, size=ref.positions.shape)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            objective.value_and_grad(pos)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
