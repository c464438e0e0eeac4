"""Adjoint building blocks of the gradient.

The vector kernels that ``surface_bundle`` and its adjoint are written in,
the load potential as a contraction with the load covector, and the memory
left behind by ``value_and_grad``.
"""

import gc

import numpy as np

from shellreduce.energy import MaterialParams
from shellreduce.geometry import _cross, _dot, _scale, make_chart
from shellreduce.grids import Grid
from shellreduce.loads import LoadSpec, load_covector, reduce_loads
from shellreduce.minimizer import ShellObjective
from shellreduce.reference import build_reference


def test_vector_forward_values_are_the_componentwise_formulas():
    rng = np.random.default_rng(19)
    u, v = rng.normal(size=(2, 5, 6, 3))
    s = rng.normal(size=(5, 6))
    assert np.array_equal(_cross(u, v), np.cross(u, v))
    assert np.array_equal(_dot(u, v), u[..., 0] * v[..., 0]
                          + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2])
    assert np.array_equal(_scale(s, u), s[..., None] * u)
    # the output dtype follows the inputs, so complex fields pass through
    w = u + 1j * v
    assert np.array_equal(_cross(w, v), np.cross(w, v))
    assert np.array_equal(_scale(s, w), s[..., None] * w)


def test_total_propagates_weighted_sums():
    # the load potential's total is the covector's weighted sum: its force
    # and moment fields contracted with the displacement and the normal
    # change, on a curved reference with a moment
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    ref = build_reference(chart, Grid.uniform(chart.domain, 5, 5), 0.05)
    spec = LoadSpec(face_plus=(0.0, 0.01, 0.002), face_minus=(0.0, 0.0, 0.001),
                    lateral={"top": {0: (0.003, 0.0, 0.0)}}, gamma_t=("top",))
    cov = load_covector(reduce_loads(spec, 0.05), ref)
    assert cov.force is not None and cov.moment is not None
    rng = np.random.default_rng(9)
    pos = ref.positions + rng.normal(scale=0.01, size=ref.positions.shape)
    normal = ref.normal + rng.normal(scale=0.01, size=ref.normal.shape)
    expect = (np.sum(cov.force * (pos - ref.positions))
              + np.sum(cov.moment * (normal - ref.normal)))
    got = cov.potential(pos, normal)
    assert abs(got - expect) < 1e-14 * max(1.0, abs(expect))


def test_value_and_grad_leaves_no_reference_cycles():
    # the gradient holds plain arrays only, so each call's temporaries are
    # freed by reference counting and the cyclic collector finds nothing
    chart = make_chart("plate")
    grid = Grid.uniform(chart.domain, 17, 17)
    ref = build_reference(chart, grid, 0.1)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.1)
    loads = LoadSpec(face_plus=(0.0, 0.0, 0.002),
                     face_minus=(0.0, 0.0, 0.001))
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
