import numpy as np
import pytest

from shellreduce.errors import ConfigError
from shellreduce.geometry import make_chart
from shellreduce.grids import Grid, area_weights, edge_weights
from shellreduce.loads import (LoadSpec, edge_arclength, load_covector,
                               reduce_loads, thickness_moments,
                               uniform_transverse)
from shellreduce.reference import build_reference

RNG = np.random.default_rng(77)


def _plate_ref(h=0.1, n=9):
    chart = make_chart("plate")
    grid = Grid.uniform(chart.domain, n, n)
    return build_reference(chart, grid, h)


# ---------------------------------------------------------------------------
# thickness reduction identities
# ---------------------------------------------------------------------------

def test_constant_body_force_reduces_to_h_times_density():
    c = np.array([0.3, -0.2, 1.1])
    res = reduce_loads(LoadSpec(body={0: c}), h=0.25)
    assert np.abs(res.force_area - 0.25 * c).max() < 1e-15
    assert np.abs(res.moment_area).max() < 1e-16
    assert res.force_edge == {} and res.moment_edge == {}


def test_uniform_transverse_is_a_pure_push():
    res = reduce_loads(uniform_transverse(0.004), h=0.1)
    assert np.abs(res.force_area - np.array([0.0, 0.0, 0.004])).max() < 1e-18
    assert np.abs(res.moment_area).max() < 1e-18


def test_antisymmetric_face_pair_is_a_pure_couple():
    t = np.array([0.5, 0.0, -0.7])
    res = reduce_loads(LoadSpec(face_plus=t, face_minus=-t), h=0.2)
    assert np.abs(res.force_area).max() < 1e-16
    assert np.abs(res.moment_area - 0.2 * t).max() < 1e-15


def test_linear_body_profile_reduces_to_cubic_moment():
    c = np.array([1.0, 2.0, -1.0])
    h = 0.3
    res = reduce_loads(LoadSpec(body={1: c}), h=h)
    assert np.abs(res.force_area).max() < 1e-16
    assert np.abs(res.moment_area - h ** 3 / 12.0 * c).max() < 1e-15


def test_lateral_profile_reduces_per_edge():
    t = np.array([0.0, 0.4, 0.1])
    d = np.array([-0.2, 0.0, 0.3])
    h = 0.15
    spec = LoadSpec(lateral={"right": {0: t, 1: d}}, gamma_t=("right",))
    res = reduce_loads(spec, h=h)
    assert np.abs(res.force_edge["right"] - h * t).max() < 1e-15
    assert np.abs(res.moment_edge["right"]
                  - h ** 3 / 12.0 * d - 0.0 * t).max() < 1e-15


def test_gauss_count_does_not_matter_for_polynomial_profiles():
    # the fixed 8-node Gauss-Legendre rule integrates x3^p exactly through
    # p = 15, so both moments of a degree-7 profile match the closed forms
    # int_{-h/2}^{h/2} x3^p dx3 = 2 (h/2)^(p+1) / (p+1) (even p), 0 (odd p)
    profile = {p: RNG.normal(size=3) for p in range(8)}
    h = 0.37

    def exact(p):
        return 2.0 * (0.5 * h) ** (p + 1) / (p + 1) if p % 2 == 0 else 0.0

    zeroth, first = thickness_moments(profile, h)
    for got, shift in ((zeroth, 0), (first, 1)):
        want = sum(coef * exact(p + shift) for p, coef in profile.items())
        scale = sum(np.abs(coef) * abs(exact(p + shift))
                    for p, coef in profile.items())
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_reduce_loads_validation():
    with pytest.raises(ConfigError):
        reduce_loads(LoadSpec(body={0: (1.0, 0.0, 0.0)}), h=0.0)
    with pytest.raises(ConfigError):
        LoadSpec(body={-1: (1.0, 0.0, 0.0)})
    with pytest.raises(ConfigError):
        LoadSpec(body={0: (1.0, 0.0)})          # not a 3-vector
    with pytest.raises(ConfigError):
        LoadSpec(lateral={"diagonal": {0: (1, 0, 0)}}, gamma_t=("left",))
    with pytest.raises(ConfigError):
        LoadSpec(gamma_t=("left", "right", "bottom", "top"))  # nothing clamped
    with pytest.raises(ConfigError):
        LoadSpec(lateral={"left": {0: (1, 0, 0)}}, gamma_t=("right",))
    with pytest.raises(ConfigError):
        LoadSpec(gamma_t=("north",))
    with pytest.raises(ConfigError):
        LoadSpec(boundary_measure="volume")


# ---------------------------------------------------------------------------
# the reduced potential
# ---------------------------------------------------------------------------

def test_potential_vanishes_at_the_reference_configuration():
    ref = _plate_ref()
    spec = LoadSpec(body={0: (0.1, 0.2, 0.3)},
                    lateral={"top": {0: (0.0, 0.0, 1.0)}},
                    gamma_t=("top",))
    res = reduce_loads(spec, ref.h)
    value = load_covector(res, ref).potential(ref.positions, ref.normal)
    assert value == 0.0


def test_potential_is_jointly_linear_in_displacement_and_tilt():
    ref = _plate_ref()
    res = reduce_loads(LoadSpec(body={0: (0.0, 0.1, 0.5), 1: (1.0, 0.0, 0.0)},
                                lateral={"left": {0: (0.2, 0.0, 0.1)}},
                                gamma_t=("left",)), ref.h)
    v = RNG.normal(size=ref.positions.shape)
    w = RNG.normal(size=ref.positions.shape)
    cov = load_covector(res, ref)
    base = cov.potential(ref.positions, ref.normal)
    one = cov.potential(ref.positions + v, ref.normal + w)
    two = cov.potential(ref.positions + 2 * v, ref.normal + 2 * w)
    assert base == 0.0
    assert abs(two - 2.0 * one) < 1e-12 * max(1.0, abs(one))


def test_potential_matches_a_hand_assembled_quadrature():
    ref = _plate_ref()
    f = np.array([0.0, 0.0, 0.002])
    t = np.array([0.1, 0.0, 0.0])
    spec = LoadSpec(body={0: f / ref.h}, lateral={"right": {0: t / ref.h}},
                    gamma_t=("right",))
    res = reduce_loads(spec, ref.h)
    v = RNG.normal(size=ref.positions.shape)
    got = load_covector(res, ref).potential(ref.positions + v, ref.normal)
    w_area = area_weights(ref.grid)
    want = np.sum(w_area * np.einsum("ijk,k->ij", v, f))
    w_edge = edge_weights(ref.grid, "right") * edge_arclength(ref, "right")
    want += np.sum(w_edge * np.einsum("ijk,k->ij", v, t))
    assert abs(got - want) < 1e-14


def test_edge_measures_on_the_cylinder():
    # bottom/top edges run along the arc: arclength factor R; left/right
    # edges run along the axis: factor 1
    R = 1.7
    chart = make_chart("cylinder-patch", radius=R, height=1.0, arc=1.2)
    grid = Grid.uniform(chart.domain, 9, 9)
    ref = build_reference(chart, grid, 0.05)
    for edge, factor in (("bottom", R), ("top", R),
                         ("left", 1.0), ("right", 1.0)):
        arc = edge_arclength(ref, edge)
        assert np.abs(arc - factor).max() < 1e-12, edge
    # a constant tangential traction along the bottom arc integrates to
    # (traction) * R * arc on the surface measure, arc on the parameter one
    t = np.array([0.0, 0.0, 1.0])
    for measure, factor in (("surface", R), ("parameter", 1.0)):
        spec = LoadSpec(lateral={"bottom": {0: t}}, gamma_t=("bottom",),
                        boundary_measure=measure)
        res = reduce_loads(spec, ref.h)
        lift = np.zeros_like(ref.positions)
        lift[..., 2] = 1.0   # unit axial displacement everywhere
        got = load_covector(res, ref).potential(ref.positions + lift,
                                                ref.normal)
        want = ref.h * 1.0 * factor * 1.2
        assert abs(got - want) < 1e-12, measure
