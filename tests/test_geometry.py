import numpy as np
import pytest

from shellreduce.errors import ConfigError, DegenerateChart, NonFinitePosition
from shellreduce.geometry import (MAX_COORDINATE, SLOT_NAMES, SurfaceChart,
                                  TrigDisplacement, check_rank,
                                  deformed_state, displace_chart, form22,
                                  make_chart, principal_curvatures,
                                  require_finite_positions, surface_bundle,
                                  surface_bundle_vjp)
from shellreduce.grids import Grid
from shellreduce.reference import build_reference


def _chart_grid(kind, n=17, **params):
    chart = make_chart(kind, **params)
    return chart, Grid.uniform(chart.domain, n, n)


def test_sphere_cap_curvatures_and_outward_normal():
    R = 1.3
    chart, grid = _chart_grid("sphere-cap", radius=R, extent=0.6)
    state = deformed_state(chart, grid, 0.05)
    assert np.abs(state.mean + 1.0 / R).max() < 1e-12
    assert np.abs(state.gauss - 1.0 / R ** 2).max() < 1e-12
    # outward normal of a sphere centered at the origin is the unit position
    pos = chart.positions_on(grid)
    assert np.abs(state.normal - pos / R).max() < 1e-12
    # umbilic points: H^2 - K sits at round-off, so kappa carries its sqrt
    kappa1, kappa2 = principal_curvatures(state.mean, state.gauss)
    assert np.abs(kappa1 + 1.0 / R).max() < 1e-7
    assert np.abs(kappa2 + 1.0 / R).max() < 1e-7


def test_cylinder_patch_curvatures():
    R = 0.8
    chart, grid = _chart_grid("cylinder-patch", radius=R, height=1.0, arc=1.2)
    state = deformed_state(chart, grid, 0.05)
    assert np.abs(state.mean + 0.5 / R).max() < 1e-12
    assert np.abs(state.gauss).max() < 1e-12
    T, _ = grid.mesh()
    radial = np.stack([np.cos(T), np.sin(T), np.zeros_like(T)], axis=-1)
    assert np.abs(state.normal - radial).max() < 1e-12


def test_plate_is_flat():
    chart, grid = _chart_grid("plate")
    state = deformed_state(chart, grid, 0.05)
    assert np.abs(state.mean).max() == 0.0
    assert np.abs(state.gauss).max() == 0.0
    assert np.abs(form22(state.bundle, "II")).max() == 0.0


def test_fundamental_forms_satisfy_cayley_hamilton():
    # III - 2 H II + K I = 0 holds for any surface; a strong joint check of
    # the three forms, the shape operator, and the curvature scalars
    for kind, params in (("sphere-cap", dict(radius=1.0, extent=0.6)),
                         ("cylinder-patch", dict(radius=1.0, height=1.0, arc=1.0)),
                         ("graph", dict(poly={(2, 0): 0.3, (1, 2): -0.2},
                                        bump=(0.1, 2, 1)))):
        chart, grid = _chart_grid(kind, **params)
        state = deformed_state(chart, grid, 0.05)
        first, second, third = (form22(state.bundle, form)
                                for form in ("I", "II", "III"))
        resid = (third - 2.0 * state.mean[..., None, None] * second
                 + state.gauss[..., None, None] * first)
        assert np.abs(resid).max() < 1e-11, kind
        # and the third form factors through the first two
        inv_first = np.linalg.inv(first)
        recon = np.einsum("...ji,...jk,...kl->...il", second, inv_first,
                          second)
        scale = max(np.abs(third).max(), 1e-30)
        assert np.abs(recon - third).max() < 1e-10 * scale, kind


def test_shape_operator_consistency():
    chart, grid = _chart_grid("graph", poly={(2, 0): 0.4, (0, 3): 0.15})
    state = deformed_state(chart, grid, 0.05)
    shape_op = form22(state.bundle, "L")
    # L = I^{-1} II reproduces H = tr L / 2 and K = det L
    tr = shape_op[..., 0, 0] + shape_op[..., 1, 1]
    det = (shape_op[..., 0, 0] * shape_op[..., 1, 1]
           - shape_op[..., 0, 1] * shape_op[..., 1, 0])
    assert np.abs(0.5 * tr - state.mean).max() < 1e-12
    assert np.abs(det - state.gauss).max() < 1e-12
    recon = np.einsum("...ij,...jk->...ik", form22(state.bundle, "I"),
                      shape_op)
    assert np.abs(recon - form22(state.bundle, "II")).max() < 1e-11


def test_nodal_chart_curvatures_converge_at_fourth_order():
    analytic = make_chart("sphere-cap", radius=1.0, extent=0.6)
    errs = []
    for n in (17, 33):
        grid = Grid.uniform(analytic.domain, n, n)
        state = deformed_state(analytic.positions_on(grid), grid, 0.05, 4)
        errs.append(np.abs(state.mean + 1.0).max())
    assert errs[1] < errs[0] / 10.0   # ~16x for clean fourth order


def test_nodal_chart_rejects_foreign_grid_and_bad_shape():
    # nodal positions carry no grid of their own: their shape must match
    grid = Grid.uniform(((0.0, 1.0), (0.0, 1.0)), 9, 9)
    other = Grid.uniform(((0.0, 1.0), (0.0, 1.0)), 11, 11)
    pos = np.zeros((9, 9, 3))
    pos[..., 0], pos[..., 1] = grid.mesh()
    with pytest.raises(ConfigError):
        deformed_state(pos, other, 0.05)
    with pytest.raises(ConfigError):
        build_reference(pos, other, 0.05)
    with pytest.raises(ConfigError):
        deformed_state(np.zeros((9, 9, 2)), grid, 0.05)


def test_degenerate_chart_is_reported():
    # nodal positions of a 9^2 cap collapsed to one point: d1 x d2 == 0
    # everywhere; the rank check runs on the reference path only
    chart, grid = _chart_grid("sphere-cap", radius=1.0, extent=0.6, n=9)
    pos = np.zeros((9, 9, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DegenerateChart) as info:
            build_reference(pos, grid, 0.05)
        assert info.value.index == (0, 0)
        state = deformed_state(pos, grid, 0.05)
    assert np.all(state.area == 0.0)


def _stacked_scale2(state):
    """max_k |d_k y|^2 summed over the stacked (3, 2) gradient."""
    grad = np.stack([state.d1, state.d2], axis=-1)
    return np.max(np.sum(grad * grad, axis=-2), axis=-1)


@pytest.mark.parametrize("kind, params", [
    ("plate", {}),
    ("sphere-cap", {"radius": 1.0, "extent": 0.6}),
    ("cylinder-patch", {"radius": 0.8, "arc": 1.2}),
    ("graph", {"poly": {(2, 0): 0.3, (1, 1): -0.2}, "bump": (0.05, 1, 2)}),
])
def test_rank_scale_is_the_stacked_tangent_sum(kind, params):
    # check_rank's tangent scale max(I11, I22) against the sums over the
    # stacked gradient, bit for bit, on a chart and on nodal positions
    chart, grid = _chart_grid(kind, n=13, **params)
    for source in (chart, chart.positions_on(grid)):
        state = deformed_state(source, grid, 0.05)
        b = state.bundle
        assert np.array_equal(np.maximum(b["I11"], b["I22"]),
                              _stacked_scale2(state))


def test_rank_deficient_node_keeps_its_message():
    # d2 parallel to d1 at one node of the cap: check_rank names that node
    # with the tangent scale of the stacked gradient
    base, grid = _chart_grid("sphere-cap", radius=1.0, extent=0.6, n=9)

    def fields(X1, X2):
        out = base.fields(X1, X2)
        out["d2"][4, 3] = 3.0 * out["d1"][4, 3]
        return out

    chart = SurfaceChart("folded", base.domain, fields)
    with np.errstate(divide="ignore", invalid="ignore"):
        state = deformed_state(chart, grid, 0.05)
        with pytest.raises(DegenerateChart) as info:
            check_rank(state)
        with pytest.raises(DegenerateChart) as built:
            build_reference(chart, grid, 0.05)
    want = ("chart is rank deficient at grid node (4, 3): |d1 x d2| = %.3e "
            "against tangent scale^2 = %.3e"
            % (state.area[4, 3], _stacked_scale2(state)[4, 3]))
    assert info.value.index == built.value.index == (4, 3)
    assert str(info.value) == str(built.value) == want


def _first_bad_node(positions, bound):
    """The first node in C order with a coordinate not below ``bound`` in
    magnitude, by a per-node scan."""
    for idx in np.ndindex(positions.shape[:-1]):
        if not all(abs(x) < bound for x in positions[idx]):
            return idx
    return None


@pytest.mark.parametrize("bound", [MAX_COORDINATE, np.inf])
@pytest.mark.parametrize("component", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, MAX_COORDINATE,
                                 -MAX_COORDINATE, 3e300])
def test_finite_position_check_names_the_first_bad_node(bad, component,
                                                        bound):
    # the flat test lets a good field pass; a bad one raises at the node,
    # value and name the per-node scan finds, the first in C order
    rng = np.random.default_rng(5)
    pos = rng.standard_normal((6, 5, 3))
    pos[2, 1] *= 1e59                   # large but finite and in bounds
    require_finite_positions(pos, bound=bound, name="chart d1")
    for node in ((4, 3), (3, 4), (1, 2)):
        pos[node + (component,)] = bad
        pos[node + ((component + 1) % 3,)] = -bad
    want = _first_bad_node(pos, bound)
    if want is None:                    # overflowing values under bound=inf
        require_finite_positions(pos, bound=bound, name="chart d1")
        return
    assert want == (1, 2)
    with pytest.raises(NonFinitePosition) as info:
        require_finite_positions(pos, bound=bound, name="chart d1")
    assert info.value.index == want
    assert np.array_equal(info.value.position, pos[want], equal_nan=True)
    assert str(info.value) == str(NonFinitePosition(want, pos[want],
                                                    "chart d1"))


@pytest.mark.parametrize("field", ("value",) + SLOT_NAMES)
def test_chart_with_a_nan_node_is_reported(field):
    # the chart's value and slot fields are checked before the bundle
    # spreads a NaN, so the error names the node on both paths
    base, grid = _chart_grid("sphere-cap", radius=1.0, extent=0.6, n=9)

    def fields(X1, X2):
        out = base.fields(X1, X2)
        out[field][4, 3] = np.nan
        return out

    chart = SurfaceChart("nan-node", base.domain, fields)
    for build in (build_reference, deformed_state):
        with pytest.raises(NonFinitePosition,
                           match=r"chart %s at grid node \(4, 3\)" % field):
            build(chart, grid, 0.05)


def test_make_chart_validates_kind_and_parameters():
    with pytest.raises(ConfigError):
        make_chart("torus")
    with pytest.raises(ConfigError):
        make_chart("plate", radius=1.0)
    with pytest.raises(ConfigError):
        make_chart("sphere-cap", extent=2.0)
    with pytest.raises(ConfigError, match="powers must be >= 0, got the "
                                          "term 2,-1"):
        make_chart("graph", poly={(2, -1): 1.0})


def test_displaced_chart_derivatives_are_consistent():
    # every analytic chart's derivative fields, the displaced chart's
    # included, must agree with finite differences of its position map
    sphere = make_chart("sphere-cap", radius=1.0, extent=0.5)
    charts = {
        "plate": make_chart("plate", length1=1.3),
        "sphere-cap": sphere,
        "cylinder-patch": make_chart("cylinder-patch", radius=0.8,
                                     height=1.0, arc=1.2),
        "graph": make_chart("graph", poly={(2, 0): 0.3, (1, 2): -0.2},
                            bump=(0.1, 2, 1)),
        "displaced": displace_chart(
            sphere, TrigDisplacement.standard(sphere.domain, 0.03)),
    }
    for kind, chart in charts.items():
        grid = Grid.uniform(chart.domain, 9, 9)
        X1, X2 = grid.mesh()
        fields = chart.fields(X1, X2)
        assert set(fields) == {"value"} | set(SLOT_NAMES), kind
        assert np.array_equal(chart.positions_on(grid),
                              chart.position(X1, X2)), kind

        def y(s1, s2):
            return chart.position(X1 + s1, X2 + s2)

        t = 1e-6
        d1_fd = (y(t, 0) - y(-t, 0)) / (2 * t)
        d2_fd = (y(0, t) - y(0, -t)) / (2 * t)
        assert np.abs(fields["d1"] - d1_fd).max() < 1e-8, kind
        assert np.abs(fields["d2"] - d2_fd).max() < 1e-8, kind
        t = 1e-4  # wider step: second differences divide round-off by t^2
        d11_fd = (y(t, 0) - 2 * y(0, 0) + y(-t, 0)) / (t * t)
        d22_fd = (y(0, t) - 2 * y(0, 0) + y(0, -t)) / (t * t)
        d12_fd = (y(t, t) - y(t, -t) - y(-t, t) + y(-t, -t)) / (4 * t * t)
        assert np.abs(fields["d11"] - d11_fd).max() < 1e-6, kind
        assert np.abs(fields["d12"] - d12_fd).max() < 1e-6, kind
        assert np.abs(fields["d22"] - d22_fd).max() < 1e-6, kind


def test_trig_displacement_vanishes_on_the_domain_boundary():
    domain = ((-0.4, 0.4), (0.1, 1.1))
    disp = TrigDisplacement.standard(domain, 0.07)
    edge = np.linspace(domain[1][0], domain[1][1], 13)
    for x1 in domain[0]:
        value = disp.fields(np.full_like(edge, x1), edge)["value"]
        assert np.abs(value).max() < 1e-15
    edge = np.linspace(domain[0][0], domain[0][1], 13)
    for x2 in domain[1]:
        value = disp.fields(edge, np.full_like(edge, x2))["value"]
        assert np.abs(value).max() < 1e-15


def test_graph_chart_matches_direct_polynomial_evaluation():
    poly = {(2, 1): 0.25, (0, 2): -0.4, (3, 0): 0.1}
    chart, grid = _chart_grid("graph", poly=poly, n=9)
    X1, X2 = grid.mesh()
    z = sum(c * X1 ** p * X2 ** q for (p, q), c in poly.items())
    pos = chart.positions_on(grid)
    assert np.abs(pos[..., 2] - z).max() < 1e-14
    assert np.abs(pos[..., 0] - X1).max() == 0.0


SEEDED_KEYS = ("a", "H", "K", "I11", "I12", "I22", "II11", "II12", "II21",
               "II22", "III11", "III12", "III22", "n")


@pytest.mark.parametrize("kind,params", [
    ("plate", {}),
    ("sphere-cap", dict(radius=1.0, extent=0.6)),
    ("cylinder-patch", dict(radius=1.0, height=1.0, arc=1.0)),
])
def test_bundle_vjp_matches_the_complex_step(kind, params):
    # oracle: <seed, Im(surface_bundle(slots + i t v)) / t> is the exact
    # directional derivative (no subtraction, so t can be 1e-30) and must
    # equal <vjp(seed), v>, key by key and for all keys seeded at once
    chart, grid = _chart_grid(kind, n=9, **params)
    fields = chart.fields(*grid.mesh())
    rng = np.random.default_rng(23)
    # a generic surface: the bare plate would have L = 0, which hides
    # every term of the K adjoint
    slots = {name: fields[name] + 0.05 * rng.normal(size=fields[name].shape)
             for name in SLOT_NAMES}
    bundle = surface_bundle(slots)
    t = 1e-30
    for trial in range(2):
        v = {name: rng.normal(size=slots[name].shape) for name in SLOT_NAMES}
        tangent = surface_bundle({name: slots[name] + 1j * t * v[name]
                                  for name in SLOT_NAMES})
        for seeded in SEEDED_KEYS + ("all",):
            seeds = {key: (rng.normal(size=bundle[key].shape)
                           if seeded in (key, "all")
                           else np.zeros(bundle[key].shape))
                     for key in SEEDED_KEYS}
            terms = [seeds[key] * tangent[key].imag / t
                     for key in SEEDED_KEYS]
            want = sum(float(np.sum(term)) for term in terms)
            back = surface_bundle_vjp(slots, bundle, seeds)
            got = sum(float(np.sum(back[name] * v[name]))
                      for name in SLOT_NAMES)
            # cancellation-free scale: the sum of the terms' magnitudes
            scale = sum(float(np.sum(np.abs(term))) for term in terms)
            assert abs(got - want) <= 1e-12 * scale, (seeded, trial)
