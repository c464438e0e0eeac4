import dataclasses

import numpy as np
import pytest

from shellreduce import energy as energy_module
from shellreduce import minimizer as minimizer_module
from shellreduce.energy import (MaterialParams, deformed_state,
                                energy_density_fields, total_energy)
from shellreduce.errors import (ConfigError, InadmissibleInitialState,
                                InadmissibleThickness, StepCollapsed)
from shellreduce.geometry import make_chart, surface_bundle
from shellreduce.grids import EDGES, Grid, edge_weights, simpson_weights
from shellreduce.loads import (LoadSpec, edge_arclength, load_covector,
                               reduce_loads, uniform_transverse)
from shellreduce.minimizer import (MinimizeResult, ShellObjective,
                                   SolverConfig, line_search, minimize)
from shellreduce.reference import build_reference

RNG = np.random.default_rng(2718)


def _setup(kind="plate", h=0.1, n=9, **params):
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, n, n)
    ref = build_reference(chart, grid, h)
    mat = MaterialParams(mu=1.0, lam=1.0, h=h)
    return ref, mat


def _smooth_field(grid, modes=2, seed=None):
    """Random boundary-zero field built from low sine modes (FD-friendly)."""
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = grid.domain
    U = (grid.x1[:, None] - a1) / (b1 - a1)
    V = (grid.x2[None, :] - a2) / (b2 - a2)
    out = np.zeros((grid.n1, grid.n2, 3))
    for k in range(1, modes + 1):
        for l in range(1, modes + 1):
            coefs = rng.normal(size=3)
            shape = np.sin(np.pi * k * U) * np.sin(np.pi * l * V)
            out += shape[..., None] * coefs
    return out


def _random_feasible_state(objective, ref, amplitude=0.05, seed=None):
    """Reference positions plus a smooth bump, halved until admissible."""
    bump = _smooth_field(ref.grid, seed=seed)
    bump /= max(1.0, np.abs(bump).max())
    amp = amplitude
    for _ in range(40):
        pos = ref.positions + amp * bump
        if objective.feasible(pos):
            return pos
        amp *= 0.5
    raise AssertionError("could not find a feasible perturbation")


# ---------------------------------------------------------------------------
# objective mechanics
# ---------------------------------------------------------------------------

def test_internal_energy_is_translation_invariant():
    ref, mat = _setup("sphere-cap", h=0.05, radius=1.0, extent=0.6)
    objective = ShellObjective(ref, mat, model=1)
    pos = _random_feasible_state(objective, ref, seed=0)
    base = objective.value(pos)
    shifted = objective.value(pos + np.array([0.4, -0.2, 0.9]))
    assert abs(shifted - base) < 1e-10 * max(1.0, abs(base))


def _free_axis_operators(objective):
    """Dense per-axis W, K, B on the free nodes of the objective's clamps,
    with each clamped edge's penalty rank-one row in B, plus the per-axis
    free masks."""
    ref, mat, ops = objective.ref, objective.mat, objective.ops
    grid = ref.grid
    area = ref.area
    w = (simpson_weights(grid.n1, grid.dx1) * area.mean(axis=1),
         simpson_weights(grid.n2, grid.dx2) * area.mean(axis=0) / area.mean())
    sides = {"left": (0, 0), "right": (0, grid.n1 - 1),
             "bottom": (1, 0), "top": (1, grid.n2 - 1)}
    keep = (np.ones(grid.n1, dtype=bool), np.ones(grid.n2, dtype=bool))
    for name in objective.clamped_edges:
        axis, edge = sides[name]
        keep[axis][edge] = False
    bend = (2.0 * mat.mu + mat.lam) * mat.h ** 3 / 12.0
    out = []
    for axis, (d, dd) in enumerate(((ops.d1, ops.d11), (ops.d2, ops.d22))):
        df, ddf = d[:, keep[axis]], dd[:, keep[axis]]
        big_w = np.diag(w[axis])
        k = df.T @ big_w @ df
        b = ddf.T @ big_w @ ddf
        for name in objective.clamped_edges:
            if sides[name][0] != axis:
                continue
            edge = sides[name][1]
            line = np.take(edge_weights(grid, name)
                           * edge_arclength(ref, name), edge, axis=axis)
            rho = np.mean(line / w[1 - axis])
            b += (2.0 * objective.penalty_beta * rho / bend
                  * np.outer(df[edge], df[edge]))
        out.append((np.diag(w[axis][keep[axis]]), k, b))
    return out, keep


def test_metric_diagonal_is_positive():
    # the metric is diagonal in its modal eigenbasis: one tangential and
    # one normal stiffness per free-node mode, every one above zero (the
    # unclamped plate's rigid modes sit on the floor), so H0 is SPD
    ref, mat = _setup()
    objective = ShellObjective(ref, mat, model=1)
    metric = objective.metric_diagonal()
    for mu in (metric.mu_t, metric.mu_n):
        assert mu.shape == (ref.grid.n1, ref.grid.n2)
        assert mu.min() > 0.0
    for seed in (0, 1, 2):
        q = np.random.default_rng(seed).normal(size=ref.grid.n1
                                               * ref.grid.n2 * 3)
        assert q @ metric.apply(q) > 0.0, seed


def test_metric_diagonal_matches_the_dense_normal_operators():
    # oracle: P assembled densely from Kronecker products of the per-axis
    # Gram matrices (penalty row included) in the metric's eigenbasis, with
    # the split along the mean normal; the fast H0 q must solve P x = q.
    # Clamps on both axes leave an 8 x 6 block of free nodes, so the
    # Kronecker order of P (and of the metric's (m1, m2, 3) layout) must be
    # the order in which the objective's free mask packs the nodes
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 9, 7)
    ref = build_reference(chart, grid, 0.05)
    mat = MaterialParams(mu=1.3, lam=0.7, h=0.05)
    objective = ShellObjective(ref, mat, model=1,
                               clamped_edges=("left", "bottom"),
                               penalty_beta=0.4)
    metric = objective.metric_diagonal()
    axes, keep = _free_axis_operators(objective)
    assert np.array_equal(objective.free, np.outer(*keep))
    assert (len(metric.v1), len(metric.v2)) == (8, 6)
    v = (metric.v1, metric.v2)
    diags = []
    for (w, k, b), vi in zip(axes, v):
        scale = np.abs(b).max()
        assert np.abs(vi.T @ w @ vi - np.eye(len(vi))).max() < 1e-12
        vbv = vi.T @ b @ vi
        assert np.abs(vbv - np.diag(np.diag(vbv))).max() < 1e-12 * scale
        diags.append((np.diag(vi.T @ k @ vi), np.diag(vbv)))
    (k1, b1), (k2, b2) = diags
    stiff = 2.0 * mat.mu + mat.lam
    nbar = ref.normal.mean(axis=(0, 1))
    nbar /= np.linalg.norm(nbar)
    eps = np.mean(1.0 - (ref.normal @ nbar) ** 2)
    assert 0.05 < eps < 0.2
    lap = np.add.outer(k1, k2)
    mu_t = stiff * mat.h * lap
    mu_n = stiff * (mat.h ** 3 / 12.0 * (np.add.outer(b1, b2)
                                          + 2.0 * np.outer(k1, k2))
                    + eps * mat.h * lap)
    floor = 1e-8 * max(mu_t.max(), mu_n.max())
    basis = np.kron(axes[0][0] @ v[0], axes[1][0] @ v[1])
    normal_proj = np.outer(nbar, nbar)
    dense = (np.kron(basis @ np.diag(np.maximum(mu_t, floor).ravel())
                     @ basis.T, np.eye(3) - normal_proj)
             + np.kron(basis @ np.diag(np.maximum(mu_n, floor).ravel())
                       @ basis.T, normal_proj))
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.eigvalsh(dense).min() > 0.0
    for seed in (0, 1, 2):
        q = np.random.default_rng(seed).normal(size=len(dense))
        want = np.linalg.solve(dense, q)
        got = metric.apply(q)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), seed


def test_metric_diagonal_preconditions_the_plate_hessian():
    # the spread of the generalised eigenvalues of (H, P), H from central
    # differences of the exact gradient at the clamped plate's reference;
    # the nodal diagonal this metric replaced spreads them by ~6e3 here
    ref, mat = _setup("plate", h=0.1, n=9)
    objective = ShellObjective(ref, mat, model=1, clamped_edges=EDGES)
    free = objective.free
    x0 = ref.positions[free].ravel()
    t = 1e-6

    def grad(x):
        pos = ref.positions.copy()
        pos[free] = x.reshape(-1, 3)
        return objective.value_and_grad(pos)[1][free].ravel()

    cols = []
    for k in range(len(x0)):
        e = np.zeros_like(x0)
        e[k] = t
        cols.append((grad(x0 + e) - grad(x0 - e)) / (2.0 * t))
    hess = np.array(cols)
    hess = 0.5 * (hess + hess.T)
    metric = objective.metric_diagonal()
    h0 = np.array([metric.apply(e) for e in np.eye(len(x0))])
    root = np.linalg.cholesky(0.5 * (h0 + h0.T))
    lam = np.linalg.eigvalsh(root.T @ hess @ root)
    assert lam.min() > 0.0
    assert lam.max() / lam.min() <= 100.0


@pytest.mark.parametrize("kind,params", [
    ("plate", {}),
    ("sphere-cap", dict(radius=1.0, extent=0.6)),
    ("cylinder-patch", dict(radius=1.0, height=1.0, arc=1.0)),
])
def test_seeded_gradient_matches_finite_differences(kind, params):
    ref, mat = _setup(kind, h=0.05, **params)
    loads = uniform_transverse(0.001)
    objective = ShellObjective(ref, mat, model=1, loads=loads,
                               clamped_edges=("left",), penalty_beta=0.1)
    for seed in (1, 2):
        pos = _random_feasible_state(objective, ref, seed=seed)
        value, grad = objective.value_and_grad(pos)
        assert abs(value - objective.value(pos)) < 1e-12 * max(1.0, abs(value))
        fd = objective.grad_fd(pos, step_scale=1e-6)
        scale = np.abs(fd).max()
        assert np.abs(grad - fd).max() < 1e-6 * scale, (kind, seed)
        # secant probe along a smooth direction
        d = _smooth_field(ref.grid, seed=seed + 100)
        d /= np.abs(d).max()
        t = 1e-5
        secant = (objective.value(pos + t * d)
                  - objective.value(pos - t * d)) / (2.0 * t)
        slope = float(np.sum(grad * d))
        assert abs(secant - slope) < 1e-5 * max(1.0, abs(slope))


@pytest.mark.parametrize("kind,model,constants", [
    ("sphere-cap", 1, "paper"),
    ("sphere-cap", 2, "oracle"),
    ("sphere-cap", 3, "paper"),
    ("graph", 2, "paper"),
    ("graph", 3, "oracle"),
])
def test_gradient_matches_finite_differences_across_models_and_loads(
        kind, model, constants):
    params = {"sphere-cap": dict(radius=1.0, extent=0.6),
              "graph": dict(poly={(2, 0): 0.2, (1, 1): -0.15},
                            bump=(0.05, 1, 2))}[kind]
    ref, mat = _setup(kind, h=0.05, **params)
    # unequal faces carry a moment; the top edge carries a traction
    spec = LoadSpec(face_plus=(0.0, 0.004, 0.003),
                    face_minus=(0.002, 0.0, -0.001),
                    lateral={"top": {0: (0.0, 0.003, 0.001)}},
                    gamma_t=("top",))
    objective = ShellObjective(ref, mat, model=model, constants=constants,
                               loads=spec,
                               clamped_edges=("left",), penalty_beta=0.3)
    assert objective.load.moment is not None
    pos = _random_feasible_state(objective, ref, seed=7)
    value, grad = objective.value_and_grad(pos)
    assert value == objective.value(pos)
    fd = objective.grad_fd(pos, step_scale=1e-6)
    assert np.abs(grad - fd).max() < 1e-6 * np.abs(fd).max()


def _full_graph_slope(objective, positions, direction, t=1e-30):
    """The objective's slope along ``direction``, differentiated through its
    whole computation by the complex step Im(E(x + i t d)) / t: the value
    path on complex positions, exact to round-off and independent of the
    closed-form partials and the bundle's adjoint (the orientation check
    compares reals, so it is left out)."""
    pos = positions + 1j * t * direction
    bundle = surface_bundle(objective.ops.all_slots(pos))
    fields = energy_density_fields(bundle, objective.ref, objective.mat,
                                   objective.model, objective.constants)
    density = fields["shell"] + fields["curv_log"] + fields["curv_det2"]
    total = np.sum(objective.w2d * (density + fields["constant"]))
    total -= objective.load.potential(pos, bundle["n"])
    dn = bundle["n"] - objective.ref.normal
    total += objective.penalty_beta * np.sum(
        objective.penalty_weights[..., None] * dn * dn)
    return total.imag / t


@pytest.mark.parametrize("kind,params", [
    ("plate", {}),
    ("sphere-cap", dict(radius=1.0, extent=0.6)),
    ("cylinder-patch", dict(radius=1.0, height=1.0, arc=1.0)),
])
def test_gradient_matches_the_full_graph_oracle(kind, params):
    ref, mat = _setup(kind, h=0.05, **params)
    loads = LoadSpec(face_plus=(0.0, 0.004, 0.003),
                     face_minus=(0.002, 0.0, -0.001),
                     lateral={"top": {0: (0.0, 0.003, 0.001)}},
                     gamma_t=("top",))
    rng = np.random.default_rng(11)
    for model in (1, 2, 3):
        for constants in ("oracle", "paper"):
            objective = ShellObjective(ref, mat, model, constants,
                                       loads=loads, clamped_edges=("left",),
                                       penalty_beta=0.3)
            pos = _random_feasible_state(objective, ref, seed=5)
            value, grad = objective.value_and_grad(pos)
            assert value == objective.value(pos)
            for _ in range(3):
                d = rng.normal(size=pos.shape)
                want = _full_graph_slope(objective, pos, d)
                got = float(np.sum(grad * d))
                scale = float(np.sum(np.abs(grad * d)))
                assert abs(got - want) <= 1e-12 * scale, (model, constants)


@pytest.mark.parametrize("model", (1, 2, 3))
def test_gradient_graph_is_the_surface_bundle_alone(model, monkeypatch):
    # the density enters the bundle's adjoint as seeds, so one gradient
    # differentiates one surface_bundle call and no more: on the accepted
    # point it builds no bundle of its own and runs one bundle adjoint
    ref, mat = _setup("sphere-cap", h=0.05, n=17, radius=1.0, extent=0.6)
    loads = uniform_transverse(0.001)
    objective = ShellObjective(ref, mat, model, loads=loads,
                               clamped_edges=("left",), penalty_beta=0.1)
    pos = _random_feasible_state(objective, ref, seed=3)
    point = objective.point(pos)
    counts = {"surface_bundle": 0, "surface_bundle_vjp": 0}

    def counted(name):
        func = getattr(minimizer_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(minimizer_module, name, counted(name))
    value, grad = objective.value_and_grad(pos, point)
    assert counts == {"surface_bundle": 0, "surface_bundle_vjp": 1}
    assert value == point.energy
    # the one-argument form evaluates the point first: one bundle, one adjoint
    value1, grad1 = objective.value_and_grad(pos)
    assert counts == {"surface_bundle": 1, "surface_bundle_vjp": 2}
    assert value1 == value and np.array_equal(grad1, grad)


def test_one_orientation_check_per_surface_bundle(monkeypatch):
    # line-search trials pass the EPS_FEAS floor, which implies value's
    # EPS_ORIENT floor, so an accepted trial is not checked twice; the
    # orientation check and the densities share one face-factor pass, and
    # the gradient's partials take the det^2 field from the value path.
    # The minimizer evaluates the energy only through ReducedEnergy, so the
    # energy module is the one place to count.
    for name in ("constant_density", "shell_form_weights",
                 "orientation_violations", "face_factors", "load_covector",
                 "area_weights"):
        assert not hasattr(minimizer_module, name), name
    ref, mat = _setup("plate", h=0.1, n=17)
    loads = LoadSpec(face_plus=(0.0, 0.0, 0.001),
                     face_minus=(0.0, 0.0, 0.001),
                     gamma_t=())
    counts = {"bundles": 0, "checks": 0, "faces": 0, "det2": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(minimizer_module, "surface_bundle",
                        counted("bundles", minimizer_module.surface_bundle))
    for key, name in (("checks", "orientation_violations"),
                      ("faces", "face_factors"),
                      ("det2", "w_curv_det2_simpson"),
                      ("det2", "w_curv_det2_taylor")):
        monkeypatch.setattr(energy_module, name,
                            counted(key, getattr(energy_module, name)))
    result = minimize(ref, mat, SolverConfig(max_iter=200, gtol_abs=4e-8),
                      loads=loads, clamped_edges=EDGES)
    assert result.converged and result.iterations == 18
    # the start's point and 18 accepted trials: each gradient reuses the
    # bundle its point was checked and valued on
    assert counts == {"bundles": 19, "checks": 19, "faces": 19, "det2": 19}


def test_gradient_mode_dispatch_and_validation():
    # one gradient path; central differences stay as its oracle
    ref, mat = _setup()
    objective = ShellObjective(ref, mat, model=1)
    pos = ref.positions
    value, grad = objective.value_and_grad(pos)
    assert value == objective.value(pos)
    assert np.abs(grad - objective.grad_fd(pos, 1e-6)).max() < 1e-6
    with pytest.raises(TypeError):
        objective.value_and_grad(pos, mode="fd")


# ---------------------------------------------------------------------------
# line search and the deformation container
# ---------------------------------------------------------------------------

def test_line_search_backs_off_a_folding_step_and_collapses():
    ref, mat = _setup()
    loads = uniform_transverse(0.002)
    objective = ShellObjective(ref, mat, model=1, loads=loads)
    shape = ref.positions.shape

    def unpack(vec):
        return vec.reshape(shape)

    # lifting the middle node along the load descends, but the full step
    # folds the surface: the feasibility phase must back off first
    direction = np.zeros(shape)
    direction[4, 4, 2] = 1.0
    assert not objective.feasible(ref.positions + direction)
    x, d = ref.positions.ravel(), direction.ravel()
    energy, grad = objective.value_and_grad(ref.positions)
    slope = float(np.dot(grad.ravel(), d))
    assert slope < 0.0
    step, trial, point = line_search(objective, unpack, x, d, energy,
                                     slope, 1)
    assert step < 1.0
    assert np.array_equal(trial, x + step * d)
    assert objective.feasible(unpack(trial))
    assert point.energy <= energy + 1e-4 * step * slope
    # the accepted trial's point gives the same value and gradient, bit for
    # bit
    want = objective.ops.all_slots(unpack(trial))
    assert all(np.array_equal(point.slots[k], want[k]) for k in want)
    value, grad = objective.value_and_grad(unpack(trial))
    reused = objective.value_and_grad(unpack(trial), point)
    assert value == point.energy == reused[0]
    assert np.array_equal(grad, reused[1])
    # starting from an infeasible point, no step ever helps
    folded = ref.positions.copy()
    folded[4, 4, 2] = 1.0
    with pytest.raises(StepCollapsed) as info:
        line_search(objective, unpack, folded.ravel(),
                    np.zeros(folded.size), energy, slope, 3)
    assert info.value.phase == "feasibility"
    assert info.value.iteration == 3


def test_discrete_deformation_pins_clamped_nodes():
    # the start is the reference on the clamped edges and the initial
    # positions elsewhere; max_iter = 0 returns it as it is
    ref, mat = _setup()
    config = SolverConfig(model=1, max_iter=0)
    perturbed = ref.positions + 1e-4 * RNG.normal(size=ref.positions.shape)
    result = minimize(ref, mat, config, clamped_edges=("left", "top"),
                      initial=perturbed)
    pinned = np.zeros((ref.grid.n1, ref.grid.n2), dtype=bool)
    pinned[0, :] = pinned[:, -1] = True
    assert np.array_equal(result.positions[pinned], ref.positions[pinned])
    assert np.array_equal(result.positions[~pinned], perturbed[~pinned])
    with pytest.raises(ConfigError, match="unknown edge 'west'"):
        minimize(ref, mat, config, clamped_edges=("west",))
    with pytest.raises(ConfigError, match="shape"):
        minimize(ref, mat, config, clamped_edges=(),
                 initial=np.zeros((3, 3)))


def _mask_pack(objective, field3):
    return field3[objective.free].ravel()


def _mask_unpack(objective, vec, fixed):
    out = fixed.copy()
    out[objective.free] = vec.reshape(-1, 3)
    return out


@pytest.mark.parametrize("mask", range(16))
def test_slice_packing_matches_the_mask_gather(mask, monkeypatch):
    # every subset of clamped edges, on a non-square grid: pack / unpack
    # through the free box give the boolean mask's gather and scatter, and
    # a short solve from a perturbed start writes the same trace and surface
    # as one that packs through the mask
    clamped = tuple(e for k, e in enumerate(EDGES) if mask >> k & 1)
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 11, 9)
    ref = build_reference(chart, grid, 0.05)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
    loads = uniform_transverse(0.002)
    objective = ShellObjective(ref, mat, 1, loads=loads,
                               clamped_edges=clamped)
    field = RNG.normal(size=ref.positions.shape)
    packed = objective.pack(field)
    assert np.array_equal(packed, _mask_pack(objective, field))
    vec = RNG.normal(size=packed.shape)
    assert np.array_equal(objective.unpack(vec, ref.positions),
                          _mask_unpack(objective, vec, ref.positions))

    initial = ref.positions + 1e-4 * _smooth_field(grid, seed=mask)
    config = SolverConfig(model=1, max_iter=3)
    got = minimize(ref, mat, config, loads=loads, clamped_edges=clamped,
                   initial=initial)
    monkeypatch.setattr(ShellObjective, "pack", _mask_pack)
    monkeypatch.setattr(ShellObjective, "unpack", _mask_unpack)
    want = minimize(ref, mat, config, loads=loads, clamped_edges=clamped,
                    initial=initial)
    assert got.iterations == want.iterations == 3
    assert got.trace == want.trace
    assert np.array_equal(got.positions, want.positions)


def test_objective_takes_its_thickness_from_the_material():
    # a reference built at h = 0.05 and one built at the material's h = 0.1
    # give the same objective and the same solve, bit for bit
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 17, 17)
    other = build_reference(chart, grid, 0.05)
    own = build_reference(chart, grid, 0.1)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.1)
    loads = uniform_transverse(0.002)
    pos = own.positions + 1e-3 * _smooth_field(grid, seed=4)
    for model in (1, 2, 3):
        want = ShellObjective(own, mat, model, loads=loads)
        got = ShellObjective(other, mat, model, loads=loads)
        assert got.value(pos) == want.value(pos)
        assert abs(got.value(other.positions)) < 1e-10
    config = SolverConfig(model=1, max_iter=5)
    want = minimize(own, mat, config, loads=loads)
    got = minimize(other, mat, config, loads=loads)
    assert got.trace == want.trace
    assert np.array_equal(got.positions, want.positions)


def test_load_spec_is_reduced_at_the_material_thickness():
    # a LoadSpec is reduced at mat.h: the same bits as the resultants of
    # reduce_loads(spec, mat.h) assembled on the reference by hand
    ref, mat = _setup("sphere-cap", h=0.05, n=11, radius=1.0, extent=0.6)
    spec = LoadSpec(face_plus=(0.0, 0.004, 0.003),
                    face_minus=(0.002, 0.0, -0.001),
                    lateral={"top": {0: (0.0, 0.003, 0.001)}},
                    gamma_t=("top",))
    cov = load_covector(reduce_loads(spec, mat.h), ref)
    objective = ShellObjective(ref, mat, 1, loads=spec)
    assert np.array_equal(objective.load.force, cov.force)
    assert np.array_equal(objective.load.moment, cov.moment)
    result = minimize(ref, mat, SolverConfig(model=1, max_iter=5), loads=spec)
    assert result.clamped_edges == ("left", "right", "bottom")
    state = deformed_state(result.positions, ref.grid, mat.h, ref.order)
    load = float(cov.potential(state.positions, state.normal))
    breakdown = total_energy(state, ref, mat, 1, loads=spec)
    assert breakdown.load_term == load
    assert result.energy == breakdown.internal - load


def test_solver_config_validation():
    for bad in (dict(model=7), dict(gtol_rel=0.0), dict(gtol_abs=-1.0),
                dict(max_iter=-1), dict(penalty_beta=-2.0)):
        with pytest.raises(ConfigError):
            SolverConfig(**bad)
    # memory, Armijo constant and backtracking factor are module constants
    assert len(dataclasses.fields(SolverConfig)) == 6
    for gone in (dict(memory=10), dict(armijo_c1=1e-4), dict(backtrack=0.5)):
        with pytest.raises(TypeError):
            SolverConfig(**gone)


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------

def test_unloaded_natural_state_is_stationary_at_start():
    ref, mat = _setup()
    result = minimize(ref, mat, SolverConfig(model=1))
    assert isinstance(result, MinimizeResult)
    assert result.converged and result.iterations == 0
    assert result.message == "stationary at start"
    assert len(result.trace) == 1
    assert abs(result.energy) < 1e-12


def test_loaded_plate_descends_monotonically_with_feasible_iterates():
    ref, mat = _setup()
    loads = uniform_transverse(0.002)
    seen = []
    objective = ShellObjective(ref, mat, model=1, loads=loads,
                               clamped_edges=("left", "right", "bottom",
                                              "top"))
    result = minimize(ref, mat, SolverConfig(model=1, max_iter=400,
                                             gtol_abs=1e-9),
                      loads=loads,
                      callback=lambda it, pos: seen.append(pos.copy()))
    assert result.converged
    assert result.energy < 0.0        # work done by the load
    energies = [row[1] for row in result.trace]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert len(seen) == result.iterations + 1
    for pos in seen[:: max(1, len(seen) // 10)]:
        assert objective.feasible(pos)
    # clamped boundary never moves
    assert result.clamped_edges == objective.clamped_edges
    boundary = ~objective.free
    assert np.array_equal(result.positions[boundary], ref.positions[boundary])
    # small load: deflection stays below the thickness
    assert np.abs(result.positions - ref.positions).max() < mat.h


def test_plate_iterations_stay_nearly_flat_under_refinement():
    # criterion-7 plate: with the tensor membrane/bending metric the
    # iteration count grows far slower than the grid (18 and 23 at 17^2 and
    # 33^2; the nodal diagonal took 402 and 1046)
    iterations = []
    for n in (17, 33):
        ref, mat = _setup("plate", h=0.1, n=n)
        loads = LoadSpec(face_plus=(0.0, 0.0, 0.001),
                         face_minus=(0.0, 0.0, 0.001),
                         gamma_t=())
        result = minimize(ref, mat, SolverConfig(model=1, max_iter=7000,
                                                 gtol_abs=4e-8),
                          loads=loads, clamped_edges=EDGES)
        assert result.converged, (n, result.message)
        iterations.append(result.iterations)
    assert iterations[1] <= 2 * iterations[0], iterations


def _replay_matches_minimizer(model, constants):
    # the energy command and minimize evaluate through one ReducedEnergy,
    # so they print the same bits for the same surface
    ref, mat = _setup()
    loads = uniform_transverse(0.002)
    result = minimize(ref, mat, SolverConfig(model=model, constants=constants,
                                             max_iter=60, penalty_beta=0.0),
                      loads=loads)
    assert result.iterations > 0
    state = deformed_state(result.positions, ref.grid, mat.h, ref.order)
    replay = total_energy(state, ref, mat, model, constants, loads=loads)
    assert replay.total == result.energy


def test_total_energy_replays_the_minimizer_energy_exactly():
    _replay_matches_minimizer(1, "oracle")


@pytest.mark.parametrize("model,constants", [
    (1, "paper"), (2, "oracle"), (2, "paper"), (3, "oracle"), (3, "paper")])
def test_total_energy_replays_the_minimizer_energy_in_every_model(model,
                                                                   constants):
    _replay_matches_minimizer(model, constants)


def test_minimizer_final_state_is_mirror_symmetric_and_load_equivariant():
    # the plate, its clamped boundary, and the transverse load are invariant
    # under the in-plane mirror x1 -> L - x1, so the discrete minimizer must
    # be too; flipping the load's sign mirrors the solution through the
    # midplane.  Both hold to solver precision on a small grid driven to a
    # tight gradient tolerance.
    ref, mat = _setup()
    config = SolverConfig(model=1, max_iter=3000, gtol_abs=1e-9)
    plus = minimize(ref, mat, config,
                    loads=uniform_transverse(0.002))
    minus = minimize(ref, mat, config,
                     loads=uniform_transverse(-0.002))
    p = plus.positions
    assert np.abs(p[::-1, :, 0] - (1.0 - p[:, :, 0])).max() < 1e-6
    assert np.abs(p[::-1, :, 1] - p[:, :, 1]).max() < 1e-6
    assert np.abs(p[::-1, :, 2] - p[:, :, 2]).max() < 1e-6
    m = minus.positions
    assert np.abs(m[..., 2] + p[..., 2]).max() < 1e-6
    assert np.abs(m[..., :2] - p[..., :2]).max() < 1e-6


def test_penalty_weight_pulls_boundary_normals_back():
    # all edges clamped in position; increasing the normal-deviation penalty
    # must monotonically reduce the boundary tilt integral
    ref, mat = _setup()
    loads = uniform_transverse(0.004)
    devs = []
    for beta in (0.0, 1e1, 1e3):
        result = minimize(ref, mat,
                          SolverConfig(model=1, max_iter=800, gtol_abs=1e-9,
                                       penalty_beta=beta),
                          loads=loads)
        objective = ShellObjective(ref, mat, model=1, clamped_edges=EDGES)
        bundle = objective.point(result.positions).bundle
        dn2 = np.sum((bundle["n"] - ref.normal) ** 2, axis=-1)
        devs.append(float(dn2[~objective.free].sum()))
    assert devs[1] < devs[0]
    assert devs[2] < devs[1]


def test_thickness_gate_and_force_override():
    ref, mat = _setup("sphere-cap", h=0.8, radius=1.0, extent=0.6)
    with pytest.raises(InadmissibleThickness) as info:
        minimize(ref, mat, SolverConfig(model=1))
    assert info.value.report.h_max[1] <= mat.h
    result = minimize(ref, mat, SolverConfig(model=1, max_iter=3), force=True)
    assert isinstance(result, MinimizeResult)
    assert np.isfinite(result.energy)
    assert not result.report.ok(1)


def test_folded_initial_state_is_rejected():
    ref, mat = _setup()
    initial = ref.positions.copy()
    initial[4, 4, 2] = 0.8
    with pytest.raises(InadmissibleInitialState):
        minimize(ref, mat, SolverConfig(model=1), initial=initial)


def test_nan_initial_state_is_rejected():
    ref, mat = _setup()
    for bad in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        initial = ref.positions.copy()
        initial[4, 3, 2] = bad
        with pytest.raises(InadmissibleInitialState,
                           match=r"grid node \(4, 3\)"):
            minimize(ref, mat, SolverConfig(model=1), initial=initial)
