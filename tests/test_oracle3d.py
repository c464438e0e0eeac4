import warnings

import numpy as np
import pytest

from shellreduce import oracle3d
from shellreduce.energy import (MaterialParams, det_square_bracket,
                                total_energy)
from shellreduce.errors import (ConfigError, NonPositiveDeterminant,
                                ThicknessError)
from shellreduce.geometry import (TrigDisplacement, deformed_state,
                                  displace_chart, face_factors, make_chart)
from shellreduce.grids import Grid, area_weights
from shellreduce.oracle3d import (ansatz_point, compare_reduced_3d, det3,
                                  det_square_series, integrate_3d,
                                  log_det_bracket, simpson_point_products,
                                  stored_energy, thickness_jacobian,
                                  thickness_rule, trace_moment_coefficients)
from shellreduce.reference import build_reference

RNG = np.random.default_rng(1203)


def _sphere_setup(h=0.05, n=11, amp=0.04):
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, n, n)
    ref = build_reference(chart, grid, h)
    mat = MaterialParams(mu=1.0, lam=1.0, h=h)
    disp = TrigDisplacement.standard(chart.domain, amp)
    state = deformed_state(displace_chart(chart, disp), grid, h)
    return chart, grid, ref, mat, state


# ---------------------------------------------------------------------------
# parent stored energy and quadrature rules
# ---------------------------------------------------------------------------

def test_stored_energy_vanishes_at_identity_and_matches_formula():
    assert stored_energy(np.eye(3), 2.0, 3.0) == 0.0
    for _ in range(20):
        F = np.eye(3) + 0.2 * RNG.normal(size=(3, 3))
        if np.linalg.det(F) <= 0.1:
            continue
        mu, lam = RNG.uniform(0.5, 2.0, size=2)
        det = np.linalg.det(F)
        want = (0.5 * mu * ((F * F).sum() - 2 * np.log(det) - 3)
                + 0.25 * lam * (det ** 2 - 2 * np.log(det) - 1))
        assert abs(stored_energy(F, mu, lam) - want) < 1e-14


def test_stored_energy_rejects_nonpositive_determinant_with_location():
    F = np.tile(np.eye(3), (4, 2, 1, 1))
    F[2, 1] = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(NonPositiveDeterminant) as err:
        stored_energy(F, 1.0, 1.0)
    assert "(2, 1)" in str(err.value)


def test_thickness_rules_integrate_polynomials():
    h = 0.37
    for count in (8, 16):
        x, w = thickness_rule(count, h)
        assert abs(w.sum() - h) < 1e-15
        assert abs((w * x).sum()) < 1e-16
        assert abs((w * x * x).sum() - h ** 3 / 12.0) < 1e-15
        # cubic: odd, zero by symmetry
        assert abs((w * x ** 3).sum()) < 1e-17


# ---------------------------------------------------------------------------
# ansatz assembly and the slab integral
# ---------------------------------------------------------------------------

def _tangents(state, x3):
    """(grad y + x3 grad n) at offset x3, packed as (n1, n2, 3, 2)."""
    dn1, dn2 = state.bundle["dn1"], state.bundle["dn2"]
    return np.stack([state.d1 + x3 * dn1, state.d2 + x3 * dn2], axis=-1)


def test_ansatz_closed_form_inverse_cross_checks():
    _, _, ref, mat, state = _sphere_setup()
    for x3 in (-0.5 * mat.h, -0.17 * mat.h, 0.0, 0.5 * mat.h):
        point = ansatz_point(ref, state, x3)
        # F against grad Phi (grad Theta)^-1 assembled by np.linalg.solve
        grad_phi = np.concatenate([_tangents(state, x3),
                                   state.normal[..., None]], axis=-1)
        F_solve = np.swapaxes(np.linalg.solve(
            np.swapaxes(point["grad_theta"], -1, -2),
            np.swapaxes(grad_phi, -1, -2)), -1, -2)
        scale = max(float(np.abs(point["F"]).max()), 1.0)
        assert np.abs(point["F"] - F_solve).max() / scale <= 1e-10
        assert point["det_F"].min() > 0.0
        # reference jacobian b matches det(grad_theta) / det(frame at 0)
        det_theta = np.linalg.det(point["grad_theta"])
        assert np.abs(det_theta / (ref.area * point["b"]) - 1.0).max() < 1e-11


def _slow_slab_integral(state, ref, mat, nodes):
    """The slab integral summed thickness node by thickness node with the
    3x3 algebra done directly: F = grad Phi inv(grad Theta), volume element
    det grad Theta, np.linalg.det and the W(F) formula."""
    x, w = thickness_rule(nodes, mat.h)
    weights = area_weights(ref.grid)
    total = 0.0
    for x3, wk in zip(x, w):
        theta = np.concatenate([_tangents(ref, x3),
                                ref.normal[..., None]], axis=-1)
        phi = np.concatenate([_tangents(state, x3),
                              state.normal[..., None]], axis=-1)
        F = phi @ np.linalg.inv(theta)
        det = np.linalg.det(F)
        assert det.min() > 0.0
        W = (0.5 * mat.mu * ((F * F).sum(axis=(-2, -1)) - 2 * np.log(det) - 3)
             + 0.25 * mat.lam * (det ** 2 - 2 * np.log(det) - 1))
        total += wk * (weights * np.linalg.det(theta) * W).sum()
    return total


def _seeded_displacement(domain, seed, amp=0.04):
    rng = np.random.default_rng(seed)
    return TrigDisplacement(domain, [
        (amp * rng.uniform(-1.0, 1.0, size=3), rng.integers(1, 3),
         rng.integers(1, 3)) for _ in range(3)])


def test_slab_integral_matches_per_node_inverse_sum():
    charts = (make_chart("sphere-cap", radius=1.0, extent=0.6),
              make_chart("cylinder-patch", radius=0.8, height=1.0, arc=1.2),
              make_chart("graph", poly={(2, 0): 0.3, (1, 2): -0.2},
                         bump=(0.1, 2, 1)))
    h = 0.05
    mat = MaterialParams(mu=1.0, lam=1.3, h=h)
    for chart in charts:
        grid = Grid.uniform(chart.domain, 13, 11)
        ref = build_reference(chart, grid, h)
        for seed in (3, 17, 40):
            deformed = displace_chart(chart,
                                      _seeded_displacement(chart.domain, seed))
            state = deformed_state(deformed, grid, h)
            for nodes in (8, 16):
                fast = integrate_3d(state, ref, mat, nodes)
                slow = _slow_slab_integral(state, ref, mat, nodes)
                assert abs(fast / slow - 1.0) < 1e-13, (chart.name, seed,
                                                        nodes)


def _nodal_state(chart, grid, h, seed):
    """A deformed state built from nodal positions by the grid's stencils
    (the path of a deformation read from a file)."""
    rng = np.random.default_rng(seed)
    X1, X2 = grid.mesh()
    (a1, b1), (a2, b2) = chart.domain
    u, v = (X1 - a1) / (b1 - a1), (X2 - a2) / (b2 - a2)
    positions = chart.positions_on(grid).copy()
    for k1, k2 in ((1, 1), (1, 2), (2, 1)):
        mode = np.sin(np.pi * k1 * u) * np.sin(np.pi * k2 * v)
        positions += mode[..., None] * (0.02 * rng.uniform(-1.0, 1.0, 3))
    return deformed_state(positions, grid, h)


@pytest.mark.parametrize("kind, params", [
    ("sphere-cap", {"radius": 1.0, "extent": 0.6}),
    ("cylinder-patch", {"radius": 0.8, "height": 1.0, "arc": 1.2}),
    ("graph", {"poly": {(2, 0): 0.3, (1, 2): -0.2}, "bump": (0.1, 2, 1)}),
])
def test_forms_give_det_and_frobenius_of_the_assembled_gradient(kind, params):
    # the slab integral reads det F and |F|^2 from the fundamental forms,
    #   |F|^2 - 3 = tr(dG adj G0) / det G0,
    #   (det F)^2 - 1 = tr(dG adj Gbar) / det G0,
    # with det G0 = (a_y0 b_y0)^2 and det F = a_m b_m / (a_y0 b_y0); all
    # must match det3 and the Frobenius sum of the assembled 3x3 F
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, 13, 11)
    h = 0.05
    ref = build_reference(chart, grid, h)
    states = [deformed_state(displace_chart(
                  chart, _seeded_displacement(chart.domain, seed)), grid, h)
              for seed in (3, 17)]
    states.append(_nodal_state(chart, grid, h, 5))
    for state in states:
        frob_excess, det2_excess = oracle3d._invariant_numerators(state, ref)
        for x3 in (-0.5 * h, -0.31 * h, 0.0, 0.17 * h, 0.5 * h):
            point = ansatz_point(ref, state, x3)
            F, b = point["F"], point["b"]
            det_g0 = (ref.area * b) ** 2
            frob2 = 3.0 + oracle3d._horner(frob_excess, x3) / det_g0
            det2 = 1.0 + oracle3d._horner(det2_excess, x3) / det_g0
            b_m = thickness_jacobian(state.mean, state.gauss, x3)
            det = state.area * b_m / (ref.area * b)
            want_frob2 = np.einsum("...ij,...ij->...", F, F)
            want_det = det3(F)
            assert np.abs(frob2 / want_frob2 - 1.0).max() <= 1e-13, x3
            assert np.abs(det / want_det - 1.0).max() <= 1e-13, x3
            assert np.abs(det2 / want_det ** 2 - 1.0).max() <= 1e-13, x3


def test_slab_integral_builds_no_3x3_stacks(monkeypatch):
    # the ansatz's 3x3 coefficient stacks belong to the slow oracle
    # (ansatz_point) only: neither the sweep nor a bare call builds them
    calls = []
    original = oracle3d._ansatz_coefficients

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(oracle3d, "_ansatz_coefficients", counted)
    chart, grid, ref, mat, state = _sphere_setup()
    assert integrate_3d(state, ref, mat) > 0.0
    deformed = displace_chart(chart,
                              TrigDisplacement.standard(chart.domain, 0.04))
    compare_reduced_3d(chart, deformed, grid, 1.0, 1.0, (0.04, 0.02))
    assert calls == []
    ansatz_point(ref, state, 0.0)
    assert calls == [1]


def test_slab_past_the_geometric_bound_raises_before_integrating():
    # past h_geom = 2 on the unit cap, b_y0 vanishes inside the slab; the
    # slab integral raises the evaluator's ThicknessError, with no
    # RuntimeWarning (an error under the suite's filter) from a division
    chart, grid, ref, _, state = _sphere_setup()
    assert ref.h_geom < 2.5
    for h in (ref.h_geom, 2.5):
        mat = MaterialParams(mu=1.0, lam=1.0, h=h)
        with pytest.raises(ThicknessError, match="exceeds the geometric"):
            integrate_3d(state, ref, mat)
        with pytest.raises(ThicknessError) as evaluator:
            total_energy(state, ref, mat, 1)
        with pytest.raises(ThicknessError) as sweep:
            compare_reduced_3d(chart, chart, grid, 1.0, 1.0, (h, 0.02))
        assert str(sweep.value) == str(evaluator.value)


def test_folded_state_names_its_grid_node():
    # det F = a_m b_m(x3) / (a b(x3)), so the ansatz folds where the
    # deformed surface bends tighter than the half-thickness: a bump of
    # height 6 on a 1 x 4 plate has curvatures ~6 pi^2 and ~6 pi^2 / 16
    # at its crest, the centre node (5, 5), and b_m changes sign there
    # inside the slab |x3| <= 0.025
    chart = make_chart("plate", length2=4.0)
    grid = Grid.uniform(chart.domain, 11, 11)
    h = 0.05
    ref = build_reference(chart, grid, h)
    fold = TrigDisplacement(chart.domain, [((0.0, 0.0, 6.0), 1, 1)])
    state = deformed_state(displace_chart(chart, fold), grid, h)
    assert min(f.min() for f in face_factors(state.mean, state.gauss, h)) < 0.0
    with pytest.raises(NonPositiveDeterminant) as err:
        integrate_3d(state, ref, MaterialParams(mu=1.0, lam=1.0, h=h))
    assert err.value.where == (5, 5)
    assert "(5, 5)" in str(err.value)


def test_natural_state_slab_integral_is_quadrature_zero():
    for kind, params in (("plate", {}),
                         ("sphere-cap", dict(radius=1.0, extent=0.6)),
                         ("graph", dict(poly={(2, 0): 0.3, (1, 1): -0.2}))):
        chart = make_chart(kind, **params)
        grid = Grid.uniform(chart.domain, 11, 11)
        for h in (0.1, 0.01):
            ref = build_reference(chart, grid, h)
            mat = MaterialParams(mu=1.0, lam=1.0, h=h)
            state = deformed_state(chart, grid, h)
            for nodes in (8, 16):
                # F == Id to round-off and the parent density is quadratic
                # around Id, so the integral sits at squared round-off
                assert abs(integrate_3d(state, ref, mat, nodes=nodes)) < 1e-18


def test_three_point_volume_products_reproduce_face_factors():
    # at the three thickness nodes, volume factors computed through det F
    # must equal the deformed-state face factors directly: the identity
    # a b(x3) det F = a_m b_m(x3) is exact at x3 in {-h/2, 0, h/2}
    _, _, ref, _, state = _sphere_setup()
    via, direct = simpson_point_products(state, ref)
    for key in ("minus", "mid", "plus"):
        rel = np.abs(via[key] / direct[key] - 1.0).max()
        assert rel < 1e-12, key


# ---------------------------------------------------------------------------
# printed coefficient tables vs independent re-derivations
# ---------------------------------------------------------------------------

def _inv_b_series(H, K, terms):
    """coefficients of 1/b as a power series: c_j = 2H c_{j-1} - K c_{j-2}."""
    c = [np.ones_like(H), 2.0 * H]
    while len(c) < terms:
        c.append(2.0 * H * c[-1] - K * c[-2])
    return c


def _even_moment(k, h):
    """int_{-h/2}^{h/2} x^k dx for even k (odd moments vanish)."""
    return h ** (k + 1) / (2 ** k * (k + 1))


def test_trace_moments_match_series_recurrence():
    H = RNG.uniform(-1.5, 1.5, size=100)
    K = RNG.uniform(-2.0, 2.0, size=100)
    h = 0.23
    table = trace_moment_coefficients(H, K, h)
    c = _inv_b_series(H, K, 5)
    for p in range(5):
        # alpha_p truncated at total degree 4 in x3 (h^5 after integration)
        want = np.zeros_like(H)
        for j in range(5 - p):
            if (p + j) % 2 == 0:
                want = want + c[j] * _even_moment(p + j, h)
        assert np.abs(table[p] - want).max() < 1e-13 * max(1.0, h), p


def test_trace_moments_match_dense_quadrature():
    # against the defining integral itself, at small h where the O(h^7)
    # truncation sits far below the 1e-8 relative gate
    h = 0.02
    x, w = thickness_rule(24, h)
    for _ in range(100):
        H = RNG.uniform(-1.5, 1.5)
        K = RNG.uniform(-2.0, 2.0)
        b = 1.0 - 2.0 * H * x + K * x * x
        assert b.min() > 0.5
        table = trace_moment_coefficients(H, K, h)
        for p in range(5):
            dense = (w * x ** p / b).sum()
            # closed forms truncate at total degree 4 in x3; the first
            # dropped term is bounded by sup|1/b series coeff| * h^7/448
            assert abs(table[p] - dense) < 1e-8 * abs(dense) + 20.0 * h ** 7


def _poly_mul(a, b, n):
    out = np.zeros(n)
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[:n]):
            if i + j < n:
                out[i + j] += ai * bj
    return out


def _poly_inv(d, n):
    """power-series inverse of d (d[0] != 0) through degree n-1."""
    inv = np.zeros(n)
    inv[0] = 1.0 / d[0]
    for k in range(1, n):
        acc = 0.0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc += d[j] * inv[k - j]
        inv[k] = -acc / d[0]
    return inv


def test_det_square_series_matches_power_series_division():
    for _ in range(100):
        H, dH = RNG.uniform(-1.2, 1.2, size=2)
        K, dK = RNG.uniform(-1.5, 1.5, size=2)
        table = det_square_series(H, K, dH, dK)
        b = np.array([1.0, -2.0 * H, K])
        bm = np.array([1.0, -2.0 * (H + dH), K + dK])
        n = 5
        ratio = _poly_mul(_poly_mul(bm, bm, n), _poly_inv(_poly_mul(b, b, n), n),
                          n)
        for p in range(1, 5):
            want = ratio[p] - (1.0 if p == 0 else 0.0)
            assert abs(table[p] - want) < 1e-11 * max(1.0, abs(want)), p


def test_det_square_bracket_matches_dense_quadrature():
    h = 0.02
    x, w = thickness_rule(24, h)
    for _ in range(100):
        H, dH = RNG.uniform(-1.0, 1.0, size=2)
        K, dK = RNG.uniform(-1.5, 1.5, size=2)
        b = 1.0 - 2.0 * H * x + K * x * x
        bm = 1.0 - 2.0 * (H + dH) * x + (K + dK) * x * x
        dense = (w * bm * bm / b).sum()
        closed = det_square_bracket(H, K, dH, dK, h)
        assert abs(closed - dense) < 1e-8 * (abs(dense) + h)


def test_log_det_bracket_matches_dense_quadrature():
    h = 0.02
    x, w = thickness_rule(24, h)
    for _ in range(100):
        H, dH = RNG.uniform(-1.0, 1.0, size=2)
        K, dK = RNG.uniform(-1.5, 1.5, size=2)
        r = RNG.uniform(-0.3, 0.3)
        b = 1.0 - 2.0 * H * x + K * x * x
        bm = 1.0 - 2.0 * (H + dH) * x + (K + dK) * x * x
        assert min(b.min(), bm.min()) > 0.5
        dense = (w * (r + np.log(bm) - np.log(b)) * b).sum()
        closed = log_det_bracket(H, K, r, dH, dK, h)
        assert abs(closed - dense) < 1e-8 * (abs(dense) + h)


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

def test_comparison_sweep_is_thread_deterministic_and_fifth_order():
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 9, 9)
    disp = TrigDisplacement.standard(chart.domain, 0.05)
    deformed = displace_chart(chart, disp)
    kwargs = dict(mu=1.0, lam=1.0, h_values=(0.04, 0.02, 0.01), nodes=12)
    # the sweep starts no threads of its own; the CLI tests check its
    # output at one and two BLAS threads
    result = compare_reduced_3d(chart, deformed, grid, **kwargs)
    for model in (1, 2, 3):
        assert result["orders"][model] > 4.5, model
    # rows carry (h, model, reduced, full3d, abs_err) in sweep order
    hs = [row[0] for row in result["rows"][::3]]
    assert hs == [0.04, 0.02, 0.01]
    for row in result["rows"]:
        assert abs(row[2] - row[3]) == row[4]


def _rebuilt_sweep(chart, deformed, grid, h_values, models=(1, 2, 3)):
    """The thickness sweep with the reference and the deformed state built
    from scratch at every h."""
    rows, errs = [], {model: [] for model in models}
    for h in h_values:
        ref = build_reference(chart, grid, h)
        state = deformed_state(deformed, grid, h)
        mat = MaterialParams(mu=1.0, lam=1.0, h=h)
        full3d = integrate_3d(state, ref, mat, nodes=12)
        for model in models:
            reduced = total_energy(state, ref, mat, model).internal
            rows.append((h, model, reduced, full3d, abs(reduced - full3d)))
            errs[model].append(abs(reduced - full3d))
    log_h = np.log(h_values)
    orders = {model: float(np.polyfit(log_h, np.log(errs[model]), 1)[0])
              for model in models}
    return rows, orders


@pytest.mark.parametrize("kind, params", [
    ("sphere-cap", {"radius": 1.0, "extent": 0.6}),
    ("cylinder-patch", {"radius": 1.0, "arc": 1.0}),
    ("graph", {"poly": {(2, 0): 0.3, (1, 1): -0.2}, "bump": (0.05, 1, 2)}),
])
def test_sweep_shares_one_reference_and_matches_per_h_rebuild(
        kind, params, monkeypatch):
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, 9, 9)
    deformed = displace_chart(
        chart, TrigDisplacement.standard(chart.domain, 0.05))
    h_values = [0.04, 0.02, 0.01]
    rows, orders = _rebuilt_sweep(chart, deformed, grid, h_values)

    calls = {"build_reference": 0, "deformed_state": 0}

    def counted(name):
        original = getattr(oracle3d, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle3d, name, counted(name))
    result = compare_reduced_3d(chart, deformed, grid, 1.0, 1.0, h_values,
                                nodes=12)
    assert calls == {"build_reference": 1, "deformed_state": 1}

    assert len(result["rows"]) == len(rows)
    for got, want in zip(result["rows"], rows):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:]):
            assert abs(a - b) <= 1e-14 * abs(b)
    assert result["orders"] == orders


@pytest.mark.parametrize("h_values, message", [
    ([0.04, -0.01], "h = -0.01$"), ([float("nan"), 0.02], "h = nan$"),
    ([0.04, float("inf")], "h = inf$"), ([0.0, 0.02], "h = 0$"),
    ([], "sweep is empty"),
    ([0.04, 0.02, 0.04], r"repeats a value: \[0.04, 0.02, 0.04\]$"),
])
def test_sweep_rejects_a_bad_thickness_before_any_geometry(
        h_values, message, monkeypatch):
    def no_geometry(*args, **kwargs):
        raise AssertionError("geometry built before the sweep was checked")

    monkeypatch.setattr(oracle3d, "build_reference", no_geometry)
    monkeypatch.setattr(oracle3d, "deformed_state", no_geometry)
    chart = make_chart("sphere-cap", radius=1.0, extent=0.6)
    grid = Grid.uniform(chart.domain, 9, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            compare_reduced_3d(chart, chart, grid, 1.0, 1.0, h_values)
