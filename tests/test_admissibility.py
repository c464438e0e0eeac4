from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyfromroots, polyval

from shellreduce.admissibility import (_polyder, _polyval,
                                       admissibility_report, sample_convexity,
                                       scan_stretch_cubic, scan_stretch_full,
                                       scan_volume_det,
                                       shell_quadratic_hessian,
                                       smallest_positive_roots,
                                       stretch_threshold_cubic,
                                       stretch_threshold_full,
                                       volume_threshold_taylor)
from shellreduce.energy import MaterialParams, ReducedEnergy, w_shell
from shellreduce.errors import ConfigError
from shellreduce.geometry import make_chart
from shellreduce.grids import Grid
from shellreduce.reference import build_reference

INF = float("inf")
# a graph with a sine bump: curvature varies across the grid and the
# shape operator does not commute with the metric
GRAPH = dict(poly={(2, 0): 0.3, (1, 1): -0.2}, bump=(0.05, 1, 2))


def _ref(kind, h=0.05, n=9, **params):
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, n, n)
    return build_reference(chart, grid, h)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_smallest_positive_root_basics():
    cases = [
        ([0.0, 0.0, 0.0], INF, 0.0),
        ([5.0], INF, 0.0),
        ([-1.0, 2.0], 0.5, 0.0),
        ([1.0, 2.0], INF, 0.0),                 # root at -0.5
        ([1.0, 0.0, 1.0], INF, 0.0),            # complex pair
        ([2.0, -3.0, 1.0], 1.0, 1e-12),         # roots 1 and 2
        # degree drop: tiny leading coefficient is trimmed, not inverted
        ([2.0, -3.0, 1.0, 1e-20], 1.0, 1e-10),
        # double root survives without a bracketing sign change
        ([0.09, -0.6, 1.0], 0.3, 1e-6),
    ]
    # each row alone at its own degree, then all rows in one batch with the
    # missing high coefficients zero
    batch = np.zeros((len(cases), 4))
    for i, (coeffs, expected, tol) in enumerate(cases):
        batch[i, :len(coeffs)] = coeffs
        (root,) = smallest_positive_roots([coeffs])
        assert root == expected or abs(root - expected) <= tol, coeffs
    roots = smallest_positive_roots(batch)
    for root, (coeffs, expected, tol) in zip(roots, cases):
        assert root == expected or abs(root - expected) <= tol, coeffs


def _planted_batch(rng, n):
    """(coeffs, smallest positive root) rows built from planted roots:
    real-rooted and complex-pair cubics and quadratics, linear rows,
    negative roots, trimmed 1e-16 leading terms, all-zero rows and random
    row scales."""
    coeffs = np.zeros((n, 4))
    expected = np.full(n, INF)
    for i in range(n):
        kind = rng.integers(7)
        if kind == 5:                            # all-zero row
            continue
        degree = {0: 3, 1: 3, 6: 1}.get(kind, 2)
        # well separated magnitudes in [0.1, 10], random signs
        mags = 10.0 ** (rng.permutation(np.linspace(-1.0, 1.0, 7))[:degree]
                        + rng.uniform(-0.05, 0.05, degree))
        roots = mags * rng.choice([-1.0, 1.0], degree)
        if kind in (1, 3):                       # replace two by a pair
            re, im = roots[0], abs(roots[1])
            roots = np.concatenate(
                [[re + 1j * im, re - 1j * im], roots[2:]])
        real = roots.real[np.abs(roots.imag) == 0.0]
        if np.any(real > 0.0):
            expected[i] = real[real > 0.0].min()
        row = polyfromroots(roots).real
        row *= 10.0 ** rng.uniform(-6.0, 6.0)
        coeffs[i, :degree + 1] = row
        if kind == 4:                            # trimmed tiny lead
            coeffs[i, 3] = 1e-16 * np.abs(row).max() * rng.choice([-1, 1])
    return coeffs, expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smallest_positive_roots_match_planted_roots(seed):
    rng = np.random.default_rng(seed)
    coeffs, expected = _planted_batch(rng, 600)
    roots = smallest_positive_roots(coeffs)
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(roots), finite)
    rel = np.abs(roots[finite] - expected[finite]) / expected[finite]
    assert rel.max() <= 1e-12
    # rows are independent: the batch equals the row-by-row loop
    loop = np.array([smallest_positive_roots(row[None])[0] for row in coeffs])
    assert np.array_equal(roots, loop)


def _companion_roots(coeffs):
    """The slow oracle of ``smallest_positive_roots``: the eigenvalues of
    each degree's stack of companion matrices (one ``np.linalg.eigvals``
    call per degree), with the same lead trimming, real filter and bracketed
    Newton polish."""
    c = np.array(coeffs, dtype=float)
    rows, width = c.shape
    scale = np.abs(c).max(axis=1)
    deg = np.full(rows, width - 1)
    for k in range(width - 1, 0, -1):
        deg[(deg == k) & (np.abs(c[:, k]) <= 1e-14 * scale)] = k - 1
    c[np.arange(width) > deg[:, None]] = 0.0
    out = np.full(rows, INF)
    for d in range(1, width):
        sel = deg == d
        comp = np.zeros((sel.sum(), d, d))
        comp[:, 0] = -c[sel, d - 1::-1] / c[sel, d, None]
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots = np.linalg.eigvals(comp)
        real = np.abs(roots.imag) <= 1e-9 * np.maximum(np.abs(roots.real), 1.0)
        pos = real & (roots.real > 0.0)
        out[sel] = np.where(pos, roots.real, INF).min(axis=1)
    found = (deg >= 2) & np.isfinite(out)
    c, dc, t = c[found].T, polyder(c[found].T), out[found]
    lo, hi = 0.9999 * t, 1.0001 * t
    bracketed = polyval(lo, c, tensor=False) * polyval(hi, c, tensor=False) < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            g, dg = polyval(t, c, tensor=False), polyval(t, dc, tensor=False)
            step = t - g / dg
            t = np.where(bracketed & (step >= lo) & (step <= hi), step, t)
    out[found] = t
    return out


def _oracle_batch(rng, n):
    """(coeffs, smallest positive root) rows of quadratics and cubics,
    cycling through five kinds: well-separated real roots, a near-double
    pair 0.3-1% apart, a complex pair outside the real filter, a complex
    pair inside it (|im| <= 1e-9 at |re| < 1e-3, which the filter counts
    as a double root at re), and a quadratic with a trimmed 1e-16 lead."""
    coeffs = np.zeros((n, 4))
    expected = np.full(n, INF)
    for i in range(n):
        kind = i % 5
        degree = 2 + rng.integers(2)
        signs = rng.choice([-1.0, 1.0], 3)
        # magnitudes at least a factor 10**0.4 apart, in [0.01, 100]
        mags = rng.permutation(np.linspace(-2.0, 2.0, 9))[:3]
        roots = signs * 10.0 ** (mags + rng.uniform(-0.05, 0.05, 3))
        real = roots[:degree]
        if kind == 1:
            roots[1] = roots[0] * (1.0 + 10.0 ** rng.uniform(-2.5, -2.0))
            real = roots[:degree]
        elif kind in (2, 3):
            if kind == 2:
                re = roots[0]
                im = abs(re) * 10.0 ** rng.uniform(-6.0, 0.0)
                real = roots[2:degree]
            else:
                re = signs[0] * 10.0 ** rng.uniform(-4.0, -3.5)
                im = 10.0 ** rng.uniform(-9.7, -9.1)
                real = np.concatenate([[re], roots[2:degree]])
            roots = np.array([re + 1j * im, re - 1j * im, roots[2]])
        if np.any(real > 0.0):
            expected[i] = real[real > 0.0].min()
        row = polyfromroots(roots[:degree]).real * 10.0 ** rng.uniform(-6, 6)
        coeffs[i, :degree + 1] = row
        if kind == 4 and degree == 2:
            coeffs[i, 3] = 1e-16 * np.abs(row).max() * signs[1]
    return coeffs, expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_roots_match_the_companion_eigenvalues(seed):
    rng = np.random.default_rng(100 + seed)
    coeffs, expected = _oracle_batch(rng, 1000)
    roots = smallest_positive_roots(coeffs)
    oracle = _companion_roots(coeffs)
    finite = np.isfinite(oracle)
    assert np.array_equal(np.isfinite(roots), finite)
    rel = np.abs(roots[finite] - oracle[finite]) / oracle[finite]
    assert rel.max() <= 1e-12
    # every kind yields positive roots, and both agree with the planted ones
    assert np.array_equal(np.isfinite(expected), finite)
    assert all(finite[kind::5].sum() > 20 for kind in range(5))
    rel = np.abs(roots[finite] - expected[finite]) / expected[finite]
    assert rel.max() <= 1e-9


def test_closed_form_roots_keep_small_roots_beside_large_ones():
    # roots twelve to fifteen orders of magnitude apart: a closed form
    # taken directly loses the small one to cancellation against b / 3a,
    # and beside a large complex pair Cardano's small root needs the
    # Newton steps before it is divided out
    for roots in ([2e-6, -3.0, 5e6], [-1e-6, 4e-3, 7e6],
                  [3e-6, 1e6 + 2e6j, 1e6 - 2e6j],
                  [3e-9, 1e6 + 2e6j, 1e6 - 2e6j],
                  [2e-10, -1e5 + 3e5j, -1e5 - 3e5j]):
        coeffs = polyfromroots(roots).real
        small = min(r.real for r in roots if r.imag == 0 and r.real > 0)
        (root,) = smallest_positive_roots([coeffs])
        assert abs(root - small) <= 1e-12 * small, roots


def test_smallest_positive_roots_takes_widths_one_to_four():
    assert smallest_positive_roots(np.ones((3, 1))).tolist() == [INF] * 3
    assert smallest_positive_roots([[-2.0, 4.0]])[0] == 0.5
    with pytest.raises(ValueError):
        smallest_positive_roots(np.ones((2, 5)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_horner_and_derivative_match_numpy_polynomial(seed):
    # the root polish's helpers repeat numpy.polynomial's operations, so
    # every bit must agree, signed zeros, infinities and NaN included
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, INF, -INF, np.nan, 1e-300, -1e300])
    for width in (1, 2, 3, 4):
        for cols in (0, 1, 17):
            c = rng.standard_normal((width, cols)) * 10.0 ** rng.integers(
                -3, 4, size=(width, cols))
            x = rng.standard_normal(cols)
            mask = rng.random((width, cols)) < 0.3
            c[mask] = rng.choice(special, size=int(mask.sum()))
            x[rng.random(cols) < 0.3] = rng.choice(special)
            with np.errstate(over="ignore", invalid="ignore"):
                pairs = ((_polyder(c), polyder(c)),
                         (_polyval(x, c), polyval(x, c, tensor=False)),
                         (_polyval(x, _polyder(c)),
                          polyval(x, polyder(c), tensor=False)))
            for got, want in pairs:
                assert got.shape == want.shape, (width, cols)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# closed-form thresholds on the catalog charts
# ---------------------------------------------------------------------------

def test_sphere_thresholds_match_hand_computed_values():
    ref = _ref("sphere-cap", radius=1.0, extent=0.6)
    full = stretch_threshold_full(ref)
    assert abs(full.h1_prime - np.sqrt(20.0 / 3.0)) < 1e-9
    assert abs(full.h1_second - 0.701492117767) < 1e-9
    assert full.h0 == min(full.h1, full.h2)
    assert abs(full.h0 - 0.701492117767) < 1e-9

    cubic = stretch_threshold_cubic(ref)
    # T = K/12 + (|H| + C/4)^2/3 with H = -1, K = 1, C = 2 sqrt(2)
    T = 1.0 / 12.0 + (1.0 + np.sqrt(2.0) / 2.0) ** 2 / 3.0
    assert abs(cubic.t_sup - T) < 1e-9
    assert abs(cubic.h0 - 1.0 / np.sqrt(T)) < 1e-9

    vol = volume_threshold_taylor(ref)
    # K > 0 everywhere: the negative-curvature minors never bind
    assert vol.h1 == INF and vol.h2_prime == INF
    assert abs(vol.h2_second - np.sqrt(20.0 / 3.0)) < 1e-9
    assert abs(vol.h3 - np.sqrt(4.0 / 3.0)) < 1e-9
    assert abs(vol.h0 - np.sqrt(4.0 / 3.0)) < 1e-9


def test_cylinder_thresholds_match_hand_computed_values():
    ref = _ref("cylinder-patch", radius=1.0, height=1.0, arc=1.0)
    full = stretch_threshold_full(ref)
    # K = 0: the Gauss-curvature bound never binds, the pointwise cubic
    # degenerates to 1/3 - t/4 with H = -1/2, C = 2
    assert full.h1_prime == INF
    assert abs(full.h1_second - np.sqrt(4.0 / 3.0)) < 1e-9
    assert abs(full.h0 - np.sqrt(4.0 / 3.0)) < 1e-9

    cubic = stretch_threshold_cubic(ref)
    assert abs(cubic.h0 - np.sqrt(3.0)) < 1e-9

    vol = volume_threshold_taylor(ref)
    assert vol.h1 == INF and vol.h2_prime == INF and vol.h2_second == INF
    assert abs(vol.h3 - np.sqrt(16.0 / 3.0)) < 1e-9


def test_plate_thresholds_are_all_infinite():
    ref = _ref("plate")
    full = stretch_threshold_full(ref)
    cubic = stretch_threshold_cubic(ref)
    vol = volume_threshold_taylor(ref)
    assert full.h1_prime == full.h1_second == full.h0 == INF
    assert cubic.h0 == INF
    assert vol.h1 == vol.h2 == vol.h3 == vol.h0 == INF
    report = admissibility_report(ref, h=100.0)
    assert report.h_geom == INF
    assert all(report.h_max[m] == INF for m in (1, 2, 3))
    assert all(report.verdicts.values())


def test_thresholds_scale_linearly_with_radius():
    # all bounds are curvature-built, so doubling the radius doubles them
    r1 = _ref("sphere-cap", radius=1.0, extent=0.6)
    r2 = _ref("sphere-cap", radius=2.0, extent=0.6)
    pairs = (
        (stretch_threshold_full(r1).h0, stretch_threshold_full(r2).h0),
        (stretch_threshold_cubic(r1).h0, stretch_threshold_cubic(r2).h0),
        (volume_threshold_taylor(r1).h3, volume_threshold_taylor(r2).h3),
        (admissibility_report(r1, r1.h).h_geom,
         admissibility_report(r2, r2.h).h_geom),
    )
    for a, b in pairs:
        assert abs(b - 2.0 * a) < 1e-6 * a


# ---------------------------------------------------------------------------
# closed forms vs brute-force inequality scans
# ---------------------------------------------------------------------------

def _node(ref, idx):
    """The curvature fields of ``ref`` at one grid node, as a 1x1 grid."""
    i, j = idx
    return SimpleNamespace(mean=ref.mean[i:i + 1, j:j + 1],
                           gauss=ref.gauss[i:i + 1, j:j + 1],
                           curvature_bound=ref.curvature_bound)


def test_scans_locate_the_closed_form_thresholds():
    h_grid = np.linspace(0.4, 1.6, 2401)   # step 5e-4
    step = h_grid[1] - h_grid[0]
    # constant curvature (the sphere, where argmin is decided by round-off)
    # and curvature varying across the grid (a graph with a sine bump)
    for ref in (_ref("sphere-cap", radius=1.0, extent=0.6),
                _ref("graph", **GRAPH)):
        full = stretch_threshold_full(ref)
        cubic = stretch_threshold_cubic(ref)
        vol = volume_threshold_taylor(ref)
        nodes = list(np.ndindex(ref.mean.shape))
        for value, scan, node, per_node in (
                (full.h0, scan_stretch_full, full.argmin,
                 lambda r: stretch_threshold_full(r).h1_second),
                (cubic.h0, scan_stretch_cubic, cubic.argmax,
                 lambda r: stretch_threshold_cubic(r).h0),
                (vol.h3, scan_volume_det, vol.argmin,
                 lambda r: volume_threshold_taylor(r).h3)):
            first_bad = scan(ref, h_grid)
            assert abs(first_bad - value) <= step
            # the reported node has the smallest per-node bound, and the
            # scan fails there first as well
            bounds = [per_node(_node(ref, idx)) for idx in nodes]
            assert bounds[nodes.index(node)] == min(bounds)
            assert abs(scan(_node(ref, node), h_grid) - first_bad) <= step


def test_scans_return_infinity_when_nothing_violates():
    ref = _ref("plate")
    h_grid = np.linspace(0.01, 50.0, 100)
    assert scan_stretch_full(ref, h_grid) == INF
    assert scan_stretch_cubic(ref, h_grid) == INF
    assert scan_volume_det(ref, h_grid) == INF


# ---------------------------------------------------------------------------
# sampled Hessians
# ---------------------------------------------------------------------------

def test_hessians_are_psd_below_the_thresholds():
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
    for ref in (_ref("sphere-cap", radius=1.0, extent=0.6),
                _ref("graph", **GRAPH)):
        report = admissibility_report(ref, mat.h)
        for which, h0 in (("full", report.model_h0[1]),
                          ("cubic", report.model_h0[2]),
                          ("volume", volume_threshold_taylor(ref).h0)):
            min_eig, min_ray, scale = sample_convexity(
                ref, replace(mat, h=0.9 * h0), which, n_samples=200)
            assert min_eig >= -1e-12 * scale, which
            assert min_ray >= -1e-12 * scale, which


@pytest.mark.parametrize("model", [1, 2])
def test_shell_hessian_reproduces_the_shell_density(model):
    # (1/2) x^T H x at x = (E, G) is the shell density's deformation part
    # on the forms I = E^T E, II = -E^T G, III = G^T G.  The graph chart's
    # kernel1 is not symmetric, so a Hessian built from symmetrised kernels
    # misses here (by 4.5e-4 relative)
    ref = _ref("graph", **GRAPH)
    mat = MaterialParams(mu=1.3, lam=0.7, h=0.3)
    rng = np.random.default_rng(model)
    E = rng.standard_normal(ref.mean.shape + (3, 2))
    G = rng.standard_normal(ref.mean.shape + (3, 2))
    first = np.einsum("...ia,...ib->...ab", E, E)
    second = -np.einsum("...ia,...ib->...ab", E, G)
    third = np.einsum("...ia,...ib->...ab", G, G)
    bundle = {}
    for name, form in (("I", first), ("II", second), ("III", third)):
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            bundle["%s%d%d" % (name, a + 1, b + 1)] = form[..., a, b]
    standalone = 0.5 * mat.mu * (mat.h + mat.h ** 3 * ref.gauss / 12.0)
    want = w_shell(bundle, ReducedEnergy(ref, mat, model)) - standalone
    hess = shell_quadratic_hessian(ref, mat, model)
    x = np.concatenate([E.reshape(E.shape[:-2] + (6,)),
                        G.reshape(G.shape[:-2] + (6,))], axis=-1)
    got = 0.5 * np.einsum("...i,...ij,...j->...", x, hess, x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_volume_hessian_loses_definiteness_beyond_its_root():
    # the h3 bound is the exact determinant root of the 3x3 block, so just
    # beyond it one eigenvalue must cross zero
    ref = _ref("sphere-cap", radius=1.0, extent=0.6)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
    h3 = volume_threshold_taylor(ref).h3
    min_eig, _, scale = sample_convexity(ref, replace(mat, h=1.1 * h3),
                                         "volume")
    assert min_eig < -1e-12 * scale


def _det2_matrices(ref, h, model):
    """A run's squared-volume form (ReducedEnergy.det2_form) stacked as
    (n1, n2, 3, 3) symmetric matrices."""
    energy = ReducedEnergy(ref, MaterialParams(mu=1.0, lam=1.0, h=h), model)
    m00, m02, m11, m12, m22 = np.broadcast_arrays(*energy.det2_form)
    zero = np.zeros_like(m00)
    rows = ((m00, zero, m02), (zero, m11, m12), (m02, m12, m22))
    return np.stack([np.stack(row, -1) for row in rows], -2)


def test_simpson_det2_form_is_psd_where_the_taylor_form_is_not():
    # the paper's reason for Simpson's rule in models I and II: its
    # squared-volume form is a sum of squares, so convex up to the geometric
    # bound, while model III's Taylor form is convex only below volume.h0
    # (1.1547 on the unit cap)
    cap = _ref("sphere-cap", n=33, radius=1.0, extent=0.6)
    for ref in (cap, _ref("cylinder-patch", radius=1.0),
                _ref("graph", **GRAPH)):
        eigs = np.linalg.eigvalsh(_det2_matrices(ref, 0.999 * ref.h_geom, 1))
        assert eigs.min() >= -1e-12 * np.abs(eigs).max()
    eigs = np.linalg.eigvalsh(_det2_matrices(cap, 1.8, 3))
    assert eigs.min() < -1e-3 * np.abs(eigs).max()


def test_sample_convexity_rejects_unknown_form():
    ref = _ref("plate")
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
    with pytest.raises(ConfigError):
        sample_convexity(ref, mat, "hessian")


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_report_verdicts_and_safety_scaling():
    ref = _ref("sphere-cap", radius=1.0, extent=0.6)
    rep = admissibility_report(ref, h=0.5)
    assert rep.ok(1) and rep.ok(2) and rep.ok(3)
    assert abs(rep.h_geom - 2.0) < 1e-7
    assert abs(rep.model_h0[1] - 0.701492117767) < 1e-9
    assert rep.model_h0[3] == min(rep.model_h0[1],
                                  volume_threshold_taylor(ref).h0)

    mid = admissibility_report(ref, h=0.8)
    assert not mid.ok(1) and mid.ok(2) and not mid.ok(3)

    tight = admissibility_report(ref, h=0.5, safety=0.5)
    assert not tight.ok(1)           # h_max halves to ~0.351
    assert abs(tight.h_max[1] - 0.5 * 0.701492117767) < 1e-9

    with pytest.raises(ConfigError):
        admissibility_report(ref, 0.5, safety=0.0)

    rows = dict(rep.rows())
    assert rows["h"] == 0.5
    assert rows["model2.ok"] is True
    assert abs(rows["stretch_full.h1_second"] - 0.701492117767) < 1e-9
