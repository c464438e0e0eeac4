"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints ``[criterion N] PASS/FAIL: ...`` (visible with ``pytest
-s``, or in the captured output on failure) and then asserts, so the suite
doubles as a human-readable checklist of what the package promises:

 1. natural-state energies vanish (reduced and 3-D slab, all models)
 2. reduced-vs-3-D error decays at the advertised thickness orders
 3. the three-point thickness identity holds to round-off
 4. closed-form convexity thresholds match brute-force scans; Hessians PSD
 5. the plate reports every threshold as unbounded through the CLI
 6. the two gradient modes agree, and match secant probes
 7. a loaded plate minimization stays feasible, monotone, and symmetric
 8. printed coefficient tables match dense thickness quadrature
"""

import time
from dataclasses import replace

import numpy as np

from shellreduce.admissibility import (sample_convexity, scan_stretch_cubic,
                                       scan_stretch_full, scan_volume_det,
                                       stretch_threshold_cubic,
                                       stretch_threshold_full,
                                       volume_threshold_taylor)
from shellreduce.cli import main
from shellreduce.energy import (MaterialParams, deformed_state,
                                det_square_bracket, total_energy)
from shellreduce.geometry import TrigDisplacement, displace_chart, make_chart
from shellreduce.grids import EDGES, Grid, area_weights
from shellreduce.loads import LoadSpec, uniform_transverse
from shellreduce.minimizer import ShellObjective, SolverConfig, minimize
from shellreduce.oracle3d import (compare_reduced_3d, det_square_series,
                                  integrate_3d, simpson_point_products,
                                  trace_moment_coefficients, thickness_rule)
from shellreduce.reference import build_reference
from shellreduce.vtkio import read_csv

CATALOG = {
    "plate": dict(length1=1.0, length2=1.0),
    "sphere-cap": dict(radius=1.0, extent=0.6),
    "cylinder-patch": dict(radius=1.0, height=1.0, arc=1.0),
}


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print("[criterion %d] %s: %s" % (num, status, label), flush=True)
    assert not failures, "criterion %d (%s):\n  %s" % (
        num, label, "\n  ".join(str(f) for f in failures))


def _smooth_field(grid, modes=2, seed=None):
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = grid.domain
    U = (grid.x1[:, None] - a1) / (b1 - a1)
    V = (grid.x2[None, :] - a2) / (b2 - a2)
    out = np.zeros((grid.n1, grid.n2, 3))
    for k in range(1, modes + 1):
        for l in range(1, modes + 1):
            coefs = rng.normal(size=3)
            out += (np.sin(np.pi * k * U) * np.sin(np.pi * l * V))[..., None] \
                * coefs
    return out


def _feasible_state(objective, ref, amplitude=0.05, seed=None):
    bump = _smooth_field(ref.grid, seed=seed)
    bump /= max(1.0, np.abs(bump).max())
    amp = amplitude
    for _ in range(40):
        pos = ref.positions + amp * bump
        if objective.feasible(pos):
            return pos
        amp *= 0.5
    raise AssertionError("no feasible perturbation found")


def test_criterion_1_natural_state_energy_vanishes():
    failures = []
    for name, params in CATALOG.items():
        analytic = make_chart(name, **params)
        grid = Grid.uniform(analytic.domain, 33, 33)
        pos = analytic.positions_on(grid)
        # nodal positions drive the full finite-difference pipeline: the
        # reference kernels and the deformed state then share one bundle,
        # so any internal inconsistency would break the cancellation
        for h in (0.1, 0.01):
            t0 = time.perf_counter()
            ref = build_reference(pos, grid, h)
            mat = MaterialParams(mu=1.0, lam=1.0, h=h)
            state = deformed_state(pos, grid, h)
            area = float(np.sum(area_weights(grid) * ref.area))
            gate = 1e-10 * mat.mu * h * area
            for model in (1, 2, 3):
                internal = total_energy(state, ref, mat, model).internal
                if not abs(internal) <= gate:
                    failures.append(
                        "%s h=%g model %d: |internal| = %.3e > %.3e"
                        % (name, h, model, abs(internal), gate))
            # the parent density is quadratic around the identity, so the
            # slab integral sits at squared round-off, far below gate
            slab = integrate_3d(state, ref, mat)
            if not abs(slab) <= 1e-16 * max(1.0, mat.mu * h * area):
                failures.append("%s h=%g: slab integral %.3e"
                                % (name, h, slab))
            dt = time.perf_counter() - t0
            if dt >= 1.0:
                failures.append("%s h=%g took %.2f s" % (name, h, dt))
    _verdict(1, "natural state has zero reduced and 3-D energy "
                "(33x33, all charts, all models)", failures)


def test_criterion_2_thickness_convergence_orders():
    t0 = time.perf_counter()
    chart = make_chart("sphere-cap", **CATALOG["sphere-cap"])
    grid = Grid.uniform(chart.domain, 33, 33)
    deformed = displace_chart(
        chart, TrigDisplacement.standard(chart.domain, 0.05))
    result = compare_reduced_3d(chart, deformed, grid, 1.0, 1.0,
                                (0.04, 0.02, 0.01, 0.005),
                                models=(1, 2, 3), constants="oracle",
                                rule=("gauss", 16))
    failures = []
    for model, floor in ((1, 4.5), (2, 2.5), (3, 4.5)):
        order = result["orders"][model]
        if not order >= floor:
            failures.append("model %d: fitted order %.3f < %.1f"
                            % (model, order, floor))
    dt = time.perf_counter() - t0
    if dt >= 30.0:
        failures.append("sweep took %.1f s" % dt)
    _verdict(2, "reduced-vs-3D error order >= 4.5 (models 1, 3) "
                "and >= 2.5 (model 2)", failures)


def test_criterion_3_three_point_thickness_identity():
    chart = make_chart("sphere-cap", **CATALOG["sphere-cap"])
    grid = Grid.uniform(chart.domain, 33, 33)
    h = 0.05
    ref = build_reference(chart, grid, h)
    state = deformed_state(
        displace_chart(chart, TrigDisplacement.standard(chart.domain, 0.04)),
        grid, h)
    via, direct = simpson_point_products(state, ref)
    failures = []
    for key in ("minus", "mid", "plus"):
        rel = float(np.abs(via[key] / direct[key] - 1.0).max())
        if not rel <= 1e-12:
            failures.append("node %s: rel error %.3e" % (key, rel))
    _verdict(3, "volume products at the three thickness nodes equal the "
                "face and midsurface factors to 1e-12", failures)


def test_criterion_4_thresholds_match_scans_and_hessians_are_psd():
    t0 = time.perf_counter()
    chart = make_chart("sphere-cap", **CATALOG["sphere-cap"])
    grid = Grid.uniform(chart.domain, 33, 33)
    ref = build_reference(chart, grid, 0.05)
    mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
    full = stretch_threshold_full(ref)
    cubic = stretch_threshold_cubic(ref)
    vol = volume_threshold_taylor(ref)

    failures = []
    if abs(full.h1_prime - np.sqrt(20.0 / 3.0)) > 1e-9:
        failures.append("unit-sphere h1' = %.12g != sqrt(20/3)"
                        % full.h1_prime)

    h_grid = np.linspace(1e-3, 3.0, 10000)
    step = h_grid[1] - h_grid[0]
    for label, closed, scanned in (
            ("full trace", full.h0, scan_stretch_full(ref, h_grid)),
            ("cubic trace", cubic.h0, scan_stretch_cubic(ref, h_grid)),
            ("volume det", vol.h3, scan_volume_det(ref, h_grid))):
        if not abs(scanned - closed) <= step:
            failures.append("%s: scan %.6f vs closed form %.6f (step %.2e)"
                            % (label, scanned, closed, step))

    for which, h0 in (("full", full.h0), ("cubic", cubic.h0),
                      ("volume", vol.h0)):
        min_eig, min_ray, scale = sample_convexity(
            ref, replace(mat, h=0.9 * h0), which, n_samples=1000, seed=7)
        slack = -1e-12 * scale
        if min_eig < slack or min_ray < slack:
            failures.append("%s at 0.9 h0: min eig %.3e, min rayleigh %.3e"
                            % (which, min_eig, min_ray))
    dt = time.perf_counter() - t0
    if dt >= 20.0:
        failures.append("threshold checks took %.1f s" % dt)
    _verdict(4, "closed-form thickness thresholds match 10^4-point scans; "
                "sampled Hessians PSD at 0.9 h0", failures)


def test_criterion_5_plate_thresholds_unbounded_via_cli(tmp_path, capsys):
    failures = []
    for h in ("0.01", "1", "100"):
        cfg = tmp_path / ("plate-%s.cfg" % h)
        cfg.write_text(
            "chart.kind = plate\nchart.length1 = 1.0\nchart.length2 = 1.0\n"
            "grid.n1 = 17\ngrid.n2 = 17\nmaterial.mu = 1.0\n"
            "material.lambda = 1.0\nmaterial.h = %s\n" % h)
        rc = main(["check", "--config", str(cfg), "--out", str(tmp_path)])
        capsys.readouterr()
        if rc != 0:
            failures.append("h = %s: exit code %d" % (h, rc))
            continue
        _, rows = read_csv(tmp_path / "check-report.csv")
        for quantity, value in rows:
            if quantity == "h" or quantity.endswith(".ok"):
                continue
            if value != "inf":
                failures.append("h = %s: %s = %s (expected inf)"
                                % (h, quantity, value))
    _verdict(5, "check reports every plate threshold as unbounded and "
                "exits 0", failures)


def test_criterion_6_gradient_modes_and_secant_probes_agree():
    t0 = time.perf_counter()
    failures = []
    for name, params in CATALOG.items():
        chart = make_chart(name, **params)
        grid = Grid.uniform(chart.domain, 9, 9)
        ref = build_reference(chart, grid, 0.05)
        mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)
        loads = uniform_transverse(0.001)
        objective = ShellObjective(ref, mat, model=1, loads=loads,
                                   clamped_edges=("left",), penalty_beta=0.1)
        for seed in range(20):
            pos = _feasible_state(objective, ref, seed=seed)
            _, grad = objective.value_and_grad(pos)
            fd = objective.grad_fd(pos, step_scale=1e-6)
            scale = np.abs(fd).max()
            rel = float(np.abs(grad - fd).max() / scale)
            if not rel <= 1e-6:
                failures.append("%s seed %d: ad-vs-fd rel %.3e"
                                % (name, seed, rel))
            d = _smooth_field(grid, seed=seed + 1000)
            d /= np.abs(d).max()
            t = 1e-5
            secant = (objective.value(pos + t * d)
                      - objective.value(pos - t * d)) / (2.0 * t)
            slope = float(np.sum(grad * d))
            gap = abs(secant - slope) / max(1.0, abs(slope))
            if not gap <= 1e-5:
                failures.append("%s seed %d: secant gap %.3e"
                                % (name, seed, gap))
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        failures.append("gradient checks took %.1f s" % dt)
    _verdict(6, "adjoint and finite-difference gradients agree to 1e-6 "
                "on 20 random states per chart; secants to 1e-5", failures)


def test_criterion_7_loaded_plate_minimization():
    t0 = time.perf_counter()
    chart = make_chart("plate", **CATALOG["plate"])
    grid = Grid.uniform(chart.domain, 33, 33)
    h = 0.1
    ref = build_reference(chart, grid, h)
    mat = MaterialParams(mu=1.0, lam=1.0, h=h)
    loads = LoadSpec(face_plus=(0.0, 0.0, 0.001),
                     face_minus=(0.0, 0.0, 0.001),
                     gamma_t=())
    solver = SolverConfig(model=1, max_iter=7000, gtol_abs=4e-8)
    objective = ShellObjective(ref, mat, model=1, loads=loads,
                               clamped_edges=EDGES)

    snapshots = []

    def watch(iteration, positions):
        if iteration % 100 == 0:
            snapshots.append((iteration, positions.copy()))

    result = minimize(ref, mat, solver, loads=loads, clamped_edges=EDGES,
                      callback=watch)
    snapshots.append((result.iterations, result.positions))

    failures = []
    if not result.converged:
        failures.append("did not converge: %s" % result.message)
    energies = np.array([row[1] for row in result.trace])
    # every accepted iterate passed the orientation guard inside the
    # objective, so a finite recorded energy already certifies a_m > 0 and
    # A^pm > 0 along the whole trace; the sampled snapshots re-check the
    # inequalities explicitly through the public feasibility test
    if not np.isfinite(energies).all():
        failures.append("non-finite energy appears in the trace")
    if not (np.diff(energies) <= 0.0).all():
        failures.append("energy trace is not nonincreasing")
    if not energies[-1] < -1e-7:
        failures.append("final energy %.3e not clearly below zero"
                        % energies[-1])
    for iteration, pos in snapshots:
        if not objective.feasible(pos):
            failures.append("iterate %d violates a_m > 0 or A^pm > 0"
                            % iteration)

    final = result.positions
    mirrors = (
        np.abs(final[::-1, :, 0] + final[:, :, 0] - 1.0).max(),
        np.abs(final[::-1, :, 1] - final[:, :, 1]).max(),
        np.abs(final[::-1, :, 2] - final[:, :, 2]).max(),
        np.abs(final[:, ::-1, 1] + final[:, :, 1] - 1.0).max(),
        np.abs(final[:, ::-1, 0] - final[:, :, 0]).max(),
        np.abs(final[:, ::-1, 2] - final[:, :, 2]).max(),
    )
    if not max(mirrors) <= 1e-6:
        failures.append("mirror asymmetry %.3e > 1e-6" % max(mirrors))
    deflection = float(final[:, :, 2].max())
    if not 0.0 < deflection < h:
        failures.append("deflection %.4f outside (0, h)" % deflection)
    dt = time.perf_counter() - t0
    if dt >= 120.0:
        failures.append("minimization took %.1f s" % dt)
    _verdict(7, "33x33 clamped plate under a small face load: monotone, "
                "feasible, mirror-symmetric, deflection < h", failures)


def test_criterion_8_coefficient_tables_match_dense_quadrature():
    rng = np.random.default_rng(512)
    failures = []

    def poly_mul(a, b, n):
        out = np.zeros(n)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < n:
                    out[i + j] += ai * bj
        return out

    def poly_inv(a, n):
        out = np.zeros(n)
        out[0] = 1.0 / a[0]
        for k in range(1, n):
            acc = sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1)
                                                       + 1))
            out[k] = -acc / a[0]
        return out

    for trial in range(100):
        H, dH = rng.uniform(-1.0, 1.0, size=2)
        K, dK = rng.uniform(-1.5, 1.5, size=2)
        h = rng.uniform(0.005, 0.05)
        x, w = thickness_rule("gauss", 24, h)
        b = 1.0 - 2.0 * H * x + K * x * x
        bm = 1.0 - 2.0 * (H + dH) * x + (K + dK) * x * x
        if b.min() < 0.5 or bm.min() < 0.5:
            continue

        # thickness moments of 1/b: the table truncates the 1/b series at
        # total degree four, so allow the size of the first dropped term
        table = trace_moment_coefficients(np.array(H), np.array(K), h)
        for p in range(5):
            dense = float((w * x ** p / b).sum())
            gap = abs(float(table[p]) - dense)
            if not gap <= 1e-8 * abs(dense) + 20.0 * h ** 7:
                failures.append("trial %d alpha_%d: gap %.3e" % (trial, p,
                                                                 gap))

        # quartic Taylor coefficients of (b_m/b)^2 - 1 against an
        # independent power-series long division
        series = det_square_series(H, K, dH, dK)
        pb = np.array([1.0, -2.0 * H, K])
        pm = np.array([1.0, -2.0 * (H + dH), K + dK])
        ratio = poly_mul(poly_mul(pm, pm, 5), poly_inv(poly_mul(pb, pb, 5),
                                                       5), 5)
        for p in range(1, 5):
            want = ratio[p]
            if not abs(series[p] - want) <= 1e-8 * max(1.0, abs(want)):
                failures.append("trial %d det2 c_%d: %.3e vs %.3e"
                                % (trial, p, series[p], want))

        # and the integrated bracket against dense quadrature
        dense = float((w * bm * bm / b).sum())
        closed = det_square_bracket(H, K, dH, dK, h)
        if not abs(closed - dense) <= 1e-8 * (abs(dense) + h):
            failures.append("trial %d det2 bracket: %.3e vs %.3e"
                            % (trial, closed, dense))
    _verdict(8, "moment and determinant-square coefficient tables match "
                "independent dense-quadrature re-derivations", failures)
