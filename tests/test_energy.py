from types import SimpleNamespace

import numpy as np
import pytest

from shellreduce.energy import (_FORM_KEYS, CONSTANT_MODES, MODELS,
                                MaterialParams, ReducedEnergy,
                                constant_density, density_partials,
                                energy_density_fields,
                                orientation_violations,
                                shell_coefficient_table, shell_form_weights,
                                total_energy, w_curv_log, w_shell)
from shellreduce.errors import (ConfigError, OrientationViolation,
                                ThicknessError)
from shellreduce.geometry import (TrigDisplacement, deformed_state,
                                  displace_chart, face_factors, form22,
                                  make_chart, pack22)
from shellreduce.grids import Grid, area_weights
from shellreduce.loads import LoadSpec
from shellreduce.reference import build_reference

RNG = np.random.default_rng(41)

CHARTS = {
    "plate": dict(),
    "sphere-cap": dict(radius=1.0, extent=0.6),
    "cylinder-patch": dict(radius=1.0, height=1.0, arc=1.0),
    "graph": dict(poly={(2, 0): 0.2, (1, 1): -0.15}, bump=(0.05, 1, 2)),
}


def _setup(kind, h=0.05, n=11, mu=1.0, lam=1.0, **params):
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, n, n)
    ref = build_reference(chart, grid, h)
    mat = MaterialParams(mu=mu, lam=lam, h=h)
    return chart, grid, ref, mat


def _packed_kernels(ref):
    """The three kernels' component planes packed as (n1, n2, 2, 2)."""
    return [pack22(k["11"], k["12"], k["21"], k["22"])
            for k in (ref.kernel0, ref.kernel1, ref.kernel2)]


def _fields(energy, bundle):
    """The run's density fields of ``bundle`` at its own face factors."""
    faces = face_factors(bundle["H"], bundle["K"], energy.mat.h)
    return energy_density_fields(bundle, energy, faces)


@pytest.mark.parametrize("kind", sorted(CHARTS))
@pytest.mark.parametrize("model", MODELS)
def test_natural_state_density_vanishes_pointwise(kind, model):
    # with the energy calibrated so the undeformed shell is stress-free,
    # the four densities cancel node by node, not just in the integral.
    # Exact cancellation needs the shape operator to commute with the
    # metric (plate: L = 0; sphere: L is scalar; cylinder: both diagonal
    # in the chart) -- the three-kernel contraction table regroups the
    # thickness expansion under that assumption.  The graph chart breaks
    # it, leaving an O(h^3) grouping residual (see the scaling test).
    chart, grid, ref, mat = _setup(kind, mu=1.3, lam=0.7, **CHARTS[kind])
    state = deformed_state(chart, grid, mat.h)
    fields = _fields(ReducedEnergy(ref, mat, model, "oracle"), state.bundle)
    resid = sum(fields.values())
    if kind == "graph":
        assert 1e-9 < np.abs(resid).max() < mat.mu * mat.h ** 3
    else:
        assert np.abs(resid).max() < 5e-15, (kind, model)
        out = total_energy(state, ref, mat, model)
        assert abs(out.total) < 1e-14


def test_noncommuting_chart_natural_residual_scales_like_h_cubed():
    # where [I, L] != 0 the regrouped contraction table deviates from the
    # exact thickness integral at cubic order; the deviation must shrink
    # like h^3, not linger at a fixed size
    chart = make_chart("graph", **CHARTS["graph"])
    grid = Grid.uniform(chart.domain, 11, 11)
    for model in MODELS:
        resid = []
        for h in (0.08, 0.04):
            ref = build_reference(chart, grid, h)
            mat = MaterialParams(mu=1.0, lam=1.0, h=h)
            state = deformed_state(chart, grid, h)
            fields = _fields(ReducedEnergy(ref, mat, model), state.bundle)
            resid.append(np.abs(sum(fields.values())).max())
        order = np.log2(resid[0] / resid[1])
        assert 2.8 < order < 3.2, model


def test_truncated_and_full_shell_densities_agree_only_on_umbilic_charts():
    # a sphere is umbilic: the fifth-order blocks dropped by the truncated
    # density are proportional to (L - H Id) and cancel in the contraction,
    # so both shell densities coincide; a cylinder keeps the difference
    amp = 0.04
    for kind, params, same in (("sphere-cap", CHARTS["sphere-cap"], True),
                               ("cylinder-patch", CHARTS["cylinder-patch"],
                                False)):
        chart, grid, ref, mat = _setup(kind, **params)
        disp = TrigDisplacement.standard(chart.domain, amp)
        state = deformed_state(displace_chart(chart, disp), grid, mat.h)
        w_full = w_shell(state.bundle, ReducedEnergy(ref, mat, 1))
        w_trunc = w_shell(state.bundle,
                          ReducedEnergy(ref, mat, 2, constants="oracle"))
        gap = np.abs(w_full - w_trunc).max()
        if same:
            assert gap < 1e-15, kind
        else:
            assert gap > 1e-10, kind


def test_coefficient_table_truncation_drops_exactly_the_fifth_order_blocks():
    H = RNG.normal(size=8)
    K = RNG.normal(size=8)
    h = 0.31
    h5 = h ** 5 / 80.0
    full = shell_coefficient_table(H, K, h, full=True)
    trunc = shell_coefficient_table(H, K, h, full=False)
    expected_gap = {
        (0, "I"): h5 * K * K,
        (0, "II"): np.zeros_like(H),
        (0, "III"): -h5 * K,
        (1, "I"): -2.0 * h5 * H * K,
        (1, "II"): -2.0 * h5 * K,
        (2, "I"): h5 * (4.0 * H * H - K),
        (2, "II"): 4.0 * h5 * H,
        (2, "III"): h5,
    }
    for key, gap in expected_gap.items():
        assert np.abs((full[key] - trunc[key]) - gap).max() < 1e-16, key
    assert sorted(full) == sorted(trunc) == sorted(expected_gap)


def _deformed_bundle():
    # a graph chart: neither umbilic nor developable, so no shell block
    # cancels
    chart, grid, ref, mat = _setup("graph", lam=1.7, **CHARTS["graph"])
    disp = TrigDisplacement.standard(chart.domain, 0.03)
    state = deformed_state(displace_chart(chart, disp), grid, mat.h)
    return state.bundle, ref, mat


def _central_difference(term, bundle, key, step):
    up, down = dict(bundle), dict(bundle)
    up[key] = bundle[key] + step
    down[key] = bundle[key] - step
    return (term(up) - term(down)) / (2.0 * step)


@pytest.mark.parametrize("constants", CONSTANT_MODES)
@pytest.mark.parametrize("model", MODELS)
def test_density_partials_match_central_differences(model, constants):
    # log plus Simpson det^2 (models 1, 2) or Taylor det^2 (model 3), under
    # both calibrations; the shell, standalone and constant terms do not
    # move with a, H or K
    bundle, ref, mat = _deformed_bundle()
    energy = ReducedEnergy(ref, mat, model, constants)
    faces = face_factors(bundle["H"], bundle["K"], mat.h)
    det2 = energy_density_fields(bundle, energy, faces)["curv_det2"]
    partials = density_partials(bundle, energy, faces, det2)

    def volumetric(b):
        fields = _fields(energy, b)
        return fields["curv_log"] + fields["curv_det2"]

    def rest(b):
        fields = _fields(energy, b)
        return fields["shell"] + fields["constant"]

    # the K-partial is ~1e-5 of the density, so K takes a larger step
    for key, part, step in zip("aHK", partials, (1e-5, 1e-4, 1e-3)):
        fd = _central_difference(volumetric, bundle, key, step)
        assert np.abs(part - fd).max() <= 1e-8 * np.abs(fd).max(), key
        assert np.all(_central_difference(rest, bundle, key, step) == 0.0)


@pytest.mark.parametrize("constants", CONSTANT_MODES)
@pytest.mark.parametrize("model", MODELS)
def test_shell_form_weights_are_the_shell_density_partials(model,
                                                           constants):
    bundle, ref, mat = _deformed_bundle()
    weights = shell_form_weights(ref, mat, model)
    assert sorted(weights) == sorted(
        ["I11", "I12", "I22", "II11", "II12", "II21", "II22",
         "III11", "III12", "III22"])

    energy = ReducedEnergy(ref, mat, model, constants)

    def shell(b):
        return _fields(energy, b)["shell"]

    scale = max(np.abs(weight).max() for weight in weights.values())
    for key, weight in weights.items():
        # the shell density is linear in the forms: only round-off remains
        fd = _central_difference(shell, bundle, key, 1e-3)
        assert np.abs(weight - fd).max() <= 1e-10 * scale, key


@pytest.mark.parametrize("constants", CONSTANT_MODES)
@pytest.mark.parametrize("model", MODELS)
def test_shell_density_matches_the_kernel_contractions(model, constants):
    # an independent evaluation of the thickness expansion: the stacked
    # forms (II negated, see energy._FORM_KEYS) contracted against each
    # kernel by einsum, weighted by the coefficient table; the weights are
    # not used
    bundle, ref, mat = _deformed_bundle()
    table = shell_coefficient_table(ref.mean, ref.gauss, mat.h, model != 2)
    kernels = _packed_kernels(ref)
    forms = {"I": form22(bundle, "I"), "II": -form22(bundle, "II"),
             "III": form22(bundle, "III")}
    denom = 6.0 if (model, constants) == (2, "paper") else 12.0
    acc = mat.h + mat.h ** 3 * ref.gauss / denom
    for (p, name), coef in table.items():
        acc = acc + coef * np.einsum("...ij,...ij->...", forms[name],
                                     kernels[p])
    want = 0.5 * mat.mu * acc
    got = w_shell(bundle, ReducedEnergy(ref, mat, model, constants))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("constants", CONSTANT_MODES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", sorted(CHARTS))
def test_form_weights_on_planes_match_the_packed_kernels(kind, model,
                                                         constants):
    # the weights read from the kernels' planes against the same sums read
    # entry by entry from the kernels packed as (n1, n2, 2, 2), bit for bit
    # and sign bit for sign bit (the plate's kernels are zero)
    _, _, ref, mat = _setup(kind, mu=1.3, lam=0.7, **CHARTS[kind])
    kernels = _packed_kernels(ref)
    want = {}
    table = shell_coefficient_table(ref.mean, ref.gauss, mat.h, model != 2)
    for (p, name), coef in table.items():
        sign, keys = _FORM_KEYS[name]
        for ij, key in keys.items():
            entry = kernels[p][..., int(ij[0]) - 1, int(ij[1]) - 1]
            term = (0.5 * mat.mu * sign) * coef * entry
            want[key] = want.get(key, 0.0) + term
    got = ReducedEnergy(ref, mat, model, constants).form_weights
    assert got.keys() == want.keys()
    for key, weight in got.items():
        assert np.array_equal(weight, want[key]), key
        assert np.array_equal(np.signbit(weight), np.signbit(want[key])), key


def test_constant_modes_differ_and_validate():
    chart, grid, ref, mat = _setup("sphere-cap", **CHARTS["sphere-cap"])
    # the log term vanishes identically at the natural state; displace
    disp = TrigDisplacement.standard(chart.domain, 0.03)
    state = deformed_state(displace_chart(chart, disp), grid, mat.h)
    # published log coefficient -(lam + 2 mu)/4 vs calibrated -(mu + lam/2)
    faces = face_factors(state.mean, state.gauss, mat.h)
    w_o = w_curv_log(state.bundle, ReducedEnergy(ref, mat, 1, "oracle"),
                     faces)
    w_p = w_curv_log(state.bundle, ReducedEnergy(ref, mat, 1, "paper"),
                     faces)
    ratio = (mat.lam + 2.0 * mat.mu) / 4.0 / (mat.mu + 0.5 * mat.lam)
    mask = np.abs(w_o) > 1e-18
    assert np.abs(w_p[mask] / w_o[mask] - ratio).max() < 1e-12
    # published constant is thickness-free, calibrated one carries h + h^3K/12
    c_o = constant_density(ref, mat, constants="oracle")
    c_p = constant_density(ref, mat, constants="paper")
    base = -(1.5 * mat.mu + 0.25 * mat.lam)
    assert np.abs(c_p - base).max() == 0.0
    assert np.abs(c_o - base * (mat.h + mat.h ** 3 * ref.gauss / 12.0)).max() \
        == 0.0
    with pytest.raises(ConfigError, match="constants mode"):
        total_energy(state, ref, mat, 1, constants="exact")
    # under the published calibration the natural state is NOT stress-free
    natural = deformed_state(chart, grid, mat.h)
    fields = _fields(ReducedEnergy(ref, mat, 1, "paper"), natural.bundle)
    assert np.abs(sum(fields.values())).max() > 1e-3


def test_breakdown_bookkeeping_and_positivity_near_natural_state():
    chart, grid, ref, mat = _setup("sphere-cap", **CHARTS["sphere-cap"])
    disp = TrigDisplacement.standard(chart.domain, 0.02)
    state = deformed_state(displace_chart(chart, disp), grid, mat.h)
    for model in MODELS:
        out = total_energy(state, ref, mat, model)
        assert out.load_term == 0.0
        assert out.total == out.internal - out.load_term
        # internal is the node-by-node quadrature of the summed densities
        # (the minimizer's order), so the separately integrated terms add
        # up to it only to their own round-off
        fields = _fields(ReducedEnergy(ref, mat, model), state.bundle)
        density = fields["shell"] + fields["curv_log"] + fields["curv_det2"]
        w2d = area_weights(grid) * ref.area
        assert out.internal == float(np.sum(w2d * (density
                                                   + fields["constant"])))
        terms = (out.shell_term, out.curv_log_term, out.curv_det2_term,
                 out.constant_term)
        assert abs(out.internal - sum(terms)) \
            <= 4.0 * np.finfo(float).eps * max(abs(t) for t in terms)
        # the natural state minimizes the calibrated energy
        assert out.total > 0.0


def test_material_params_validation():
    with pytest.raises(ConfigError):
        MaterialParams(mu=0.0, lam=1.0, h=0.1)
    with pytest.raises(ConfigError):
        MaterialParams(mu=1.0, lam=-1.0, h=0.1)
    with pytest.raises(ConfigError):
        MaterialParams(mu=1.0, lam=1.0, h=0.0)
    inf, nan = float("inf"), float("nan")
    # inside (1e-12, 1e12) the h^5 and h^7 products stay normal floats
    for mu, lam, h in ((inf, 1.0, 0.1), (1.0, inf, 0.1), (1.0, 1.0, inf),
                       (nan, 1.0, 0.1), (1e300, 1.0, 0.1), (1.0, 1.0, 1e-300),
                       (1.0, 1.0, 1e12)):
        with pytest.raises(ConfigError):
            MaterialParams(mu=mu, lam=lam, h=h)


def test_reference_of_another_thickness_gives_identical_energies():
    # the material carries the only thickness: a reference built at another
    # h enters with the face factors of mat.h, so every term is bit-identical
    chart, grid, own, mat = _setup("sphere-cap", h=0.07,
                                   **CHARTS["sphere-cap"])
    other = build_reference(chart, grid, 0.05)
    pos = chart.positions_on(grid) + 1e-3 * RNG.normal(size=(11, 11, 3))
    state = deformed_state(pos, grid, mat.h)
    loads = LoadSpec(face_plus=(0.0, 0.002, 0.001), gamma_t=("top",))
    for model in MODELS:
        for constants in CONSTANT_MODES:
            want = total_energy(state, own, mat, model, constants, loads)
            got = total_energy(state, other, mat, model, constants, loads)
            for key in ("shell_term", "curv_log_term", "curv_det2_term",
                        "constant_term", "internal", "load_term"):
                assert getattr(got, key) == getattr(want, key), key
        natural = deformed_state(chart, grid, mat.h)
        assert abs(total_energy(natural, other, mat, model).internal) < 1e-10


def test_run_densities_and_partials_ignore_the_reference_thickness():
    # the densities read the run, which keeps the caller's reference and
    # builds its face factors at mat.h: mixing the face factors of a
    # reference built at h = 0.2 with mat.h = 0.05 integrates to 1.7608e-3
    # against 1.3933e-3 here
    chart, grid, own, mat = _setup("sphere-cap", n=17,
                                   **CHARTS["sphere-cap"])
    other = build_reference(chart, grid, 0.2)
    disp = TrigDisplacement.standard(chart.domain, 0.05)
    bundle = deformed_state(displace_chart(chart, disp), grid, mat.h).bundle
    faces = face_factors(bundle["H"], bundle["K"], mat.h)
    for model in MODELS:
        for constants in CONSTANT_MODES:
            got = []
            for ref in (own, other):
                energy = ReducedEnergy(ref, mat, model, constants)
                assert energy.ref is ref
                fields = energy_density_fields(bundle, energy, faces)
                partials = density_partials(bundle, energy, faces,
                                            fields["curv_det2"])
                got.append([np.asarray(v).tobytes() for v in
                            list(fields.values()) + list(partials)])
            assert got[0] == got[1], (model, constants)


def test_folded_state_raises_orientation_violation_with_node_index():
    chart, grid, ref, mat = _setup("sphere-cap", n=11,
                                   **CHARTS["sphere-cap"])
    pos = chart.positions_on(grid).copy()
    pos[5, 5, 2] -= 0.5
    state = deformed_state(pos, grid, mat.h)
    with pytest.raises(OrientationViolation) as err:
        total_energy(state, ref, mat, model=1)
    msg = str(err.value)
    assert "grid node" in msg and "(" in msg


def test_orientation_violations_locate_the_worst_defect():
    rng = np.random.default_rng(5)
    ref = SimpleNamespace(area=rng.uniform(0.5, 1.5, (6, 5)))
    bundle = {"a": ref.area * rng.uniform(0.9, 1.1, (6, 5))}
    plus, minus = rng.uniform(0.5, 1.0, (2, 6, 5))
    eps = 1e-3
    assert orientation_violations(bundle, ref, (plus, minus), eps) is None
    # a violation in the last check only
    low = minus.copy()
    low[4, 1] = 0.5 * eps
    assert orientation_violations(bundle, ref, (plus, low), eps) == (
        "face factor A_m^-", (4, 1), 0.5 * eps)
    # a NaN factor is a violation at the first NaN node, in grid order
    nan = plus.copy()
    nan[3, 0] = nan[1, 4] = np.nan
    name, idx, value = orientation_violations(bundle, ref, (nan, minus),
                                              eps)
    assert (name, idx) == ("face factor A_m^+", (1, 4)) and value != value


def test_overthick_reference_raises_thickness_error():
    # a face factor must actually change sign; K = 0 makes A^- = 1 + h H
    # linear in h, so a cylinder at h > 2 R trips the guard (on a sphere
    # A^- = (1 - h/(2R))^2 never goes negative)
    chart, grid, ref, _ = _setup("cylinder-patch", h=2.5,
                                 **CHARTS["cylinder-patch"])
    mat = MaterialParams(mu=1.0, lam=1.0, h=2.5)
    state = deformed_state(chart, grid, mat.h)
    with pytest.raises(ThicknessError):
        total_energy(state, ref, mat, 1)


def test_overthick_sphere_raises_thickness_error_with_positive_faces():
    # on the unit sphere at h = 2.5 both face factors stay positive while
    # b(x3) vanishes inside the slab (h sup|kappa| = 2.5 >= 2)
    chart, grid, ref, mat = _setup("sphere-cap", h=2.5,
                                   **CHARTS["sphere-cap"])
    assert min(f.min() for f in face_factors(ref.mean, ref.gauss, mat.h)) > 0.0
    state = deformed_state(chart, grid, mat.h)
    with pytest.raises(ThicknessError, match="h sup\\|kappa\\| = 2.500"):
        total_energy(state, ref, mat, 1)


def test_model_and_mode_lists_are_exposed():
    assert MODELS == (1, 2, 3)
    assert set(CONSTANT_MODES) == {"oracle", "paper"}
    chart, grid, ref, mat = _setup("plate", n=9)
    state = deformed_state(chart, grid, mat.h)
    with pytest.raises(ConfigError, match="model must be one of"):
        total_energy(state, ref, mat, model=4)
