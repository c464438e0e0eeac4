import numpy as np
import pytest

from shellreduce.admissibility import admissibility_report
from shellreduce.errors import ConfigError
from shellreduce.geometry import face_factors, form22, make_chart, pack22
from shellreduce.grids import Grid
from shellreduce.oracle3d import _frame, _inverse_frame
from shellreduce.reference import build_reference

RNG = np.random.default_rng(20240517)


def _packed(kernel):
    """A kernel's component planes packed as (n1, n2, 2, 2)."""
    return pack22(kernel["11"], kernel["12"], kernel["21"], kernel["22"])


def _ref(kind, h=0.05, n=11, **params):
    chart = make_chart(kind, **params)
    grid = Grid.uniform(chart.domain, n, n)
    return build_reference(chart, grid, h)


def test_face_factors_are_thickness_jacobian_at_faces():
    H = RNG.normal(size=7)
    K = RNG.normal(size=7)
    h = 0.23

    def b(x3):
        return 1.0 - 2.0 * H * x3 + K * x3 * x3

    a_plus, a_minus = face_factors(H, K, h)
    assert np.abs(a_plus - b(+h / 2)).max() < 1e-15
    assert np.abs(a_minus - b(-h / 2)).max() < 1e-15


def test_sphere_kernels_collapse_to_multiples_of_the_first():
    # on an umbilic surface L = -Id/R, so the first- and second-order
    # curvature kernels are exact scalar multiples of inv(I)
    R = 1.4
    ref = _ref("sphere-cap", radius=R, extent=0.6)
    H = ref.mean[..., None, None]
    K = ref.gauss[..., None, None]
    kernel0, kernel1, kernel2 = (_packed(ref.kernel0), _packed(ref.kernel1),
                                 _packed(ref.kernel2))
    assert np.abs(kernel1 - 2.0 * H * kernel0).max() < 1e-12
    assert np.abs(kernel2 - K * kernel0).max() < 1e-12


def test_second_kernel_is_positive_on_gram_arguments():
    # contracting the quadratic kernel with any Gram matrix E^T E gives
    # |I^{-1/2} L E^T|_F^2 >= 0; the factored form is the convexity engine
    ref = _ref("graph", poly={(2, 0): 0.4, (1, 2): -0.3}, n=9)
    for _ in range(25):
        E = RNG.normal(size=(3, 2))
        gram = E.T @ E
        vals = np.einsum("ij,...ij->...", gram, _packed(ref.kernel2))
        assert vals.min() > -1e-15


def test_curvature_bound_on_sphere_and_cylinder():
    R = 1.25
    ref = _ref("sphere-cap", radius=R, extent=0.6)
    # |I^{1/2} L^T I^{-1/2}|_F = |L|_F = sqrt(2)/R for L = -Id/R
    assert abs(ref.curvature_bound - 2.0 * np.sqrt(2.0) / R) < 1e-12
    ref = _ref("cylinder-patch", radius=R, height=1.0, arc=1.0)
    # single curved direction: |L|_F = 1/R
    assert abs(ref.curvature_bound - 2.0 / R) < 1e-12
    assert abs(ref.kappa_sup - 1.0 / R) < 1e-12


def test_check_thickness_verdicts():
    # the thickness gate is h < h_geom = 2 / sup|kappa|
    thin = _ref("sphere-cap", radius=1.0, extent=0.6, h=0.05)
    assert abs(thin.h * thin.kappa_sup - 0.05) < 1e-8
    assert abs(admissibility_report(thin, thin.h).h_geom - 2.0) < 1e-6
    thick = _ref("sphere-cap", radius=1.0, extent=0.6, h=2.5)
    assert thick.h * thick.kappa_sup > 2.0
    assert thick.h > admissibility_report(thick, thick.h).h_geom
    # a passing margin guarantees positive face factors ...
    assert min(f.min() for f in face_factors(thin.mean, thin.gauss,
                                             thin.h)) > 0.0
    # ... a failing one means b(x3) = 1 - 2 H x3 + K x3^2 dips to zero
    # somewhere through the thickness (possibly in the interior, not at a
    # face: on the unit sphere with h = 2.5 both faces stay positive)
    x3s = np.clip(thick.mean / thick.gauss, -thick.h / 2, thick.h / 2)
    b_min = 1.0 - 2.0 * thick.mean * x3s + thick.gauss * x3s ** 2
    assert b_min.min() <= 1e-12
    assert min(f.min() for f in face_factors(thick.mean, thick.gauss,
                                             thick.h)) > 0.0


def test_build_reference_rejects_nonpositive_thickness():
    chart = make_chart("plate")
    grid = Grid.uniform(chart.domain, 9, 9)
    with pytest.raises(ConfigError):
        build_reference(chart, grid, 0.0)
    with pytest.raises(ConfigError):
        build_reference(chart, grid, -0.1)


def _einsum_kernels(ref):
    """kernel0, kernel1, kernel2 and the curvature bound by their
    definitions: LAPACK inverses, the symmetric square root of I from a
    per-node eigendecomposition, and einsum contractions."""
    first = form22(ref.bundle, "I")
    inv_first = np.linalg.inv(first)
    vals, vecs = np.linalg.eigh(first)
    sqrt_first = np.einsum("...ik,...k,...jk->...ij", vecs, np.sqrt(vals),
                           vecs)
    inv_sqrt_first = np.linalg.inv(sqrt_first)
    L = form22(ref.bundle, "L")
    Lt = np.swapaxes(L, -1, -2)
    kernel1 = (np.einsum("...ij,...jk->...ik", L, inv_first)
               + np.einsum("...ij,...jk->...ik", inv_first, L))
    kernel2 = np.einsum("...ij,...jk,...kl->...il", Lt, inv_first, L)
    bend = np.einsum("...ij,...jk,...kl->...il", sqrt_first, Lt,
                     inv_sqrt_first)
    bound = 2.0 * float(np.sqrt(np.einsum("...ij,...ij->...", bend,
                                          bend)).max())
    return inv_first, kernel1, kernel2, bound


def _nodal_graph_ref(n=13):
    # a reference built from nodal positions, differentiated by stencils
    chart = make_chart("graph", poly={(2, 0): 0.3, (1, 1): -0.2},
                       bump=(0.05, 2, 1))
    grid = Grid.uniform(chart.domain, n, n)
    return build_reference(chart.positions_on(grid), grid, 0.05)


@pytest.mark.parametrize("kind, params", [
    ("sphere-cap", {"radius": 1.3, "extent": 0.7}),
    ("cylinder-patch", {"radius": 0.8, "arc": 1.2}),
    ("graph", {"poly": {(2, 0): 0.3, (1, 1): -0.2, (0, 3): 0.1},
               "bump": (0.05, 1, 2)}),
    ("nodal", {}),
])
def test_kernels_match_the_einsum_contractions(kind, params):
    # the closed forms (adjugate inverse, component-plane products and
    # C from <I, kernel2>) against the slow oracle
    ref = _nodal_graph_ref() if kind == "nodal" else _ref(kind, n=13,
                                                           **params)
    *kernels, bound = _einsum_kernels(ref)
    fast = (_packed(ref.kernel0), _packed(ref.kernel1), _packed(ref.kernel2))
    for got, slow in zip(fast, kernels):
        assert np.abs(got - slow).max() <= 1e-14 * np.abs(slow).max()
    assert abs(ref.curvature_bound - bound) <= 1e-14 * bound
    assert bound > 0.0


@pytest.mark.parametrize("kind, params", [
    ("sphere-cap", {"radius": 1.3, "extent": 0.7}),
    ("graph", {"poly": {(2, 0): 0.3, (1, 1): -0.2, (0, 3): 0.1},
               "bump": (0.05, 1, 2)}),
    ("nodal", {}),
])
def test_closed_form_frame_inverse_is_the_inverse(kind, params):
    ref = _nodal_graph_ref() if kind == "nodal" else _ref(kind, n=13,
                                                           **params)
    frame = _frame(ref.d1, ref.d2, ref.normal)
    for product in (np.matmul(_inverse_frame(ref), frame),
                    np.matmul(frame, _inverse_frame(ref))):
        assert np.abs(product - np.eye(3)).max() <= 1e-14


def test_plate_kernels_vanish():
    ref = _ref("plate")
    assert not _packed(ref.kernel1).any() and not _packed(ref.kernel2).any()
    assert ref.curvature_bound == 0.0


@pytest.mark.parametrize("h", [0.0, -0.01, float("nan"), float("inf")])
def test_build_reference_rejects_a_bad_thickness(h):
    with pytest.raises(ConfigError, match="h = %g" % h):
        _ref("plate", h=h)
