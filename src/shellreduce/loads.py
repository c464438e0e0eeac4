"""Through-thickness load reduction and the external load potential.

A three-dimensional load description (body force over the slab, tractions
on the two faces, tractions on the lateral boundary strip) collapses onto
the midsurface as

    force/area      f = int f~ dx3 + t~(+) + t~(-)
    moment/area     c = int x3 f~ dx3 + (h/2)(t~(+) - t~(-))
    force/length    t = int t~ dx3              (per traction edge)
    moment/length   d = int x3 t~ dx3

and the reduced potential, linear in the displacement v = m - y0 and in the
normal deviation n_m - n_{y0} jointly, is

    L(m, n_m) = int_w <f, v> dx' + int_w <c, n_m - n_0> dx'
              + int_{edges} (<t, v> + <d, n_m - n_0>) ds .

x3-profiles are polynomials with vector coefficients (constant vectors or
per-node fields), integrated term by term from the closed-form monomial
moments.
Boundary integrals default to the reference-surface arclength measure
ds = |d_tau y0| dtau; the parameter measure (plain dtau) is a switch,
recorded in the resultants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import MAX_COORDINATE, require_thickness
from .grids import EDGES, area_weights, edge_index, edge_weights

BOUNDARY_MEASURES = ("surface", "parameter")


def _vector_profile(profile, name):
    """Normalize {power: 3-vector or (n1,n2,3) field} load profiles."""
    out = {}
    for key, vec in (profile or {}).items():
        power = int(key)
        if power < 0:
            raise ConfigError("%s: negative x3 power %d" % (name, power))
        out[power] = _vector_or_none(vec, "%s[%d]" % (name, power))
    return out


def _vector_or_none(vec, name):
    if vec is None:
        return None
    arr = np.asarray(vec, dtype=float)
    if arr.shape[-1] != 3:
        raise ConfigError("%s must end in 3 components, got shape %s"
                          % (name, arr.shape))
    return arr


@dataclass(frozen=True)
class LoadSpec:
    """Three-dimensional load description awaiting thickness reduction.

    body / lateral values are x3-polynomial profiles ``{power: vector}``;
    face_plus / face_minus are tractions on the x3 = +h/2 and -h/2 faces.
    ``gamma_t`` lists the traction edges of the parameter rectangle; the
    complement is the clamped part and must be non-empty.
    """

    body: dict = field(default_factory=dict)
    face_plus: object = None
    face_minus: object = None
    lateral: dict = field(default_factory=dict)
    gamma_t: tuple = ()
    boundary_measure: str = "surface"

    def __post_init__(self):
        object.__setattr__(self, "body", _vector_profile(self.body, "body"))
        object.__setattr__(self, "face_plus",
                           _vector_or_none(self.face_plus, "face_plus"))
        object.__setattr__(self, "face_minus",
                           _vector_or_none(self.face_minus, "face_minus"))
        lateral = {}
        for edge, profile in (self.lateral or {}).items():
            if edge not in EDGES:
                raise ConfigError("unknown edge %r (need one of %s)"
                                  % (edge, ", ".join(EDGES)))
            lateral[edge] = _vector_profile(profile, "lateral[%s]" % edge)
        object.__setattr__(self, "lateral", lateral)
        gamma_t = tuple(self.gamma_t)
        for edge in gamma_t:
            if edge not in EDGES:
                raise ConfigError("unknown traction edge %r" % (edge,))
        if len(set(EDGES) - set(gamma_t)) == 0:
            raise ConfigError("the clamped boundary part must be non-empty")
        object.__setattr__(self, "gamma_t", gamma_t)
        if self.boundary_measure not in BOUNDARY_MEASURES:
            raise ConfigError("boundary_measure must be one of %s"
                              % (BOUNDARY_MEASURES,))
        for edge in self.lateral:
            if edge not in gamma_t:
                raise ConfigError(
                    "lateral traction on %r but that edge is not in gamma_t"
                    % (edge,))


@dataclass(frozen=True)
class LoadResultants:
    """Midsurface force/moment densities produced by reduce_loads."""

    h: float
    force_area: object          # 3-vector or (n1, n2, 3) field, or None
    moment_area: object
    force_edge: dict            # edge -> 3-vector / field
    moment_edge: dict
    gamma_t: tuple
    boundary_measure: str


def _monomial_moment(power, h):
    """int_{-h/2}^{h/2} x3^power dx3: 0 for odd powers, else
    2 (h/2)^(power+1) / (power+1)."""
    if power % 2:
        return 0.0
    return 2.0 * (0.5 * h) ** (power + 1) / (power + 1)


def thickness_moments(profile, h):
    """(zeroth, first) x3-moments of a polynomial vector profile, exact to
    the rounding of each monomial moment; (None, None) for an empty
    profile."""
    if not profile:
        return None, None
    zeroth = None
    first = None
    for power, coef in profile.items():
        m0 = coef * _monomial_moment(power, h)
        m1 = coef * _monomial_moment(power + 1, h)
        zeroth = m0 if zeroth is None else zeroth + m0
        first = m1 if first is None else first + m1
    return zeroth, first


@np.errstate(over="ignore", invalid="ignore")
def reduce_loads(spec, h):
    """Collapse a LoadSpec onto the midsurface for thickness ``h``.  A
    resultant that is not finite (say two 1e308 face tractions, whose sum
    overflows) or reaches ``MAX_COORDINATE`` in magnitude (the solver's
    inner products would overflow) is a ConfigError naming it."""
    require_thickness(h)
    force_area, moment_area = thickness_moments(spec.body, h)
    for face, side in ((spec.face_plus, 0.5), (spec.face_minus, -0.5)):
        if face is not None:
            force_area = face if force_area is None else force_area + face
            bump = (side * h) * face
            moment_area = bump if moment_area is None else moment_area + bump
    force_edge = {}
    moment_edge = {}
    for edge, profile in spec.lateral.items():
        f, m = thickness_moments(profile, h)
        if f is not None:
            force_edge[edge] = f
        if m is not None:
            moment_edge[edge] = m
    named = [("force_area", force_area), ("moment_area", moment_area)]
    named += [("force_edge." + e, v) for e, v in force_edge.items()]
    named += [("moment_edge." + e, v) for e, v in moment_edge.items()]
    for name, value in named:
        if value is not None and not np.all(np.abs(value) < MAX_COORDINATE):
            raise ConfigError("reduced load resultant %s is not finite or "
                              "reaches %g at h = %g"
                              % (name, MAX_COORDINATE, h))
    return LoadResultants(h=float(h), force_area=force_area,
                          moment_area=moment_area, force_edge=force_edge,
                          moment_edge=moment_edge, gamma_t=spec.gamma_t,
                          boundary_measure=spec.boundary_measure)


def edge_arclength(ref, edge):
    """|d_tau y0| along an edge's running coordinate, as a full-grid field."""
    axis, _ = edge_index(edge, ref.grid.n1, ref.grid.n2)
    # frozen axis 0 => runs along x2, |d2 y0|^2 = I22
    return np.sqrt(ref.bundle["I22" if axis == 0 else "I11"])


def _edge_measure(ref, edge, measure):
    w = edge_weights(ref.grid, edge)
    if measure == "surface":
        return w * edge_arclength(ref, edge)
    return w


@dataclass(frozen=True)
class LoadCovector:
    """The load potential as two merged nodal fields on the reference grid.

    ``force`` holds the quadrature-weighted force resultants (area plus
    traction edges) and ``moment`` the weighted moment resultants, so that

        L(m, n_m) = sum <force, m - y0> + sum <moment, n_m - n_{y0}> .

    ``force`` is also the constant nodal gradient of L in the positions.
    A field that vanishes identically is None.
    """

    force: object               # (n1, n2, 3) or None
    moment: object              # (n1, n2, 3) or None
    ref: object

    def potential(self, positions, normals):
        """L(m, n_m) for (n1, n2, 3) positions and normals."""
        acc = 0.0
        for k in range(3):
            if self.force is not None:
                v_k = positions[..., k] - self.ref.positions[..., k]
                acc = acc + (self.force[..., k] * v_k).sum()
            if self.moment is not None:
                dn_k = normals[..., k] - self.ref.normal[..., k]
                acc = acc + (self.moment[..., k] * dn_k).sum()
        return acc


def load_covector(res, ref):
    """Assemble the LoadCovector of resultants ``res`` (None: no load)."""
    shape = (ref.grid.n1, ref.grid.n2, 3)
    force = np.zeros(shape)
    moment = np.zeros(shape)
    if res is not None:
        w_area = area_weights(ref.grid)[..., None]
        if res.force_area is not None:
            force += w_area * np.broadcast_to(res.force_area, shape)
        if res.moment_area is not None:
            moment += w_area * np.broadcast_to(res.moment_area, shape)
        for edge in res.gamma_t:
            f_edge = res.force_edge.get(edge)
            m_edge = res.moment_edge.get(edge)
            if f_edge is None and m_edge is None:
                continue
            w_edge = _edge_measure(ref, edge, res.boundary_measure)[..., None]
            if f_edge is not None:
                force += w_edge * np.broadcast_to(f_edge, shape)
            if m_edge is not None:
                moment += w_edge * np.broadcast_to(m_edge, shape)
    return LoadCovector(force=force if np.any(force) else None,
                        moment=moment if np.any(moment) else None, ref=ref)


def uniform_transverse(pressure):
    """Face-pressure LoadSpec: net force/area = pressure * (0, 0, 1).

    Splits the load evenly between the two faces so the first moment
    vanishes (a pure push with no distributed couple).
    """
    vec = 0.5 * float(pressure) * np.array((0.0, 0.0, 1.0))
    return LoadSpec(face_plus=vec, face_minus=vec)
