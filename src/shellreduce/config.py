"""Flat key=value run configuration with dotted section prefixes.

One assignment per line, ``#`` starts a comment, keys are dotted paths:

    chart.kind = sphere-cap
    chart.radius = 1.0
    grid.n1 = 33
    grid.n2 = 33
    material.mu = 1.0
    material.lambda = 1.0
    material.h = 0.05
    model = 1
    constants = oracle
    boundary.clamped = left,right,bottom,top
    loads.body.0 = 0, 0, -0.002
    loads.face_plus = 0, 0, 0.001
    loads.edge.top.0 = 0, 0.005, 0
    solver.max_iter = 2000

Vectors are comma-separated triples; edge lists are comma-separated subsets
of left,right,bottom,top.  Unknown keys are rejected up front so a typo
cannot silently change a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import CONSTANT_MODES, MODELS, MaterialParams
from .errors import ConfigError
from .geometry import make_chart
from .grids import EDGES, Grid
from .loads import LoadSpec
from .minimizer import SolverConfig
from .stencils import ORDERS

_SCALAR_KEYS = {
    "model", "constants", "safety", "boundary.clamped",
    "loads.face_plus", "loads.face_minus", "loads.boundary_measure",
    "grid.n1", "grid.n2", "stencil.order",
    "material.mu", "material.lambda", "material.h",
    "solver.max_iter", "solver.gtol_rel", "solver.gtol_abs",
    "solver.penalty_beta",
    "compare3d.h_values", "compare3d.amplitude", "compare3d.thickness_nodes",
    "energy.deformation", "minimize.snapshot_every",
}
_PREFIX_KEYS = ("chart.", "loads.body.", "loads.edge.")


def parse_config(text):
    """The raw key -> string mapping of one config document."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (lineno, raw.strip()))
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("line %d: empty key" % lineno)
        if key in out:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        out[key] = value
    for key in out:
        if key in _SCALAR_KEYS:
            continue
        if any(key.startswith(p) for p in _PREFIX_KEYS):
            continue
        raise ConfigError("unknown config key %r" % key)
    return out


def _vector(text, key):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("%s: expected three comma-separated numbers, "
                          "got %r" % (key, text))
    try:
        vec = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError("%s: bad number in %r" % (key, text))
    if not all(math.isfinite(v) for v in vec):
        raise ConfigError("%s must be finite, got %r" % (key, text))
    return vec


def _edge_list(text, key):
    if not text:
        return ()
    edges = tuple(p.strip() for p in text.split(","))
    for e in edges:
        if e not in EDGES:
            raise ConfigError("%s: unknown edge %r" % (key, e))
    if len(set(edges)) != len(edges):
        raise ConfigError("%s: repeated edge" % key)
    return edges


def _typed(raw, key, kind, default=None, minimum=None, choices=None):
    if key not in raw:
        if default is None:
            raise ConfigError("missing required config key %r" % key)
        return default
    text = raw[key]
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError("%s: cannot read %r as %s" % (key, text,
                                                        kind.__name__))
    if kind is float and not math.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (key, text))
    if minimum is not None and not value >= minimum:
        raise ConfigError("%s must be >= %s, got %r" % (key, minimum, text))
    if choices is not None and value not in choices:
        raise ConfigError("%s must be one of %s, got %r"
                          % (key, choices, text))
    return value


def _chart_from(raw):
    params = {}
    for key, value in raw.items():
        if key.startswith("chart.") and key != "chart.kind":
            name = key[len("chart."):]
            if name == "poly":
                poly = {}
                for term in value.split(";"):
                    term = term.strip()
                    if not term:
                        continue
                    try:
                        pq, coef = term.split(":")
                        p, q = pq.split(",")
                        poly[(int(p), int(q))] = float(coef)
                    except ValueError:
                        raise ConfigError(
                            "chart.poly: expected 'p,q:coef;...', got %r"
                            % value)
                if not all(math.isfinite(c) for c in poly.values()):
                    raise ConfigError("chart.poly must be finite, got %r"
                                      % value)
                params[name] = poly
            elif name == "bump":
                params[name] = _vector(value, key)
            else:
                params[name] = _typed(raw, key, float)
    kind = raw.get("chart.kind")
    if kind is None:
        raise ConfigError("missing required config key 'chart.kind'")
    return make_chart(kind, **params)


def _loads_from(raw, clamped):
    body = {}
    lateral = {}
    for key, value in raw.items():
        if key.startswith("loads.body."):
            power = key[len("loads.body."):]
            try:
                body[int(power)] = _vector(value, key)
            except ValueError:
                raise ConfigError("%s: bad x3 power %r" % (key, power))
        elif key.startswith("loads.edge."):
            rest = key[len("loads.edge."):]
            if "." not in rest:
                raise ConfigError("%s: expected loads.edge.<edge>.<power>"
                                  % key)
            edge, power = rest.rsplit(".", 1)
            try:
                lateral.setdefault(edge, {})[int(power)] = _vector(value, key)
            except ValueError:
                raise ConfigError("%s: bad x3 power %r" % (key, power))
    face_plus = (_vector(raw["loads.face_plus"], "loads.face_plus")
                 if "loads.face_plus" in raw else None)
    face_minus = (_vector(raw["loads.face_minus"], "loads.face_minus")
                  if "loads.face_minus" in raw else None)
    if not (body or lateral or face_plus is not None
            or face_minus is not None):
        return None
    gamma_t = tuple(e for e in EDGES if e not in clamped)
    return LoadSpec(body=body, face_plus=face_plus, face_minus=face_minus,
                    lateral=lateral, gamma_t=gamma_t,
                    boundary_measure=raw.get("loads.boundary_measure",
                                             "surface"))


@dataclass
class RunConfig:
    """Typed view of a config mapping, validated for the CLI commands."""

    chart: object
    grid: Grid
    material: MaterialParams
    model: int
    constants: str
    order: int
    clamped_edges: tuple
    load_spec: object       # LoadSpec or None
    solver: SolverConfig
    safety: float
    raw: dict

    @classmethod
    def from_text(cls, text):
        return cls.from_mapping(parse_config(text))

    @classmethod
    def from_mapping(cls, raw):
        chart = _chart_from(raw)
        n1 = _typed(raw, "grid.n1", int)
        n2 = _typed(raw, "grid.n2", int)
        for label, n in (("grid.n1", n1), ("grid.n2", n2)):
            if n < 9 or n % 2 == 0:
                raise ConfigError(
                    "%s must be odd and at least 9 (composite Simpson "
                    "surface quadrature), got %d" % (label, n))
        grid = Grid.uniform(chart.domain, n1, n2)
        material = MaterialParams(
            mu=_typed(raw, "material.mu", float),
            lam=_typed(raw, "material.lambda", float),
            h=_typed(raw, "material.h", float),
        )
        model = _typed(raw, "model", int, default=1, choices=MODELS)
        constants = _typed(raw, "constants", str, default="oracle",
                           choices=CONSTANT_MODES)
        order = _typed(raw, "stencil.order", int, default=4, choices=ORDERS)
        clamped = _edge_list(raw.get("boundary.clamped", ""),
                             "boundary.clamped")
        load_spec = _loads_from(raw, clamped)
        solver = SolverConfig(
            model=model,
            constants=constants,
            max_iter=_typed(raw, "solver.max_iter", int, default=200),
            gtol_rel=_typed(raw, "solver.gtol_rel", float, default=1e-6),
            gtol_abs=_typed(raw, "solver.gtol_abs", float, default=1e-11),
            penalty_beta=_typed(raw, "solver.penalty_beta", float,
                                default=0.0),
        )
        safety = _typed(raw, "safety", float, default=1.0)
        if safety <= 0:
            raise ConfigError("safety must be positive")
        return cls(chart=chart, grid=grid, material=material, model=model,
                   constants=constants, order=order, clamped_edges=clamped,
                   load_spec=load_spec, solver=solver, safety=safety,
                   raw=dict(raw))

    def scalar(self, key, kind, default, minimum=None):
        """A command's own key, read and checked like the keys above."""
        return _typed(self.raw, key, kind, default, minimum)

    def float_list(self, key, default=None):
        if key not in self.raw:
            if default is None:
                raise ConfigError("missing required config key %r" % key)
            return list(default)
        try:
            values = [float(p) for p in self.raw[key].split(",") if p.strip()]
        except ValueError:
            raise ConfigError("%s: bad number list %r" % (key, self.raw[key]))
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("%s must be finite, got %r"
                              % (key, self.raw[key]))
        return values
