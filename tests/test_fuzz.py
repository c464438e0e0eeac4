"""Seeded fuzz runs of the command-line driver, in process.

Each case takes a base configuration on a 9^2 grid (plate, sphere cap,
cylinder patch or graph), sets one or two keys to adversarial values (zero,
negative, infinite, NaN, 1e+-300, empty, repeated edges, negative
``chart.poly`` powers, 1e10 and 1e200 loads, the thickness fl(2/kappa_sup))
and runs every command on it.  Each run must end in one of the driver's
exit codes 0-3 with no exception escaping; the warning filter turns a numpy
RuntimeWarning into such an exception.

The VTK reader gets its own seeded run: a small ``write_vtk`` file with
fields, cut short, with tokens deleted, or with keywords and junk tokens
(a 0xff byte among them) inserted.  Each read must return or raise
ConfigError or NonFinitePosition, again under the warning filter.
"""

import re
import warnings

import numpy as np
import pytest

from shellreduce.cli import main
from shellreduce.config import RunConfig
from shellreduce.errors import ConfigError, NonFinitePosition
from shellreduce.reference import build_reference
from shellreduce.vtkio import read_vtk, write_vtk

COMMON = """
grid.n1 = 9
grid.n2 = 9
material.mu = 1.0
material.lambda = 1.0
material.h = 0.05
boundary.clamped = left,right,bottom
loads.face_plus = 0, 0, 0.001
loads.edge.top.0 = 0, 0.001, 0
solver.max_iter = 4
compare3d.h_values = 0.04, 0.02
compare3d.thickness_nodes = 4
"""

BASES = {
    "plate": "chart.kind = plate\n",
    "cap": "chart.kind = sphere-cap\nchart.radius = 1.05\n"
           "chart.extent = 0.6\n",
    "cylinder": "chart.kind = cylinder-patch\nchart.radius = 1.0\n"
                "chart.arc = 1.0\n",
    "graph": "chart.kind = graph\nchart.poly = 2,0:0.3;0,2:0.2\n"
             "chart.bump = 0.05, 1, 2\n",
}

NUMBERS = ("0", "-1", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "")
VECTORS = ("0, 0, 1e10", "0, 0, 1e200", "1e300, 0, 0", "nan, 0, 0",
           "0, 0, -inf", "0, 0", "")
EDGE_LISTS = ("left,left", "", "left,right,bottom,top,top", "middle")
POLYS = ("2,-1:1", "0,-2:1", "2,0:1;2,0:1", "2,0:1e300", "2,0:nan", "")

# key -> adversarial values ("h_geom" is the base's fl(2 / kappa_sup))
KEYS = {
    "material.h": NUMBERS + ("h_geom",),
    "material.mu": NUMBERS,
    "material.lambda": NUMBERS,
    "chart.radius": NUMBERS,
    "chart.extent": NUMBERS,
    "chart.length1": NUMBERS,
    "chart.poly": POLYS,
    "chart.bump": VECTORS,
    "grid.n1": NUMBERS,
    "safety": NUMBERS,
    "model": NUMBERS,
    "stencil.order": NUMBERS,
    "solver.gtol_rel": NUMBERS,
    "solver.penalty_beta": NUMBERS,
    "compare3d.h_values": NUMBERS + ("0.02, 0.02",),
    "compare3d.amplitude": NUMBERS,
    "loads.face_plus": VECTORS,
    "loads.face_minus": VECTORS,
    "loads.body.0": VECTORS,
    "loads.edge.top.0": VECTORS,
    "boundary.clamped": EDGE_LISTS,
}

COMMANDS = ("check", "energy", "compare3d", "minimize", "loads-reduce")
SEEDS = range(20)
CASES_PER_SEED = 2


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """base name -> (config mapping, its h_geom as text, natural VTK)."""
    out = {}
    for name, chart in BASES.items():
        text = chart + COMMON
        cfg = RunConfig.from_text(text)
        ref = build_reference(cfg.chart, cfg.grid, cfg.material.h)
        vtk = str(tmp_path_factory.mktemp("fuzz") / (name + ".vtk"))
        write_vtk(vtk, cfg.chart.positions_on(cfg.grid))
        h_geom = repr(2.0 / ref.kappa_sup) if ref.kappa_sup else "inf"
        out[name] = (dict(cfg.raw), h_geom, vtk)
    return out


def _fuzzed_case(rng, bases):
    name = sorted(bases)[rng.integers(len(bases))]
    raw, h_geom, vtk = bases[name]
    raw = dict(raw)
    keys = sorted(KEYS)
    for k in rng.choice(len(keys), size=rng.integers(1, 3), replace=False):
        key = keys[k]
        value = KEYS[key][rng.integers(len(KEYS[key]))]
        raw[key] = h_geom if value == "h_geom" else value
    text = "".join("%s = %s\n" % item for item in raw.items())
    return name, text, vtk


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_configs_end_in_an_exit_code(tmp_path, capsys, bases, seed):
    rng = np.random.default_rng(seed)
    for case in range(CASES_PER_SEED):
        name, text, vtk = _fuzzed_case(rng, bases)
        cfg = tmp_path / ("case%d.cfg" % case)
        cfg.write_text(text)
        for command in COMMANDS:
            argv = [command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]
            if command == "energy":
                argv += ["--deformation", vtk]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main(argv)
            capsys.readouterr()
            assert rc in (0, 1, 2, 3), (name, command, text)


VTK_KEYWORDS = (b"DATASET", b"DIMENSIONS", b"POINTS", b"POINT_DATA",
                b"SCALARS", b"LOOKUP_TABLE")
VTK_JUNK = (b"\xff", b"zz", b"-1", b"0", b"12", b"1e999", b"nan", b"-inf",
            b"STRUCTURED_GRID", b"double")
VTK_CASES = 2000


def _mutated_vtk(rng, data):
    """``data`` after one to three seeded mutations: a truncation, a deleted
    token, an inserted keyword or an inserted junk token."""
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(4)
        if kind == 0:
            data = data[:rng.integers(len(data) + 1)]
            continue
        parts = re.split(rb"(\s+)", data)
        words = [i for i, part in enumerate(parts) if part.strip()]
        if kind == 1:
            if words:
                del parts[words[rng.integers(len(words))]]
        else:
            pool = VTK_KEYWORDS if kind == 2 else VTK_JUNK
            parts.insert(rng.integers(len(parts) + 1),
                         b" %s " % pool[rng.integers(len(pool))])
        data = b"".join(parts)
    return data


def test_mutated_vtk_files_read_or_raise_a_config_error(tmp_path):
    base = tmp_path / "base.vtk"
    rng = np.random.default_rng(0)
    write_vtk(base, rng.normal(size=(3, 4, 3)),
              fields={"rho": rng.normal(size=(3, 4)),
                      "phi": rng.normal(size=(3, 4))})
    data = base.read_bytes()
    # a file ending right after SCALARS, which random mutation seldom makes
    cases = [data + b"POINT_DATA 12\nSCALARS\n"]
    cases += [_mutated_vtk(rng, data) for _ in range(VTK_CASES)]
    path = tmp_path / "case.vtk"
    for k, case in enumerate(cases):
        path.write_bytes(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                read_vtk(path)
            except (ConfigError, NonFinitePosition):
                pass
            except Exception as exc:
                pytest.fail("case %d raised %r on %r" % (k, exc, case))
