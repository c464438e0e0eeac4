"""End-to-end runs of the command-line driver, in process."""

import ctypes
import glob
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import shellreduce
from shellreduce import cli
from shellreduce.cli import main
from shellreduce.config import RunConfig
from shellreduce.geometry import (TrigDisplacement, deformed_state,
                                  displace_chart)
from shellreduce.grids import MAX_THICKNESS_NODES, thickness_rule
from shellreduce.oracle3d import ansatz_point
from shellreduce.reference import build_reference
from shellreduce.vtkio import read_csv, read_vtk, write_vtk

PLATE = """
chart.kind = plate
chart.length1 = 1.0
chart.length2 = 1.0
grid.n1 = 9
grid.n2 = 9
material.mu = 1.0
material.lambda = 1.0
material.h = 0.1
"""

SPHERE = """
chart.kind = sphere-cap
chart.radius = 1.0
chart.extent = 0.6
grid.n1 = 9
grid.n2 = 9
material.mu = 1.0
material.lambda = 1.0
material.h = 0.8
"""


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_fresh(args, **env_vars):
    """Run ``python args...`` in a fresh process that imports this tree's
    shellreduce, with ``env_vars`` added to its environment; returns the
    completed process (stdout as text)."""
    env = dict(os.environ, **env_vars)
    src = os.path.dirname(os.path.dirname(shellreduce.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, env=env, timeout=300,
                          capture_output=True, text=True)


def _natural_vtk(tmp_path, text, name="surface.vtk"):
    cfg = RunConfig.from_text(text)
    path = tmp_path / name
    write_vtk(path, cfg.chart.positions_on(cfg.grid))
    return str(path), cfg


def test_check_plate_is_admissible_at_any_thickness(tmp_path, capsys):
    for h in ("0.01", "1", "100"):
        cfg = _config(tmp_path, PLATE.replace("material.h = 0.1",
                                              "material.h = %s" % h))
        rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ADMISSIBLE" in out and "admissibility report" in out
    header, rows = read_csv(tmp_path / "check-report.csv")
    assert header == ["quantity", "value"]
    table = dict((k, v) for k, v, *rest in [r + [None] for r in rows])
    for model in (1, 2, 3):
        assert table["model%d.h_max" % model] == "inf"


def test_check_thick_sphere_fails_and_model_override_passes(tmp_path,
                                                            capsys):
    cfg = _config(tmp_path, SPHERE)
    rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "EXCEEDED" in capsys.readouterr().out
    # the Model II bound on the unit sphere is looser; h = 0.8 fits under it
    rc = main(["check", "--config", cfg, "--model", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "ADMISSIBLE" in capsys.readouterr().out


def test_check_safety_scales_the_gate(tmp_path):
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.4")
    assert main(["check", "--config", _config(tmp_path, text),
                 "--out", str(tmp_path)]) == 0
    halved = _config(tmp_path, text + "safety = 0.5\n", name="half.cfg")
    assert main(["check", "--config", halved, "--out", str(tmp_path)]) == 2


def test_energy_natural_state_is_numerically_zero(tmp_path, capsys):
    vtk, _ = _natural_vtk(tmp_path, PLATE)
    cfg = _config(tmp_path, PLATE)
    rc = main(["energy", "--config", cfg, "--deformation", vtk,
               "--out", str(tmp_path)])
    assert rc == 0
    assert "energy breakdown" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "energy-breakdown.csv")
    assert header == ["term", "value"]
    table = {name: float(value) for name, value in rows}
    assert set(table) == {"shell", "curv_log", "curv_det2", "constant",
                          "load", "total", "internal"}
    assert abs(table["total"]) < 1e-9
    assert table["load"] == 0.0


def test_energy_dump_density_writes_fields(tmp_path):
    vtk, cfg_obj = _natural_vtk(tmp_path, PLATE)
    cfg = _config(tmp_path, PLATE)
    rc = main(["energy", "--config", cfg, "--deformation", vtk,
               "--dump-density", "--out", str(tmp_path)])
    assert rc == 0
    pos, fields = read_vtk(tmp_path / "energy-density.vtk")
    assert pos.shape == (cfg_obj.grid.n1, cfg_obj.grid.n2, 3)
    assert fields  # at least one per-node density field rode along


def test_energy_dump_density_evaluates_the_densities_once(tmp_path,
                                                         monkeypatch):
    # the dumped fields are the ones the breakdown integrated
    import shellreduce.energy as energy_module
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.1")
    vtk, cfg_obj = _natural_vtk(tmp_path, text)
    pos, _ = read_vtk(vtk)
    pos[3:6, 3:6, 2] += 0.01
    write_vtk(vtk, pos)
    evaluated = []
    original = energy_module.energy_density_fields

    def counted(*args, **kwargs):
        evaluated.append(original(*args, **kwargs))
        return evaluated[-1]

    monkeypatch.setattr(energy_module, "energy_density_fields", counted)
    rc = main(["energy", "--config", _config(tmp_path, text), "--deformation",
               vtk, "--dump-density", "--out", str(tmp_path)])
    assert rc == 0
    assert len(evaluated) == 1
    _, fields = read_vtk(tmp_path / "energy-density.vtk")
    assert sorted(fields) == sorted(evaluated[0])
    for name, values in evaluated[0].items():
        assert fields[name].tobytes() == values.tobytes(), name


def test_energy_paper_and_oracle_constants_differ_on_a_sphere(tmp_path):
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.1")
    vtk, _ = _natural_vtk(tmp_path, text)
    cfg = _config(tmp_path, text)
    totals = {}
    for mode in ("oracle", "paper"):
        rc = main(["energy", "--config", cfg, "--deformation", vtk,
                   "--constants", mode, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "energy-breakdown.csv")
        totals[mode] = {name: float(v) for name, v in rows}["total"]
    # the flat-reference constant misses the curvature correction, so the
    # natural state no longer sits at zero energy; the oracle residual is
    # pure surface-quadrature noise on this deliberately coarse 9x9 grid
    assert abs(totals["oracle"]) < 1e-8
    assert abs(totals["paper"]) > 1e-6


def test_energy_requires_a_deformation(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE)
    rc = main(["energy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_energy_shape_mismatch_is_a_config_error(tmp_path, capsys):
    vtk, _ = _natural_vtk(tmp_path, PLATE.replace("grid.n1 = 9",
                                                  "grid.n1 = 11"))
    cfg = _config(tmp_path, PLATE)
    rc = main(["energy", "--config", cfg, "--deformation", vtk,
               "--out", str(tmp_path)])
    assert rc == 1
    assert "shape" in capsys.readouterr().err


def test_energy_small_deformation_on_a_larger_grid_is_a_config_error(
        tmp_path, capsys):
    vtk, _ = _natural_vtk(tmp_path, PLATE)
    cfg = _config(tmp_path, PLATE.replace("= 9\n", "= 17\n"))
    rc = main(["energy", "--config", cfg, "--deformation", vtk,
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "(17, 17, 3)" in err


def test_energy_folded_surface_exits_with_orientation_code(tmp_path,
                                                           capsys):
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.1")
    vtk, cfg_obj = _natural_vtk(tmp_path, text)
    pos, _ = read_vtk(vtk)
    pos[4, 4, 2] -= 0.5
    write_vtk(vtk, pos)
    cfg = _config(tmp_path, text)
    rc = main(["energy", "--config", cfg, "--deformation", vtk,
               "--out", str(tmp_path)])
    assert rc == 3
    assert "grid node" in capsys.readouterr().err


def test_energy_nan_node_exits_with_orientation_code(tmp_path, capsys):
    # the error names the input node, not a node the value reaches through
    # the stencils; a finite 1e300 would overflow there into a NaN
    cfg = _config(tmp_path, PLATE)
    for bad in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        vtk, _ = _natural_vtk(tmp_path, PLATE)
        pos, _ = read_vtk(vtk)
        pos[4, 3, 2] = bad
        write_vtk(vtk, pos)
        rc = main(["energy", "--config", cfg, "--deformation", vtk,
                   "--out", str(tmp_path)])
        assert rc == 3, bad
        assert "grid node (4, 3)" in capsys.readouterr().err, bad


def test_energy_collapsed_surface_exits_with_orientation_code(tmp_path,
                                                             capsys):
    # a deformed surface collapsed to one point has rank zero everywhere;
    # the rank check belongs to the reference, so the deformed state reaches
    # the orientation check, which names the node
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.1")
    vtk = str(tmp_path / "collapsed.vtk")
    write_vtk(vtk, np.zeros((9, 9, 3)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = main(["energy", "--config", _config(tmp_path, text),
                   "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 3
    assert "grid node (0, 0)" in capsys.readouterr().err


def test_energy_malformed_deformation_is_a_config_error(tmp_path, capsys):
    vtk, _ = _natural_vtk(tmp_path, SPHERE)
    lines = open(vtk).read().splitlines()
    lines[6 + 4] = "1 1 zz"
    with open(vtk, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["energy", "--config", _config(tmp_path, SPHERE),
               "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("shellreduce: config error: ")
    assert "surface.vtk" in err and "POINTS" in err


def test_energy_deformation_with_negative_dimensions_is_a_config_error(
        tmp_path, capsys):
    # DIMENSIONS -9 -9 1 passes the POINTS count check, 81 = -9 * -9, and
    # the reshape to (-9, -9, 3) raised a ValueError the CLI did not catch
    vtk, _ = _natural_vtk(tmp_path, SPHERE)
    with open(vtk) as fh:
        text = fh.read()
    with open(vtk, "w") as fh:
        fh.write(text.replace("DIMENSIONS 9 9 1", "DIMENSIONS -9 -9 1"))
    rc = main(["energy", "--config", _config(tmp_path, SPHERE),
               "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "shellreduce: config error: %s: DIMENSIONS must be positive" % vtk)


def test_energy_deformation_ending_at_scalars_is_a_config_error(tmp_path,
                                                               capsys):
    # no token follows SCALARS, so there is no field name to read
    vtk, _ = _natural_vtk(tmp_path, SPHERE)
    with open(vtk, "a") as fh:
        fh.write("POINT_DATA 81\nSCALARS\n")
    rc = main(["energy", "--config", _config(tmp_path, SPHERE),
               "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("shellreduce: config error: %s: SCALARS without a field "
                   "name\n" % vtk)


@pytest.mark.parametrize("kind", ["binary", "byte_0xff"])
def test_energy_undecodable_deformation_is_a_config_error(tmp_path, capsys,
                                                          kind):
    # both files raised an uncaught UnicodeDecodeError in the text reader
    vtk, _ = _natural_vtk(tmp_path, SPHERE)
    with open(vtk, "rb") as fh:
        data = fh.read()
    if kind == "binary":
        head = data.split(b"\n", 6)[:6]
        head[2] = b"BINARY"
        payload = np.ones(81 * 3).astype(">f8").tobytes()
        data = b"\n".join(head) + b"\n" + payload
    else:
        lines = data.split(b"\n")
        lines[6 + 4] = b"1 \xff 1"
        data = b"\n".join(lines)
    with open(vtk, "wb") as fh:
        fh.write(data)
    rc = main(["energy", "--config", _config(tmp_path, SPHERE),
               "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("shellreduce: config error: %s: " % vtk)
    assert err.count("\n") == 1
    expected = {"binary": "line 3 reads 'BINARY', not ASCII",
                "byte_0xff": "POINTS block: '\\\\xff'"}[kind]
    assert expected in err


def _assert_percent_vtk(path):
    """Every number in the VTK file at ``path`` is what "%.17g" prints for
    the value float() parses from it, and read_vtk returns those bits."""
    lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    positions, fields = read_vtk(path)
    n = positions.shape[0] * positions.shape[1]
    blocks = [(lines[6:6 + n], positions.reshape(n, 3))]
    at = 6 + n
    if fields:
        assert lines[at] == "POINT_DATA %d\n" % n
        at += 1
    for name, values in fields.items():
        assert lines[at:at + 2] == ["SCALARS %s double 1\n" % name,
                                    "LOOKUP_TABLE default\n"]
        blocks.append((lines[at + 2:at + 2 + n], values.reshape(n, 1)))
        at += 2 + n
    assert at == len(lines)
    for text, values in blocks:
        parsed = np.array([[float(t) for t in line.split()] for line in text])
        assert parsed.tobytes() == values.tobytes()
        template = " ".join(["%.17g"] * parsed.shape[1]) + "\n"
        assert text == [template % tuple(row) for row in parsed.tolist()]


def test_energy_density_and_final_surface_print_as_percent_17g(tmp_path):
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.05").replace(
        "grid.n1 = 9\ngrid.n2 = 9", "grid.n1 = 33\ngrid.n2 = 33")
    vtk, cfg_obj = _natural_vtk(tmp_path, text)
    pos, _ = read_vtk(vtk)
    x1, x2 = cfg_obj.grid.mesh()
    pos[..., 2] += 0.01 * np.sin(3.0 * x1) * np.cos(2.0 * x2)
    write_vtk(vtk, pos)
    cfg = _config(tmp_path, text + (
        "boundary.clamped = left,right,bottom,top\n"
        "loads.face_plus = 0, 0, 0.002\n"
        "solver.max_iter = 5\n"))
    assert main(["energy", "--config", cfg, "--deformation", vtk,
                 "--dump-density", "--out", str(tmp_path)]) == 0
    assert main(["minimize", "--config", cfg, "--out", str(tmp_path)]) == 0
    for name in ("energy-density.vtk", "minimize-final.vtk"):
        _assert_percent_vtk(tmp_path / name)


def test_energy_beyond_the_geometric_bound_exits_with_thickness_code(
        tmp_path, capsys):
    # unit sphere at h = 2.5: both face factors stay positive, but
    # h sup|kappa| >= 2 puts a zero of b(x3) inside the slab
    text = SPHERE.replace("material.h = 0.8", "material.h = 2.5")
    vtk, _ = _natural_vtk(tmp_path, text)
    rc = main(["energy", "--config", _config(tmp_path, text),
               "--deformation", vtk, "--out", str(tmp_path)])
    assert rc == 2
    assert "h sup|kappa| = 2.500, needs < 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "energy"])
def test_thickness_at_the_geometric_bound_exits_2(tmp_path, capsys, command):
    # h = fl(2 / kappa_sup) on this cap is h_geom itself, but the product
    # h kappa_sup rounds below 2: the gate and the evaluator must both read
    # the one bound h < h_geom, so energy exits 2 like check instead of
    # reaching a zero reference face factor (exit 3)
    text = SPHERE.replace("chart.radius = 1.0", "chart.radius = 1.05")
    cfg = RunConfig.from_text(text)
    ref = build_reference(cfg.chart, cfg.grid, cfg.material.h)
    h = repr(2.0 / ref.kappa_sup)
    assert h == "2.099999999999999"
    text = text.replace("material.h = 0.8", "material.h = " + h)
    argv = [command, "--config", _config(tmp_path, text),
            "--out", str(tmp_path)]
    if command == "energy":
        argv += ["--deformation", _natural_vtk(tmp_path, text)[0]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    if command == "check":
        assert "h_geom" in out and "EXCEEDED" in out
    else:
        assert "h sup|kappa| = 2.000, needs < 2" in err


def test_infinite_thickness_is_a_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE.replace("material.h = 0.1",
                                          "material.h = inf"))
    rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["loads.face_plus = nan, 0, 0",
                                  "solver.gtol_abs = nan",
                                  "solver.penalty_beta = inf"])
def test_minimize_rejects_a_non_finite_number_up_front(tmp_path, capsys,
                                                        line):
    # without the check: a nan energy with exit 0, a solve run to max_iter,
    # or a LinAlgError traceback
    cfg = _config(tmp_path, PLATE + "boundary.clamped = left,right,bottom,"
                  "top\nloads.face_minus = 0, 0, 0.001\n" + line + "\n")
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert line.split(" =")[0] + " must be finite" in err


def test_compare3d_small_sweep(tmp_path, capsys):
    text = SPHERE.replace("material.h = 0.8", "material.h = 0.1")
    text += "compare3d.h_values = 0.04, 0.02\ncompare3d.thickness_nodes = 8\n"
    cfg = _config(tmp_path, text)
    rc = main(["compare3d", "--config", cfg, "--threads", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "reduced vs 3-D" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "compare3d.csv")
    assert header == ["h", "model", "E_reduced", "E_3d", "abs_err",
                      "fitted_order"]
    assert len(rows) == 6  # two thicknesses, three models
    for row in rows:
        h, model, reduced, full3d, err, order = (float(v) for v in row)
        assert abs(float(row[4]) - abs(reduced - full3d)) < 1e-18
        assert order > 2.5  # plumbing check; the sharp rates live elsewhere


def test_compare3d_is_identical_across_thread_counts(tmp_path):
    # one fresh process per run, so --threads sizes the BLAS pool
    text = (SPHERE.replace("material.h = 0.8", "material.h = 0.1")
            .replace("= 9\n", "= 17\n"))
    text += "compare3d.h_values = 0.04, 0.02\ncompare3d.thickness_nodes = 8\n"
    cfg = _config(tmp_path, text)
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / ("threads-" + threads)
        out.mkdir()
        proc = _run_fresh(["-m", "shellreduce.cli", "compare3d",
                           "--config", cfg, "--threads", threads,
                           "--out", str(out)],
                          OMP_NUM_THREADS=threads,
                          OPENBLAS_NUM_THREADS=threads,
                          MKL_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "compare3d.csv").read_bytes())
    assert tables[0] == tables[1]


def _cap_sweep(h_values, grid="17", amplitude=None):
    text = (SPHERE.replace("material.h = 0.8", "material.h = 0.05")
            .replace("grid.n1 = 9", "grid.n1 = 17")
            .replace("grid.n2 = 9", "grid.n2 = " + grid))
    text += "compare3d.h_values = %s\n" % h_values
    if amplitude is not None:
        text += "compare3d.amplitude = %s\n" % amplitude
    return text


def test_compare3d_past_the_geometric_bound_exits_2(tmp_path, capsys):
    # h = 2.5 on the unit cap puts a zero of b_y0 inside the slab: the sweep
    # stops at the one bound h < h_geom, as check and energy do, before the
    # slab is integrated
    cfg = _config(tmp_path, _cap_sweep("2.5, 0.02"))
    rc = main(["compare3d", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "h = 2.5 exceeds the geometric bound" in err
    assert "h sup|kappa| = 2.500, needs < 2" in err
    assert not (tmp_path / "compare3d.csv").exists()


def test_compare3d_folded_slab_exits_3_naming_its_node(tmp_path, capsys):
    # h = 1.9 is under the cap's bound, but the deformed surface under the
    # amplitude-0.3 bumps bends tighter than h / 2: b_m, and so det F, turns
    # negative inside the slab.  A 17 x 15 grid leaves no mirror tie for
    # the smallest det F
    text = _cap_sweep("1.9, 0.02", grid="15", amplitude="0.3")
    rc = main(["compare3d", "--config", _config(tmp_path, text),
               "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    # the node of the smallest det F of the assembled 3x3 F, at the first
    # Gauss node where one is <= 0
    cfg = RunConfig.from_text(text)
    ref = build_reference(cfg.chart, cfg.grid, 1.9)
    state = deformed_state(
        displace_chart(cfg.chart,
                       TrigDisplacement.standard(cfg.chart.domain, 0.3)),
        cfg.grid, 1.9)
    for x3 in thickness_rule(16, 1.9)[0]:
        det = ansatz_point(ref, state, x3)["det_F"]
        if det.min() <= 0.0:
            break
    node = tuple(int(k) for k in np.unravel_index(np.argmin(det), det.shape))
    assert node == (7, 5)
    assert "det F = %.6e <= 0 at %s" % (det[node], node) in err, err


def test_integrate_3d_is_identical_across_thread_counts():
    # the slab integral, plane arithmetic on the two bundles' fundamental
    # forms and whole-grid sums, must not split across BLAS threads on a
    # large grid
    script = (
        "from shellreduce.energy import MaterialParams\n"
        "from shellreduce.geometry import (TrigDisplacement, deformed_state,"
        " displace_chart, make_chart)\n"
        "from shellreduce.grids import Grid\n"
        "from shellreduce.oracle3d import integrate_3d\n"
        "from shellreduce.reference import build_reference\n"
        "chart = make_chart('sphere-cap', radius=1.0, extent=0.6)\n"
        "grid = Grid.uniform(chart.domain, 129, 129)\n"
        "disp = TrigDisplacement.standard(chart.domain, 0.05)\n"
        "state = deformed_state(displace_chart(chart, disp), grid, 0.05)\n"
        "ref = build_reference(chart, grid, 0.05)\n"
        "mat = MaterialParams(mu=1.0, lam=1.0, h=0.05)\n"
        "print(integrate_3d(state, ref, mat, 16).hex())\n")
    outputs = []
    for threads in ("1", "2"):
        proc = _run_fresh(["-c", script], OMP_NUM_THREADS=threads,
                          OPENBLAS_NUM_THREADS=threads,
                          MKL_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_stencil_commands_are_identical_across_thread_counts(tmp_path):
    # energy and minimize run every stencil slot and its transpose on a
    # nodal surface; at 97^2 a thread-split BLAS product would change their
    # output bits between one and two threads
    text = (SPHERE.replace("material.h = 0.8", "material.h = 0.05")
            .replace("= 9\n", "= 97\n"))
    text += ("boundary.clamped = left,right\n"
             "loads.face_plus = 0, 0, -0.002\n"
             "loads.face_minus = 0, 0, -0.002\n"
             "loads.edge.top.0 = 0, 0.005, 0\n"
             "solver.max_iter = 3\n")
    vtk, cfg_obj = _natural_vtk(tmp_path, text)
    pos, _ = read_vtk(vtk)
    (a1, b1), (a2, b2) = cfg_obj.grid.domain
    u = (cfg_obj.grid.x1[:, None] - a1) / (b1 - a1)
    v = (cfg_obj.grid.x2[None, :] - a2) / (b2 - a2)
    bump = np.sin(np.pi * u) * np.sin(2.0 * np.pi * v)
    pos += 0.01 * bump[..., None] * np.array([0.3, -0.2, 1.0])
    write_vtk(vtk, pos)
    cfg = _config(tmp_path, text)
    commands = (
        (["energy", "--deformation", vtk, "--dump-density"],
         ("energy-breakdown.csv", "energy-density.vtk")),
        (["minimize"], ("minimize-trace.csv", "minimize-final.vtk")),
        # model 3: the Taylor det^2 density of the cap-shell benchmark
        (["minimize", "--model", "3"],
         ("minimize-trace.csv", "minimize-final.vtk")),
    )
    for case, (args, names) in enumerate(commands):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / ("%s-%d-threads-%s" % (args[0], case, threads))
            out.mkdir()
            proc = _run_fresh(["-m", "shellreduce.cli"] + args
                              + ["--config", cfg, "--threads", threads,
                                 "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1], args[0]


def test_check_loads_no_scipy(tmp_path):
    cfg = _config(tmp_path, SPHERE.replace("material.h = 0.8",
                                           "material.h = 0.1"))
    code = ("import sys\n"
            "import shellreduce\n"
            "from shellreduce import cli\n"
            "rc = cli.main(['check', '--config', sys.argv[1],"
            " '--out', sys.argv[2]])\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(rc)\n")
    proc = _run_fresh(["-c", code, cfg, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_commands_leave_numpy_polynomial_unloaded(tmp_path):
    # importing numpy.polynomial costs every command ~3 ms; the root
    # polish and the load reduction do without it, for face, edge and
    # body loads alike
    check = _config(tmp_path, SPHERE.replace("material.h = 0.8",
                                             "material.h = 0.1"))
    plate = _config(tmp_path, PLATE + "boundary.clamped = left,right\n"
                    "loads.face_plus = 0, 0, 0.001\n"
                    "loads.face_minus = 0, 0, 0.001\nsolver.max_iter = 3\n",
                    name="plate.cfg")
    loaded = _config(tmp_path, PLATE + "boundary.clamped = left,right\n"
                     "loads.edge.top.0 = 0, 0.005, 0\n"
                     "loads.body.2 = 0, 0, -0.01\nsolver.max_iter = 3\n",
                     name="loaded.cfg")
    code = ("import sys\n"
            "import shellreduce.config\n"
            "from shellreduce import cli\n"
            "for command, cfg in (('check', sys.argv[1]),"
            " ('minimize', sys.argv[2]), ('minimize', sys.argv[3]),"
            " ('loads-reduce', sys.argv[3])):\n"
            "    assert cli.main([command, '--config', cfg,"
            " '--out', sys.argv[4]]) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('numpy.polynomial')))\n")
    proc = _run_fresh(["-c", code, check, plate, loaded, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_minimize_keeps_its_freed_heap_pages(tmp_path):
    # Without main()'s mallopt call glibc hands the freed top of the heap
    # back after every L-BFGS iteration, and a second minimize of this cap
    # faults ~6,400 pages back in; with it, almost none
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pytest.skip("the C library has no mallopt")
    text = SPHERE.replace("grid.n1 = 9", "grid.n1 = 49").replace(
        "grid.n2 = 9", "grid.n2 = 49").replace(
        "material.h = 0.8", "material.h = 0.05") + (
        "model = 3\n"
        "boundary.clamped = left,right\n"
        "loads.face_plus = 0, 0, -0.002\n"
        "loads.face_minus = 0, 0, -0.002\n"
        "loads.edge.top.0 = 0, 0.005, 0\n"
        "solver.max_iter = 10\n"
        "solver.gtol_abs = 1e-14\n")
    cfg = _config(tmp_path, text)
    code = ("import json, resource, sys\n"
            "from shellreduce import cli\n"
            "argv = ['minimize', '--config', sys.argv[1],"
            " '--out', sys.argv[2]]\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert cli.main(argv) == 0\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    faults.append(after - before)\n"
            "print(json.dumps(faults))\n")
    proc = _run_fresh(["-c", code, cfg, str(tmp_path)],
                      OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout.splitlines()[-1])
    assert "10 iterations" in proc.stdout
    assert second < 1000, (first, second)


def test_cli_import_leaves_numpy_unloaded():
    # --threads can only size the BLAS pool if numpy starts after main()
    # has set the thread variables
    code = ("import sys\n"
            "import shellreduce.cli\n"
            "print('numpy' in sys.modules)\n")
    proc = _run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` of this checkout as a module."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(root, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_targets_resolve():
    # every function the benchmark's tracer wraps must still exist, and the
    # two whose span it names from the first argument (positional or by
    # keyword) must keep that parameter first: a rename would zero the
    # benchmark's layer metrics without failing an output check
    import inspect

    tracing = _perfbench_module("tracing")
    assert tracing.TARGETS
    first = {}
    for modname, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), (modname, attr)
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)
        first[attr] = next(iter(inspect.signature(obj).parameters), None)
    assert first["surface_bundle"] == "slots"
    assert first["energy_density_fields"] == "bundle"
    plain = {"d1": np.zeros(1), "a": np.zeros(1)}
    for picker, name, span in (
            (tracing._bundle_span, "slots", "geometry.surface_bundle_np"),
            (tracing._density_span, "bundle", "energy.density_np")):
        assert picker((plain,), {}) == picker((), {name: plain}) == span


TRACED_MINIMIZE = """
import json, sys
sys.path.insert(0, %r)
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
# imported after install, so the names below are the wrapped ones
from shellreduce.energy import MaterialParams
from shellreduce.geometry import make_chart
from shellreduce.grids import Grid
from shellreduce.loads import uniform_transverse
from shellreduce.minimizer import SolverConfig, minimize
from shellreduce.reference import build_reference

chart = make_chart("plate")
ref = build_reference(chart, Grid.uniform(chart.domain, 9, 9), 0.1)
mat = MaterialParams(mu=1.0, lam=1.0, h=0.1)
loads = uniform_transverse(0.002)
tracer.enabled = True
minimize(ref, mat, SolverConfig(max_iter=20), loads=loads)
tracer.enabled = False
print(json.dumps(tracing.layer_metrics(tracer.spans)))
"""


def test_traced_minimize_fires_the_energy_spans_once_per_trial():
    # the benchmark's per-layer energy metrics are spans its tracer opens
    # around energy functions; a refactor that stopped calling them would
    # zero those metrics without failing any output check.  The tracer
    # patches the modules in place, so it runs in a fresh process, and it
    # is imported from the checkout without writing bytecode there.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = _run_fresh(["-c", TRACED_MINIMIZE % os.path.join(root, "perfbench")],
                      PYTHONDONTWRITEBYTECODE="1")
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])
    trials = layers["minimizer.line_search_trials"]
    assert trials >= layers["minimizer.iterations"] > 0
    # one orientation check and one density evaluation for the start point
    # and for each line-search trial
    for name in ("energy.orientation", "energy.density_np"):
        assert layers[name + ".calls"] == trials + 1, (name, layers)


def test_benchmark_oracles_run_on_a_small_cap(tmp_path):
    # the benchmark's output checks call build_reference, deformed_state and
    # integrate_3d with positional arguments; run them on a 17^2 cap
    workloads = _perfbench_module("workloads")
    cap = workloads.CapAnalysis(str(tmp_path), 21, grid=17)
    cap.prepare()
    step, scans = cap._scans()
    assert step > 0.0 and set(scans) == {"stretch_full.h0",
                                         "stretch_cubic.h0", "volume.h3"}
    e3d = cap._energy_3d()
    assert np.isfinite(e3d) and e3d > 0.0
    _, ref = cap._reference()
    assert ref.positions.shape == (17, 17, 3)
    # and the CLI outputs they check pass
    for label, _, argv in cap.commands():
        if label in ("check", "energy-m1"):
            rc, out = workloads.run_cli(argv)
            assert cap.check(label, rc, out) == [], label


def test_minimize_writes_surface_and_trace(tmp_path, capsys):
    text = PLATE + (
        "boundary.clamped = left,right,bottom,top\n"
        "loads.face_plus = 0, 0, 0.001\n"
        "loads.face_minus = 0, 0, 0.001\n"
        "solver.max_iter = 400\n"
        "solver.gtol_abs = 1e-8\n"
        "minimize.snapshot_every = 5\n")
    cfg = _config(tmp_path, text)
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    pos, _ = read_vtk(tmp_path / "minimize-final.vtk")
    assert pos.shape == (9, 9, 3)
    assert pos[4, 4, 2] > 0  # the pressure pair pushes the middle up
    header, rows = read_csv(tmp_path / "minimize-trace.csv")
    assert header == ["iter", "energy", "grad_norm", "step"]
    energies = [float(r[1]) for r in rows]
    assert len(energies) >= 2 and energies[-1] < energies[0]
    assert glob.glob(os.path.join(str(tmp_path), "minimize-iter*.vtk"))


def test_minimize_gate_blocks_and_force_overrides(tmp_path, capsys):
    text = SPHERE + ("boundary.clamped = left,right,bottom,top\n"
                     "solver.max_iter = 3\n")
    cfg = _config(tmp_path, text)
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "thickness gate failed" in err
    rc = main(["minimize", "--config", cfg, "--force",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "not guaranteed" in captured.err
    pos, _ = read_vtk(tmp_path / "minimize-final.vtk")
    assert np.isfinite(pos).all()


def test_minimize_computes_the_admissibility_report_once(tmp_path,
                                                         monkeypatch):
    import shellreduce.admissibility
    import shellreduce.minimizer

    calls = []
    original = shellreduce.admissibility.admissibility_report

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the defining module too, so a second report built anywhere counts
    monkeypatch.setattr(shellreduce.minimizer, "admissibility_report",
                        counted)
    monkeypatch.setattr(shellreduce.admissibility, "admissibility_report",
                        counted)
    cfg = _config(tmp_path, PLATE + "solver.max_iter = 2\n")
    for flags in ([], ["--force"]):
        del calls[:]
        rc = main(["minimize", "--config", cfg, "--out", str(tmp_path)]
                  + flags)
        assert rc == 0
        assert len(calls) == 1, flags


def test_loads_reduce_resultants(tmp_path, capsys):
    text = PLATE + (
        "boundary.clamped = left,right,bottom\n"
        "loads.body.0 = 0, 0, -2\n"
        "loads.face_plus = 0, 0, 1\n"
        "loads.face_minus = 0, 0, 1\n"
        "loads.edge.top.0 = 0, 0.5, 0\n")
    cfg = _config(tmp_path, text)
    rc = main(["loads-reduce", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert "resultants" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "loads-resultants.csv")
    assert header == ["quantity", "component", "value", "min", "max"]
    table = {(q, int(k)): float(v) for q, k, v, lo, hi in rows}
    # h * body0 + face_plus + face_minus in the transverse component
    assert abs(table[("force_area", 2)] - (0.1 * -2 + 1 + 1)) < 1e-14
    # equal face tractions cancel in the first moment
    assert abs(table[("moment_area", 2)]) < 1e-16
    assert abs(table[("force_edge.top", 1)] - 0.1 * 0.5) < 1e-14


def test_non_finite_reduced_loads_are_a_config_error(tmp_path, capsys):
    # two 1e308 face tractions sum to inf; unchecked, minimize reports a nan
    # energy as converged and loads-reduce prints the inf, both exiting 0.
    # A finite 1e200 pair overflows the solver's inner products (a step
    # collapse at iteration 1, exit 0), so it is rejected too.  A 1e10 pair
    # is a valid load: its line-search trials that reach det I = 0 are
    # rejected without a warning
    for load, code in (("1e308", 1), ("1e200", 1), ("1e10", 0)):
        text = PLATE + ("boundary.clamped = left,right,bottom,top\n"
                        "solver.max_iter = 3\n"
                        "loads.face_plus = 0, 0, %s\n"
                        "loads.face_minus = 0, 0, %s\n" % (load, load))
        cfg = _config(tmp_path, text)
        for command in ("minimize", "loads-reduce"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main([command, "--config", cfg, "--out", str(tmp_path)])
            assert rc == code, (load, command)
            err = capsys.readouterr().err
            if code:
                assert ("config error: reduced load resultant force_area is "
                        "not finite or reaches 1e+60" in err), command


def test_loads_reduce_without_loads_is_an_error(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE)
    rc = main(["loads-reduce", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "no loads configured" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["check", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_missing_deformation_file_exits_1_naming_it(tmp_path, capsys):
    absent = str(tmp_path / "absent.vtk")
    for flags, extra in ((["--deformation", absent], ""),
                         ([], "energy.deformation = %s\n" % absent)):
        cfg = _config(tmp_path, PLATE + extra)
        rc = main(["energy", "--config", cfg, "--out", str(tmp_path)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("shellreduce: ") and absent in err


def test_out_naming_a_file_exits_1_naming_it(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    rc = main(["check", "--config", cfg, "--out", str(blocker)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("shellreduce: ") and str(blocker) in err


@pytest.mark.parametrize("command", ["check", "energy", "minimize"])
@pytest.mark.parametrize("text", [
    PLATE.replace("chart.length1 = 1.0", "chart.length1 = -1.0"),
    SPHERE.replace("chart.radius = 1.0", "chart.radius = -1.0"),
    PLATE.replace("chart.kind = plate\nchart.length1 = 1.0\n"
                  "chart.length2 = 1.0", "chart.kind = cylinder-patch\n"
                  "chart.height = 0")],
    ids=["plate", "sphere-cap", "cylinder-patch"])
def test_reversed_or_empty_chart_domain_is_a_config_error(tmp_path, capsys,
                                                          command, text):
    # a domain whose upper bound is not above its lower one would run with
    # negative or zero quadrature weights
    cfg = _config(tmp_path, text + "energy.deformation = absent.vtk\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "empty or reversed" in capsys.readouterr().err


@pytest.mark.parametrize("lines, code, words", [
    ("chart.kind = graph\nchart.length1 = 0", 1, "empty or reversed"),
    ("chart.kind = plate\nchart.length1 = 1e-300", 1, "spacing"),
    ("chart.kind = cylinder-patch\nchart.radius = 0", 1, "radius"),
    ("chart.kind = sphere-cap\nchart.radius = 1e300", 3, "chart value"),
    ("chart.kind = plate\nmaterial.h = 1e-300", 1, "material parameters"),
    ("chart.kind = plate\nsolver.penalty_beta = 1e300", 1, "penalty"),
], ids=["graph-length-0", "tiny-spacing", "cylinder-radius-0",
        "huge-cap", "tiny-h", "huge-penalty"])
def test_out_of_scale_inputs_fail_loudly(tmp_path, capsys, lines, code,
                                         words):
    # each of these raised ZeroDivisionError or ended in numpy overflow and
    # divide-by-zero warnings in the chart, the stencils or the minimizer
    text = lines + ("\ngrid.n1 = 9\ngrid.n2 = 9\nmaterial.mu = 1.0\n"
                    "material.lambda = 1.0\n"
                    "boundary.clamped = left,right,bottom,top\n")
    if "material.h" not in lines:
        text += "material.h = 0.05\n"
    cfg = _config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["minimize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == code
    assert words in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE + "paint.color = blue\n")
    rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_unsupported_stencil_order_is_a_config_error(tmp_path, capsys):
    # a chart reference builds no stencils, so check must reject it too
    cfg = _config(tmp_path, PLATE + "stencil.order = 6\n")
    for command in ("check", "minimize", "energy"):
        rc = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1, command
        err = capsys.readouterr().err
        assert "config error: stencil.order must be one of (2, 4)" in err, \
            command


@pytest.mark.parametrize("command, line", [
    ("compare3d", "compare3d.amplitude = abc"),
    ("compare3d", "compare3d.thickness_nodes = 0"),
    ("compare3d", "compare3d.thickness_nodes = 2.5"),
    # one past the bound: rejected before leggauss would solve its
    # (n x n) eigenproblem
    ("compare3d",
     "compare3d.thickness_nodes = %d" % (MAX_THICKNESS_NODES + 1)),
    ("minimize", "minimize.snapshot_every = x"),
    ("minimize", "minimize.snapshot_every = -1"),
])
def test_bad_command_key_is_a_config_error(tmp_path, capsys, command, line):
    cfg = _config(tmp_path, PLATE + line + "\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("shellreduce: config error: " + line.split()[0])


def test_negative_chart_poly_power_is_a_config_error(tmp_path, capsys):
    # x2^-1 is infinite on the x2 = 0 edge of the graph's domain
    graph = PLATE.replace("chart.kind = plate", "chart.kind = graph")
    cfg = _config(tmp_path, graph + "chart.poly = 2,-1:1\n")
    rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "shellreduce: config error: chart.poly powers must be >= 0")


def test_chart_whose_det_i_rounds_to_zero_fails_the_rank_check(tmp_path,
                                                                capsys):
    # tangents (1, 0, 1e9) and (0, 1, 1e9): a^2 = |d1 x d2|^2 = 2e18 passes
    # the area test, but I11 I22 - I12^2, which surface_bundle divides by,
    # rounds to 0 at every node; check printed inf bounds and ADMISSIBLE
    graph = PLATE.replace("chart.kind = plate", "chart.kind = graph").replace(
        "material.h = 0.1", "material.h = 0.01")
    cfg = _config(tmp_path, graph + "chart.poly = 1,0:1e9;0,1:1e9\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "rank deficient at grid node (0, 0): det I = I11 I22 - I12^2 = " \
        "0.000e+00 is not a^2 = 2.000e+18 to 1e-6" in err
    assert "|d1 x d2|" not in err


def test_chart_with_a_nan_node_exits_with_orientation_code(tmp_path, capsys,
                                                          monkeypatch):
    # no config key yields a NaN chart, so the config's chart factory is
    # swapped for the unit cap with a NaN d12 at node (4, 3)
    from shellreduce.geometry import SurfaceChart, make_chart

    base = make_chart("sphere-cap", radius=1.0, extent=0.6)

    def fields(X1, X2):
        out = base.fields(X1, X2)
        out["d12"][4, 3] = np.nan
        return out

    monkeypatch.setattr("shellreduce.config.make_chart",
                        lambda kind, **params: SurfaceChart(
                            "nan-node", base.domain, fields))
    rc = main(["check", "--config", _config(tmp_path, SPHERE),
               "--out", str(tmp_path)])
    assert rc == 3
    assert "chart d12 at grid node (4, 3)" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit code 2 is the admissibility failure's, so a usage error must not
    # take it; --model and --constants are checked as their config keys
    cfg = _config(tmp_path, PLATE)
    out = ["--out", str(tmp_path)]
    for argv, needle in ((["check", "--config", cfg, "--model", "4"],
                          "config error: model must be one of"),
                         (["check", "--config", cfg, "--constants", "exact"],
                          "config error: constants must be one of"),
                         (["check"], "--config"),
                         (["check", "--config", cfg, "--threads", "x"],
                          "--threads"),
                         (["bend", "--config", cfg], "bend")):
        try:
            rc = main(argv + out)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 1, argv
        assert needle in capsys.readouterr().err, argv
    with pytest.raises(SystemExit) as info:
        main(["check", "--help"])
    assert info.value.code == 0


def test_force_is_a_minimize_flag(tmp_path, capsys):
    # only minimize has a thickness gate to force past
    cfg = _config(tmp_path, PLATE)
    for command in ("check", "energy", "compare3d", "loads-reduce"):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--force", "--out",
                  str(tmp_path)])
        assert info.value.code == 1, command
        assert "unrecognized arguments: --force" in capsys.readouterr().err
    rc = main(["minimize", "--config", cfg, "--force", "--out",
               str(tmp_path)])
    assert rc == 0


def _main_output(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_one_subcommand_parser_prints_what_the_full_tree_prints(
        tmp_path, capsys, monkeypatch):
    # main builds only the named subcommand's arguments; help, usage
    # errors and exit codes must not tell the difference
    monkeypatch.setenv("COLUMNS", "80")
    for name in cli._SUBCOMMANDS:
        assert (cli.build_parser(name).format_help()
                == cli.build_parser().format_help()), name
        texts = []
        for parser in (cli.build_parser(name), cli.build_parser()):
            with pytest.raises(SystemExit) as info:
                parser.parse_args([name, "--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1], name
    cfg = _config(tmp_path, PLATE)
    out = ["--out", str(tmp_path)]
    cases = [[], ["--help"], ["bend", "--config", cfg] + out,
             ["check", "--config", cfg, "--model", "4"] + out,
             ["check", "--config", cfg, "--constants", "exact"] + out,
             ["check"] + out, ["check", "--config", cfg, "--threads", "x"],
             ["check", "--help"]]
    cases += [[command, "--config", cfg, "--force"] + out
              for command in ("check", "energy", "compare3d",
                              "loads-reduce", "minimize")]
    fast = [_main_output(argv, capsys) for argv in cases]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert fast == [_main_output(argv, capsys) for argv in cases]
    assert [rc for rc, _, _ in fast] == [1, 0, 1, 1, 1, 1, 1, 0,
                                         1, 1, 1, 1, 0]


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = _config(tmp_path, PLATE)
    rc = main(["check", "--config", cfg, "--threads", "0",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_threads_flag_overrides_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cfg = _config(tmp_path, PLATE)
    rc = main(["check", "--config", cfg, "--threads", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
