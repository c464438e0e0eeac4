"""The three benchmark workloads: seeded inputs, CLI commands, output checks.

Each workload writes its inputs (a config file and, for the cap analysis, a
deformation VTK) from the seed with plain numpy, so the program under test
receives only generated files.  ``commands`` lists the ``shellreduce.cli``
invocations of one round; ``check`` verifies one command's outputs against
the slow oracles that stay in the tree (the ``scan_*`` threshold scans and
``integrate_3d``) and returns a list of failure messages.

``prepare`` runs in the benchmark's parent process and imports only numpy.
``check`` runs in the child, outside every timed region and traced span, and
imports shellreduce lazily.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

# unit sphere cap shared by the two cap workloads
CAP_RADIUS = 1.0
CAP_EXTENT = 0.6
CAP_H = 0.05

# criterion-7 plate
PLATE_H = 0.1
PLATE_LOAD = 0.001

SCAN_POINTS = 2001          # h-grid of the brute-force threshold scans
ENERGY_RTOL = 1e-5          # reduced internal energy vs integrate_3d
REPLAY_RTOL = 1e-9          # energy of minimize-final.vtk vs printed energy
MIN_ORDERS = {1: 4.5, 2: 2.5, 3: 4.5}   # criterion 2


def run_cli(argv):
    """Run ``shellreduce.cli.main`` and return (exit code, captured stdout)."""
    from shellreduce import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _config_text(pairs):
    return "".join("%s = %s\n" % kv for kv in pairs)


def _cap_pairs(n, model):
    return [("chart.kind", "sphere-cap"), ("chart.radius", CAP_RADIUS),
            ("chart.extent", CAP_EXTENT), ("grid.n1", n), ("grid.n2", n),
            ("material.mu", 1.0), ("material.lambda", 1.0),
            ("material.h", CAP_H), ("model", model)]


def _vec(x, y, z):
    return "%r, %r, %r" % (float(x), float(y), float(z))


def _write_vtk(path, positions):
    """Legacy-VTK structured grid in the layout shellreduce reads."""
    n1, n2, _ = positions.shape
    lines = ["# vtk DataFile Version 3.0", "benchmark deformation", "ASCII",
             "DATASET STRUCTURED_GRID", "DIMENSIONS %d %d 1" % (n2, n1),
             "POINTS %d double" % (n1 * n2)]
    lines += ["%.17g %.17g %.17g" % tuple(p) for p in positions.reshape(-1, 3)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """One named workload; subclasses fill in inputs, commands and checks."""

    name = ""
    why = ""
    grid = 0

    def __init__(self, workdir, seed, grid=None):
        self.workdir = workdir
        self.seed = int(seed)
        self.n = int(grid or self.grid)
        self.config = os.path.join(workdir, "run.cfg")

    def out(self, label):
        return os.path.join(self.workdir, "out", label)

    def prepare(self):
        """Write the seeded inputs into ``workdir``."""
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        with open(self.config, "w") as fh:
            fh.write(_config_text(self.config_pairs(rng)))

    def config_pairs(self, rng):
        raise NotImplementedError

    def commands(self):
        """[(label, metric, argv)] of one round, run in this order."""
        raise NotImplementedError

    def check(self, label, rc, stdout):
        raise NotImplementedError

    # -- shared minimize checks ----------------------------------------------

    def _minimize_commands(self):
        return [("minimize", "minimize_s",
                 ["minimize", "--config", self.config,
                  "--out", self.out("minimize")])]

    def _check_minimize(self, rc, stdout):
        """Trace nonincreasing; the final surface replays the printed energy.

        Returns (failures, final positions, trace energies, printed line).
        """
        from shellreduce.vtkio import read_vtk

        if rc != 0:
            return ["minimize exited %d" % rc], None, None, ""
        out = self.out("minimize")
        energies = np.array([float(r["energy"]) for r in
                             read_rows(os.path.join(out, "minimize-trace.csv"))])
        failures = []
        if not np.all(np.isfinite(energies)):
            failures.append("non-finite energy in the trace")
        if not np.all(np.diff(energies) <= 0.0):
            failures.append("energy trace is not nonincreasing")
        printed = float(next(line.split()[1] for line in stdout.splitlines()
                             if line.strip().startswith("energy")))
        final = os.path.join(out, "minimize-final.vtk")
        rc2, _ = run_cli(["energy", "--config", self.config,
                          "--deformation", final,
                          "--out", os.path.join(out, "replay")])
        if rc2 != 0:
            failures.append("energy on minimize-final.vtk exited %d" % rc2)
        else:
            rows = read_rows(os.path.join(out, "replay",
                                          "energy-breakdown.csv"))
            total = float(next(r["value"] for r in rows
                               if r["term"] == "total"))
            rel = abs(total - printed) / max(abs(printed), 1e-300)
            if not rel <= REPLAY_RTOL:
                failures.append("replayed energy %.17e vs printed %.17e "
                                "(rel %.2e)" % (total, printed, rel))
        positions, _ = read_vtk(final)
        head = stdout.splitlines()[0] if stdout else ""
        return failures, positions, energies, head


class PlateClamped(Workload):
    name = "plate-clamped-17"
    why = ("criterion-7 clamped plate on 17^2 solved to convergence: "
           "iteration-bound, per-call Dual and geometry overhead dominate, "
           "no 3-D oracle")
    grid = 17

    def config_pairs(self, rng):
        # The load stays at the criterion-7 value for every seed: the
        # iteration count to gtol_abs = 4e-8 is chaotic in the load (a 0.05%
        # change moves it by up to 40%), so a seeded load would measure that
        # chaos instead of the code.
        del rng
        load = _vec(0.0, 0.0, PLATE_LOAD)
        return [("chart.kind", "plate"), ("chart.length1", 1.0),
                ("chart.length2", 1.0), ("grid.n1", self.n),
                ("grid.n2", self.n), ("material.mu", 1.0),
                ("material.lambda", 1.0), ("material.h", PLATE_H),
                ("model", 1), ("boundary.clamped", "left,right,bottom,top"),
                ("loads.face_plus", load), ("loads.face_minus", load),
                ("solver.max_iter", 7000), ("solver.gtol_abs", 4e-8)]

    def commands(self):
        return self._minimize_commands()

    def check(self, label, rc, stdout):
        failures, final, _, head = self._check_minimize(rc, stdout)
        if final is None:
            return failures
        if "converged=True" not in head:
            failures.append("plate solve did not converge: %s" % head)
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
        if not 0.0 < deflection < PLATE_H:
            failures.append("deflection %.4g outside (0, h)" % deflection)
        return failures


class CapShell(Workload):
    name = "cap-shell-49"
    why = ("model-3 cap shell on 49^2 with free edges and edge traction, "
           "fixed 30-iteration budget: stencils and the duplicated "
           "admissibility report weigh in")
    grid = 49
    iterations = 30

    def config_pairs(self, rng):
        pressure = 0.002 * rng.uniform(0.8, 1.2)
        traction = 0.005 * rng.uniform(0.8, 1.2)
        face = _vec(0.0, 0.0, -pressure)
        return _cap_pairs(self.n, 3) + [
            ("boundary.clamped", "left,right"),
            ("loads.face_plus", face), ("loads.face_minus", face),
            ("loads.edge.top.0", _vec(0.0, traction, 0.0)),
            ("solver.max_iter", self.iterations),
            ("solver.gtol_abs", 1e-14), ("solver.gtol_rel", 1e-12)]

    def commands(self):
        return self._minimize_commands()

    def check(self, label, rc, stdout):
        failures, _, energies, head = self._check_minimize(rc, stdout)
        if energies is None:
            return failures
        if not energies[-1] < energies[0]:
            failures.append("final energy %.6e not below initial %.6e"
                            % (energies[-1], energies[0]))
        if "%d iterations" % self.iterations not in head:
            failures.append("solve stopped before its budget: %s" % head)
        return failures


class CapAnalysis(Workload):
    name = "cap-analysis-97"
    why = ("verification pipeline on the 97^2 cap (check, energy x3 models, "
           "compare3d): admissibility and integrate_3d dominate, no minimizer")
    grid = 97
    models = (1, 2, 3)

    def __init__(self, workdir, seed, grid=None):
        super().__init__(workdir, seed, grid)
        self.deformation = os.path.join(workdir, "deformation.vtk")
        self._oracle = {}

    def config_pairs(self, rng):
        amplitude = 0.05 * rng.uniform(0.9, 1.1)
        _write_vtk(self.deformation, self._deformed_positions(rng))
        return _cap_pairs(self.n, 1) + [
            ("compare3d.h_values", "0.04, 0.02, 0.01"),
            ("compare3d.amplitude", repr(amplitude)),
            ("compare3d.thickness_nodes", 16)]

    def _deformed_positions(self, rng):
        """Cap nodes plus a seeded smooth displacement (sine modes)."""
        half = CAP_RADIUS * math.sin(CAP_EXTENT) / math.sqrt(2.0)
        x = np.linspace(-half, half, self.n)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        pos = np.stack([X1, X2, np.sqrt(CAP_RADIUS ** 2 - X1 ** 2 - X2 ** 2)],
                       axis=-1)
        u = (X1 + half) / (2.0 * half)
        v = (X2 + half) / (2.0 * half)
        for k1 in (1, 2):
            for k2 in (1, 2):
                mode = np.sin(math.pi * k1 * u) * np.sin(math.pi * k2 * v)
                coef = 0.01 * rng.uniform(-1.0, 1.0, size=3) / (k1 * k2)
                pos += mode[..., None] * coef
        return pos

    def commands(self):
        cmds = [("check", "check_s",
                 ["check", "--config", self.config, "--out", self.out("check")])]
        for m in self.models:
            label = "energy-m%d" % m
            cmds.append((label, "energy_s",
                         ["energy", "--config", self.config, "--model", str(m),
                          "--deformation", self.deformation, "--dump-density",
                          "--out", self.out(label)]))
        cmds.append(("compare3d", "compare3d_s",
                     ["compare3d", "--config", self.config, "--threads", "2",
                      "--out", self.out("compare3d")]))
        return cmds

    def _reference(self):
        if "ref" not in self._oracle:
            from shellreduce.config import RunConfig
            from shellreduce.reference import build_reference

            with open(self.config) as fh:
                cfg = RunConfig.from_text(fh.read())
            self._oracle["cfg"] = cfg
            self._oracle["ref"] = build_reference(cfg.chart, cfg.grid,
                                                  cfg.material.h, cfg.order)
        return self._oracle["cfg"], self._oracle["ref"]

    def _scans(self):
        """Brute-force threshold scans, once per run (the cap is fixed)."""
        if "scans" not in self._oracle:
            from shellreduce.admissibility import (scan_stretch_cubic,
                                                   scan_stretch_full,
                                                   scan_volume_det)
            _, ref = self._reference()
            h_grid = np.linspace(1e-3, 3.0, SCAN_POINTS)
            self._oracle["scans"] = (float(h_grid[1] - h_grid[0]), {
                "stretch_full.h0": scan_stretch_full(ref, h_grid),
                "stretch_cubic.h0": scan_stretch_cubic(ref, h_grid),
                "volume.h3": scan_volume_det(ref, h_grid)})
        return self._oracle["scans"]

    def _energy_3d(self):
        """Through-thickness integral of the deformation, once per run."""
        if "e3d" not in self._oracle:
            from shellreduce.energy import deformed_state
            from shellreduce.oracle3d import integrate_3d
            from shellreduce.vtkio import read_vtk

            cfg, ref = self._reference()
            positions, _ = read_vtk(self.deformation)
            state = deformed_state(positions, cfg.grid, cfg.material.h,
                                   cfg.order)
            self._oracle["e3d"] = integrate_3d(state, ref, cfg.material)
        return self._oracle["e3d"]

    def check(self, label, rc, stdout):
        if rc != 0:
            return ["%s exited %d" % (label, rc)]
        out = self.out(label)
        if label == "check":
            step, scans = self._scans()
            report = {r["quantity"]: float(r["value"]) for r in
                      read_rows(os.path.join(out, "check-report.csv"))
                      if r["quantity"] in scans}
            return ["%s: closed form %.6g vs scan %.6g (step %.2e)"
                    % (key, report[key], scan, step)
                    for key, scan in scans.items()
                    if not (report[key] == scan
                            or abs(report[key] - scan) <= step)]
        if label.startswith("energy"):
            rows = read_rows(os.path.join(out, "energy-breakdown.csv"))
            internal = float(next(r["value"] for r in rows
                                  if r["term"] == "internal"))
            e3d = self._energy_3d()
            rel = abs(internal - e3d) / abs(e3d)
            failures = []
            if not rel <= ENERGY_RTOL:
                failures.append("%s: internal %.12e vs integrate_3d %.12e "
                                "(rel %.2e)" % (label, internal, e3d, rel))
            if not os.path.getsize(os.path.join(out, "energy-density.vtk")):
                failures.append("%s: empty energy-density.vtk" % label)
            return failures
        orders = {int(r["model"]): float(r["fitted_order"]) for r in
                  read_rows(os.path.join(out, "compare3d.csv"))}
        return ["compare3d: model %d fitted order %.3f < %.1f"
                % (m, orders.get(m, float("nan")), lo)
                for m, lo in MIN_ORDERS.items()
                if not orders.get(m, -1.0) >= lo]


WORKLOADS = {cls.name: cls for cls in (PlateClamped, CapAnalysis, CapShell)}
