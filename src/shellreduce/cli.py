"""Command-line driver.

Commands: check, energy, compare3d, minimize, loads-reduce.  Every command
takes --config PATH (flat key=value file, see the config module docstring)
plus the shared flags --model, --constants, --threads, --out; minimize also
takes --force.

Exit codes: 0 success, 1 usage or configuration error, 2 admissibility
failure (a threshold test failed, or the requested thickness is at or above
its bound), 3 orientation violation, a 3-D slab folded to det F <= 0, or a
non-finite input position (the report names the offending grid node).

Heavy imports happen inside the command handlers so --threads can cap the
numeric thread pools before the array library starts them.  ``main`` also
raises glibc's heap trim and mmap thresholds, once per process, so that the
minimizer's per-iteration arrays reuse heap pages instead of faulting fresh
ones in (``_keep_freed_heap_pages``).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys


@functools.cache
def _keep_freed_heap_pages():
    """Ask glibc to keep freed heap pages instead of handing them back.

    By default glibc returns the top of the heap to the kernel whenever
    more than 128 kB of it is free, and maps each block above its dynamic
    mmap threshold fresh.  An L-BFGS iteration allocates and frees about
    2 MB of 19-57 kB arrays, so the heap shrank after every iteration and
    its pages faulted back in on the next.  Minor faults per run, median
    of ten in one process: ``minimize`` of the 49^2 cap shell (30
    iterations) 16,500 -> 3, and its 28 ms of system time in a 0.17 s run
    gone; ``check``, three ``energy`` and ``compare3d`` on the 97^2 cap
    15,000 -> 780, for about 1 MB more peak memory.  The trim threshold
    alone gives 4,100 there: setting either one turns the dynamic mmap
    threshold off, so the mmap threshold is raised too.

    Runs once per process, from ``main`` only, since the heap belongs to
    the process; where the C library has no ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD
        mallopt(-3, 16 << 20)       # M_MMAP_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def _fmt(x):
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        if x != x:
            return "nan"
        if x == float("inf"):
            return "inf"
        return "%.12g" % x
    return str(x)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1: its own 2 is taken by
    the admissibility failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


_COMMON = (
    ("--config", dict(required=True, metavar="PATH",
                      help="run configuration file (key = value lines)")),
    ("--model", dict(metavar="N", help="override the config key model")),
    ("--constants", dict(metavar="MODE",
                         help="override the config key constants")),
    ("--threads", dict(type=int, metavar="N",
                       help="cap numeric worker threads (default: "
                            "hardware count)")),
    ("--out", dict(default=".", metavar="DIR",
                   help="directory for output files (default: .)")),
)

# subcommand -> (help, its arguments after the common ones)
_SUBCOMMANDS = {
    "check": ("admissibility / convexity threshold report", ()),
    "energy": ("energy breakdown of a deformation file", (
        ("--deformation", dict(metavar="PATH",
                               help="deformed surface (VTK structured "
                                    "grid); defaults to config key "
                                    "energy.deformation")),
        ("--dump-density", dict(action="store_true",
                                help="also write a VTK with per-node "
                                     "densities")))),
    "compare3d": ("reduced energies vs. the 3-D slab integral over a "
                  "thickness sweep", ()),
    "minimize": ("minimize the shell energy; writes VTK + trace CSV", (
        ("--force", dict(action="store_true",
                         help="run even when the thickness check fails "
                              "(a warning is printed)")),)),
    "loads-reduce": ("reduce a 3-D load specification to midsurface "
                     "resultants", ()),
}


def build_parser(command=None):
    """The argument parser.  Given a ``command``, only that subcommand gets
    its arguments; the others keep their names and help, which is all a
    command line naming ``command`` can reach."""
    parser = _Parser(
        prog="shellreduce",
        description="Reduced shell energies, admissibility thresholds, "
                    "and midsurface minimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, extra) in _SUBCOMMANDS.items():
        p_sub = sub.add_parser(name, help=text)
        if command in (None, name):
            for flag, kwargs in _COMMON + extra:
                p_sub.add_argument(flag, **kwargs)
    return parser


def _load_config(args):
    from .config import RunConfig, parse_config

    try:
        with open(args.config, "r") as fh:
            text = fh.read()
    except OSError as exc:
        from .errors import ConfigError
        raise ConfigError("cannot read config %s: %s" % (args.config, exc))
    raw = parse_config(text)
    if args.model is not None:
        raw["model"] = args.model
    if args.constants is not None:
        raw["constants"] = args.constants
    return RunConfig.from_mapping(raw)


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(cfg, args):
    from .admissibility import admissibility_report
    from .reference import build_reference
    from .vtkio import write_csv

    ref = build_reference(cfg.chart, cfg.grid, cfg.material.h, cfg.order)
    report = admissibility_report(ref, cfg.material.h, safety=cfg.safety)
    rows = report.rows()
    write_csv(_outpath(args, "check-report.csv"), ("quantity", "value"),
              [(k, _fmt(v)) for k, v in rows])
    width = max(len(k) for k, _ in rows)
    print("admissibility report: %s, h = %g, safety = %g"
          % (cfg.chart.name, cfg.material.h, cfg.safety))
    for key, value in rows:
        print("  %-*s  %s" % (width, key, _fmt(value)))
    verdict = report.ok(cfg.model)
    print("model %d: h = %g vs h_max = %s -> %s"
          % (cfg.model, cfg.material.h, _fmt(report.h_max[cfg.model]),
             "ADMISSIBLE" if verdict else "EXCEEDED"))
    return 0 if verdict else 2


def cmd_energy(cfg, args):
    from .energy import total_energy
    from .errors import ConfigError
    from .geometry import deformed_state
    from .reference import build_reference
    from .vtkio import read_vtk, write_csv, write_vtk

    path = args.deformation or cfg.raw.get("energy.deformation")
    if not path:
        raise ConfigError("energy needs --deformation or the config key "
                          "energy.deformation")
    positions, _ = read_vtk(path)
    ref = build_reference(cfg.chart, cfg.grid, cfg.material.h, cfg.order)
    state = deformed_state(positions, cfg.grid, cfg.material.h, cfg.order)
    breakdown = total_energy(state, ref, cfg.material, cfg.model,
                             cfg.constants, loads=cfg.load_spec)
    rows = [("shell", breakdown.shell_term),
            ("curv_log", breakdown.curv_log_term),
            ("curv_det2", breakdown.curv_det2_term),
            ("constant", breakdown.constant_term),
            ("load", breakdown.load_term),
            ("internal", breakdown.internal),
            ("total", breakdown.total)]
    write_csv(_outpath(args, "energy-breakdown.csv"), ("term", "value"),
              rows)
    print("energy breakdown: model %d, constants %s"
          % (cfg.model, cfg.constants))
    for key, value in rows:
        print("  %-9s % .17e" % (key, value))
    if args.dump_density:
        write_vtk(_outpath(args, "energy-density.vtk"), positions,
                  fields=breakdown.fields, comment="reduced energy densities")
    return 0


def cmd_compare3d(cfg, args):
    from .errors import ConfigError
    from .geometry import TrigDisplacement, displace_chart
    from .grids import MAX_THICKNESS_NODES
    from .oracle3d import compare_reduced_3d
    from .vtkio import write_csv

    h_values = cfg.float_list("compare3d.h_values",
                              default=(0.04, 0.02, 0.01))
    amplitude = cfg.scalar("compare3d.amplitude", float, 0.05)
    nodes = cfg.scalar("compare3d.thickness_nodes", int, 16, minimum=1)
    if nodes > MAX_THICKNESS_NODES:
        raise ConfigError("compare3d.thickness_nodes must be <= %d, got %d"
                          % (MAX_THICKNESS_NODES, nodes))
    deformed = displace_chart(
        cfg.chart, TrigDisplacement.standard(cfg.chart.domain, amplitude))
    result = compare_reduced_3d(cfg.chart, deformed, cfg.grid,
                                cfg.material.mu, cfg.material.lam,
                                h_values, constants=cfg.constants,
                                order=cfg.order, nodes=nodes)
    header = ("h", "model", "E_reduced", "E_3d", "abs_err", "fitted_order")
    rows = [(h, model, reduced, full3d, err, result["orders"][model])
            for h, model, reduced, full3d, err in result["rows"]]
    write_csv(_outpath(args, "compare3d.csv"), header, rows)
    print("reduced vs 3-D slab energies (amplitude %g):" % amplitude)
    print("  %10s %5s %22s %22s %12s %12s" % header)
    for row in rows:
        print("  %10g %5d %22.15e %22.15e %12.4e %12.4f" % row)
    return 0


def cmd_minimize(cfg, args):
    from .errors import InadmissibleThickness
    from .minimizer import minimize
    from .reference import build_reference
    from .vtkio import write_csv, write_vtk

    ref = build_reference(cfg.chart, cfg.grid, cfg.material.h, cfg.order)
    cadence = cfg.scalar("minimize.snapshot_every", int, 0, minimum=0)

    def snapshot(it, positions):
        if it > 0 and it % cadence == 0:
            write_vtk(_outpath(args, "minimize-iter%06d.vtk" % it),
                      positions, comment="iterate %d" % it)

    try:
        result = minimize(ref, cfg.material, cfg.solver,
                          loads=cfg.load_spec,
                          clamped_edges=cfg.clamped_edges or None,
                          force=args.force, safety=cfg.safety,
                          callback=snapshot if cadence else None)
    except InadmissibleThickness as exc:
        print("thickness gate failed for model %d: h = %g >= h_max = %s"
              % (cfg.model, cfg.material.h,
                 _fmt(exc.report.h_max[cfg.model])), file=sys.stderr)
        for key, value in exc.report.rows():
            print("  %s = %s" % (key, _fmt(value)), file=sys.stderr)
        raise
    if not result.report.ok(cfg.model):
        print("warning: thickness %g is at or above the model-%d bound %s; "
              "convexity of the integrand is not guaranteed (--force)"
              % (cfg.material.h, cfg.model,
                 _fmt(result.report.h_max[cfg.model])), file=sys.stderr)
    final = _outpath(args, "minimize-final.vtk")
    trace = _outpath(args, "minimize-trace.csv")
    write_vtk(final, result.positions, comment="minimizer final surface")
    write_csv(trace, ("iter", "energy", "grad_norm", "step"), result.trace)
    print("minimize: model %d, %d iterations, converged=%s (%s)"
          % (cfg.model, result.iterations, result.converged, result.message))
    print("  energy    % .17e" % result.energy)
    print("  grad norm % .3e" % result.grad_norm)
    print("  clamped   %s" % ",".join(result.clamped_edges))
    print("  wrote %s and %s" % (final, trace))
    return 0


def cmd_loads_reduce(cfg, args):
    from .errors import ConfigError
    from .loads import reduce_loads
    from .vtkio import write_csv

    if cfg.load_spec is None:
        raise ConfigError("no loads configured (loads.* keys are empty)")
    res = reduce_loads(cfg.load_spec, cfg.material.h)
    named = [("force_area", res.force_area),
             ("moment_area", res.moment_area)]
    for edge in sorted(res.force_edge):
        named.append(("force_edge.%s" % edge, res.force_edge[edge]))
    for edge in sorted(res.moment_edge):
        named.append(("moment_edge.%s" % edge, res.moment_edge[edge]))
    # config loads are 3-vectors, so each resultant's value is its min and max
    rows = [(name, k, value, value, value)
            for name, vec in named if vec is not None
            for k, value in enumerate(map(float, vec))]
    write_csv(_outpath(args, "loads-resultants.csv"),
              ("quantity", "component", "value", "min", "max"), rows)
    print("reduced load resultants at h = %g (boundary measure: %s)"
          % (res.h, res.boundary_measure))
    for name, k, value, _, _ in rows:
        print("  %-18s [%d]  % .12e" % (name, k, value))
    return 0


_COMMANDS = {
    "check": cmd_check,
    "energy": cmd_energy,
    "compare3d": cmd_compare3d,
    "minimize": cmd_minimize,
    "loads-reduce": cmd_loads_reduce,
}


def main(argv=None):
    _keep_freed_heap_pages()
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("shellreduce: --threads must be >= 1", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import (ConfigError, InadmissibleInitialState,
                         InadmissibleThickness, NonFinitePosition,
                         NonPositiveDeterminant, OrientationViolation,
                         ShellError, ThicknessError)

    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print("shellreduce: config error: %s" % exc, file=sys.stderr)
        return 1
    except (OrientationViolation, NonPositiveDeterminant, NonFinitePosition,
            InadmissibleInitialState) as exc:
        print("shellreduce: %s" % exc, file=sys.stderr)
        return 3
    except (InadmissibleThickness, ThicknessError) as exc:
        print("shellreduce: %s" % exc, file=sys.stderr)
        return 2
    except (ShellError, OSError) as exc:
        print("shellreduce: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
