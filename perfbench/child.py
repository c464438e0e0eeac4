"""One benchmark child process: set-up, then a closed loop of CLI rounds.

    python perfbench/child.py setup SPEC.json   # time set-up, print it, exit
    python perfbench/child.py run SPEC.json     # set-up, rounds, checks

The parent (``run.py``) starts this script with the thread environment
already pinned and ``src`` on ``PYTHONPATH``.  Only the standard library is
imported before the set-up timer starts, so ``setup_s`` covers importing
shellreduce (and numpy/scipy through it), parsing the config, reducing the
loads and building the reference.

A run repeats the workload's commands, one after another, until the next
round would overrun the time budget.  The first round is a warm-up that the
parent leaves out of every metric; after it the run always measures one
round, and a traced run alternates untraced and traced rounds (at least one
of each) so the tracing overhead is measured in the same process.  Output
checks run after each round with tracing paused.  The result JSON and, for
traced runs, the spans are written at the end.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def set_up(config_path, src):
    """Seconds from importing shellreduce to a built reference."""
    t0 = time.perf_counter()
    import shellreduce
    from shellreduce.config import RunConfig
    from shellreduce.loads import reduce_loads
    from shellreduce.reference import build_reference

    with open(config_path) as fh:
        cfg = RunConfig.from_text(fh.read())
    if cfg.load_spec is not None:
        reduce_loads(cfg.load_spec, cfg.material.h)
    build_reference(cfg.chart, cfg.grid, cfg.material.h, cfg.order)
    elapsed = time.perf_counter() - t0
    here = os.path.realpath(shellreduce.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError("imported shellreduce from %s, not from %s"
                           % (here, src))
    return elapsed


def run_round(workload, index, tracer):
    """Time one pass over the workload's commands, then check the outputs."""
    from workloads import run_cli

    first_span = len(tracer.spans) if tracer else 0
    commands = []
    for label, metric, argv in workload.commands():
        if tracer:
            tracer.run_id = "r%d.%s" % (index, label)
            tracer.enabled = True
            sid = tracer.open("cli." + argv[0])
        t0 = time.perf_counter()
        try:
            rc, stdout = run_cli(argv)
            crash = None
        except Exception:       # a crashing command is a failed command
            rc, stdout, crash = -1, "", traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(sid)
            tracer.enabled = False
        commands.append({"label": label, "metric": metric, "seconds": seconds,
                         "rc": rc, "stdout": stdout, "crash": crash})
    spans = tracer.spans[first_span:] if tracer else None

    for cmd in commands:
        stdout = cmd.pop("stdout")
        crash = cmd.pop("crash")
        if crash:
            cmd["failures"] = ["%s crashed:\n%s" % (cmd["label"], crash)]
            continue
        try:
            cmd["failures"] = workload.check(cmd["label"], cmd["rc"], stdout)
        except Exception:
            cmd["failures"] = ["%s: output check raised:\n%s"
                               % (cmd["label"], traceback.format_exc())]
    record = {"traced": tracer is not None, "commands": commands,
              "wall": sum(c["seconds"] for c in commands)}
    if tracer:
        from tracing import layer_metrics
        record["layers"] = layer_metrics(spans)
    return record


def versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))}


def main(argv):
    mode, spec_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    setup_s = set_up(spec["config"], spec["src"])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS
    from tracing import Tracer, install

    workload = WORKLOADS[spec["workload"]](spec["workdir"], spec["seed"],
                                           spec["grid"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # round 0 is the warm-up; after it, traced runs alternate plain and
        # traced rounds
        traced = tracer if (tracer and len(rounds) % 2 == 0
                            and rounds) else None
        rounds.append(run_round(workload, len(rounds), traced))
        rounds[-1]["warmup"] = len(rounds) == 1
        now = time.perf_counter()
        if len(rounds) < (3 if tracer else 2):
            continue
        if now - start + (now - round_start) > spec["seconds"]:
            break

    result = {"setup_s": setup_s, "rounds": rounds,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": versions()}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.dump(spec["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
