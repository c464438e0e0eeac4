"""shellreduce benchmark: three seeded CLI workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/shellreduce`` must exist).
The script writes the workload's seeded inputs under ``.perfbench/``, then
starts one child that runs the workload's ``shellreduce.cli`` commands in a
closed loop for about ``--seconds`` and checks every output; set-up is timed
in fresh child processes before and after it.  It prints a human-readable
table and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  A results file with the machine record goes to
``.perfbench/results/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import layer_metric_names
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# one BLAS/OpenMP thread per process; compare3d's own pool gets --threads 2
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}
SETUP_SAMPLES = 4           # set-up-only children before and after the run
SETUP_RESERVE = 30.0        # seconds kept back for the children after it
TIME_LIMIT = 170.0          # seconds for the whole run
COMMAND_METRICS = ("check_s", "energy_s", "compare3d_s", "minimize_s")


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode, spec_path, timeout):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, spec_path],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("child %s exited %d:\n%s"
                           % (mode, proc.returncode, proc.stderr[-4000:]))
    return proc.stdout


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "thread_env": THREAD_ENV,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(rounds, setup_samples, peak_rss_mb, trace):
    """(metrics for the JSON line, per-command medians for the table)."""
    plain = [r for r in rounds if not r["traced"] and not r["warmup"]]
    per_command = {}
    for key in COMMAND_METRICS:
        totals = [sum(c["seconds"] for c in r["commands"] if c["metric"] == key)
                  for r in plain]
        if any(totals):
            per_command[key] = statistics.median(totals)
    commands = [c for r in rounds for c in r["commands"]]
    failed = sum(1 for c in commands if c["failures"] or c["rc"] != 0)
    per_command["fail_frac"] = failed / len(commands)

    plain_wall = statistics.median(r["wall"] for r in plain)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (plain_wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return metrics, per_command, len(commands), failed

    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    for name, unit, _ in layer_metric_names():
        if name == "trace.overhead":
            value = (statistics.median(r["wall"] for r in traced)
                     / plain_wall - 1.0)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, unit)
    return metrics, per_command, len(commands), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int,
                        help="grid size override for quick smoke runs")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "shellreduce", "__init__.py")):
        print("perfbench: no shellreduce sources under %s" % SRC,
              file=sys.stderr)
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](workdir, args.seed, args.grid)
    workload.prepare()
    spec = {"workload": args.workload, "seed": args.seed, "grid": workload.n,
            "workdir": workdir, "config": workload.config, "src": SRC,
            "seconds": args.seconds, "trace": args.trace,
            "result": os.path.join(workdir, "child-result.json"),
            "spans": os.path.join(workdir, "spans.jsonl")}
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    def setup_sample():
        return json.loads(run_child("setup", spec_path, 60).splitlines()[-1])[
            "setup_s"]

    try:
        # set-up is sampled on both sides of the run, so a slow minute of a
        # shared host weighs on only part of the samples
        setup_samples = [setup_sample() for _ in range(SETUP_SAMPLES)]
        remaining = TIME_LIMIT - (time.perf_counter() - started)
        run_child("run", spec_path, remaining - SETUP_RESERVE)
        setup_samples += [setup_sample() for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    with open(spec["result"]) as fh:
        child = json.load(fh)
    setup_samples.append(child["setup_s"])
    # command outputs were checked in the child; only the record is kept
    shutil.rmtree(os.path.join(workdir, "out"))

    metrics, per_command, attempted, failed = summarize(
        child["rounds"], setup_samples, child["peak_rss_mb"], args.trace)

    print("workload %s, seed %d, grid %d^2, %d rounds (%s)"
          % (args.workload, args.seed, workload.n, len(child["rounds"]),
             "traced run" if args.trace else "untraced run"))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    for name, value in per_command.items():
        unit = "" if name == "fail_frac" else "s"
        print("  %-36s %14.6g %s" % (name, value, unit))
    for rnd in child["rounds"]:
        for cmd in rnd["commands"]:
            for message in cmd["failures"]:
                print("  FAILED %s" % message)

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "grid": workload.n,
              "trace": args.trace, "seconds": args.seconds,
              "machine": dict(machine_record(), **child["versions"]),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "commands": per_command, "setup_samples": setup_samples,
              "rounds": child["rounds"]}
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
