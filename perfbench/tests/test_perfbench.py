"""Tests of the benchmark itself (17x17 grids; about a minute on 2 cores).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import child_env                     # noqa: E402
from tracing import layer_metric_names        # noqa: E402
from workloads import WORKLOADS               # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--grid", "17"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layer_metric_names()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks_and_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_solver_layers_are_absent_from_the_cap_analysis():
    proc = _run("cap-analysis-97", 1)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in ("geometry.surface_bundle_dual.calls",
                 "minimizer.value_and_grad.calls", "minimizer.iterations"):
        assert metrics[name]["value"] == 0
    assert metrics["oracle3d.integrate_3d.calls"]["value"] == 3


def test_compare3d_csv_is_identical_for_one_and_two_threads(tmp_path):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("chart.kind = sphere-cap\nchart.radius = 1.0\n"
                   "chart.extent = 0.6\ngrid.n1 = 17\ngrid.n2 = 17\n"
                   "material.mu = 1.0\nmaterial.lambda = 1.0\n"
                   "material.h = 0.05\ncompare3d.h_values = 0.04, 0.02, 0.01\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("threads" + threads)
        subprocess.run(
            [sys.executable, "-m", "shellreduce.cli", "compare3d",
             "--config", str(cfg), "--threads", threads, "--out", str(out)],
            env=child_env(), cwd=ROOT, check=True, capture_output=True,
            timeout=120)
        outputs.append((out / "compare3d.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cap-analysis-97", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
