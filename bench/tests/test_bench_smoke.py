"""Smoke test of the benchmark at toy size.

Every workload runs through ``bench/run.py`` as a child process, traced and
untraced, at ``--scale smoke``.  The test checks the output contract and the
trace coverage; it sets no wall-clock bounds.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import TRACED  # noqa: E402

WORKLOADS = ("desk-zoo", "train-paper", "train-paper-reg", "toy-paper")
ISSUE_METRICS = {
    "desk-zoo": ("zoo_train_s", "zoo_measure_s", "zoo_total_s"),
    "train-paper": ("step_p50_s", "step_fwd_p50_s", "step_bwd_p50_s", "train_samples_per_s"),
    "train-paper-reg": ("step_p50_s", "step_fwd_p50_s", "step_bwd_p50_s", "train_samples_per_s"),
    "toy-paper": ("toy_run_s",),
}
COMMON_METRICS = ("setup_s", "peak_rss_mb", "error_rate")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, seed=0):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in WORKLOADS:
        proc = _run(w, 1)
        out[w] = _result(proc)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_metric(workload):
    proc = _run(workload, 0)
    last = _result(proc)
    names = [m["name"] for m in _bench()["end_to_end"]]
    assert list(last["metrics"]) == names
    for m in last["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0
    with open(os.path.join(BENCH, "out", f"{workload}-seed0-trace0-smoke.json")) as fh:
        record = json.load(fh)
    # op_p50_s is printed under the workload's own name too, not stored twice
    assert f"op_p50_s = {record['op_alias']}" in proc.stdout
    for name in COMMON_METRICS + ISSUE_METRICS[workload]:
        assert name in record["metrics"] or name == record["op_alias"]
    assert record["metrics"]["error_rate"]["value"] == 0.0
    assert record["reference"] is not None and record["reference"]["max_rel_drift"] == 0.0
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads"):
        assert key in record["machine"]


def test_traced_runs_emit_every_per_layer_metric(traced):
    names = [m["name"] for m in _bench()["per_layer"]]
    for last in traced.values():
        assert list(last["metrics"]) == names


def test_traced_runs_span_every_module(traced):
    seen = set()
    for w in WORKLOADS:
        with gzip.open(os.path.join(BENCH, "out", f"{w}-seed0-trace1-smoke.spans.json.gz"), "rt") as fh:
            spans = json.load(fh)
        seen |= {spans["names"][row[0]].split(".")[0] for row in spans["spans"]}
    assert seen == set(TRACED)


def test_regularizer_layers_are_reached_only_when_on(traced):
    for name in ("model.Model.apply_layer.calls", "autodiff.logdet_gram.calls"):
        assert traced["train-paper"]["metrics"][name]["value"] == 0
        assert traced["train-paper-reg"]["metrics"][name]["value"] > 0


def test_seed_without_reference_fails():
    # at smoke size only seed 0 has stored reference outputs
    proc = _run("toy-paper", 0, seed=1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == last["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("toy-paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
