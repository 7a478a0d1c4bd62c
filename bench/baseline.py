#!/usr/bin/env python3
"""Run every workload over two sets of seeds and summarise the end-to-end metrics.

    python3 bench/baseline.py --seeds 0-9 --repeat-seeds 10-19 --out bench/baseline.json

Each (workload, seed) runs ``bench/run.py`` in its own child process, tracing
off, for ``run_seconds`` of ``BENCHMARK.json``.  The first set runs every
workload over ``--seeds``, then the repeat set runs them all again over
``--repeat-seeds``, as two sets of runs of the same code.  For every metric
each set gives the median, the quartiles of ``statistics.quantiles(values,
n=4)`` and the spread (quartile distance over median); the repeat set adds
the median change of the end-to-end metrics and of ``machine_probe_s``, the
machine's own speed, against the first set.  One traced
run per workload, on the first seed, adds its per-layer metrics.  The
summary names the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from run import OUT_DIR, WORKLOAD_NAMES, load_benchmark  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return {"last": last, "record": record}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure_set(seeds: list[int], bench: dict, first: dict | None) -> dict:
    """Every workload over ``seeds``; with ``first``, the change of each
    median against that earlier set.  Each seed runs every workload in turn,
    so that a slow phase of the machine falls on a few runs of each workload
    rather than on every run of one."""
    by_workload = {w: [] for w in WORKLOAD_NAMES}
    for seed in seeds:
        for workload in WORKLOAD_NAMES:
            by_workload[workload].append(run(workload, seed, 0))
            print(f"{workload} seed {seed}: {by_workload[workload][-1]['last']['metrics']}", file=sys.stderr, flush=True)
    out = {}
    for workload, runs in by_workload.items():
        metrics = {}
        for name, entry in runs[0]["record"]["metrics"].items():
            values = [r["record"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": entry["unit"], **summarise(values)}
        out[workload] = {
            "operation": runs[0]["record"]["operation"],
            "op_alias": runs[0]["record"]["op_alias"],
            "attempted": sum(r["last"]["attempted"] for r in runs),
            "failed": sum(r["last"]["failed"] for r in runs),
            "reference_bitwise": [r["record"]["reference"]["bitwise_identical"] for r in runs],
            "metrics": metrics,
        }
        bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
        for name in [*bounds, "machine_probe_s"]:
            m = metrics[name]
            line = f"{workload:16s} {name:15s} median {m['median']:.5g} spread {m['spread']:.4f}"
            if first is not None:
                m["median_change"] = m["median"] / first[workload]["metrics"][name]["median"] - 1.0
                line += f" median change {m['median_change']:+.4f}"
            print(f"{line} (bound {bounds.get(name, '-')})", flush=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--repeat-seeds", default="10-19", help="inclusive range of the repeat set")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = load_benchmark()
    seeds, repeat_seeds = seed_list(args.seeds), seed_list(args.repeat_seeds)
    workloads = measure_set(seeds, bench, None)
    for workload in WORKLOAD_NAMES:
        traced = run(workload, seeds[0], 1)
        workloads[workload]["per_layer_seed"] = seeds[0]
        workloads[workload]["per_layer"] = {k: v for k, v in traced["record"]["per_layer"].items() if v["value"] != 0}
    summary = {
        "run_seconds": bench["run_seconds"],
        "machine": traced["record"]["machine"],
        "seeds": seeds,
        "workloads": workloads,
    }
    write(args.out, summary)  # the first set survives a repeat set that fails
    summary["repeat"] = {"seeds": repeat_seeds, "workloads": measure_set(repeat_seeds, bench, workloads)}
    write(args.out, summary)
    return 0


def write(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
