#!/usr/bin/env python3
"""Benchmark of the srr package.

    python3 bench/run.py                      # all four workloads, tracing off
    python3 bench/run.py --workload desk-zoo --seed 3 --seconds 20 --trace 0

With ``--workload`` one workload runs in this process: operations run back
to back until ``--seconds`` have passed and a whole pass of operations is
complete, and every operation's outputs are checked.  Between operations the
workload is set up again, five times in all, spread over the run; each set-up
sample adds the time of ``import numpy, srr`` in a fresh interpreter, and
``setup_s`` is their median.  ``--trace 1`` instead runs the workload's fixed
number of traced operations twice, untraced and then with the outside-in
tracer installed, and reports per-layer metrics per operation and the
tracing overhead.  Without ``--workload`` every workload runs in its own
child process, one after the other.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names are those of
``BENCHMARK.json`` at the repository root.  A fuller record, including the
machine, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
WORKLOAD_NAMES = ("desk-zoo", "train-paper", "train-paper-reg", "toy-paper")
SETUPS = 5
# Inputs come from ``--seed`` modulo this count: reference.json stores the
# outputs of these input seeds, so every run's outputs are compared.
REFERENCE_SEEDS = 20
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, srr; print(time.perf_counter() - t)"
)
# One BLAS thread: on a small shared machine a second thread makes step times
# drift with the neighbours' load (spread across runs 15% against 5%).
BLAS_THREADS = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "smoke"), default="paper",
                    help="smoke: tiny sizes of the same code paths, for the smoke test")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this seed's outputs in bench/reference.json instead of measuring")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs one workload's operations and keeps the tally of checks."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self):
        """One checked operation; returns its result, or None if it raised."""
        self.attempted += 1
        try:
            res = self.wl.op()
            problems = self.wl.check(res)
        except Exception as exc:  # a failed operation is counted, not fatal
            res, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems)
            print(f"check failed, op {self.attempted}: {'; '.join(problems)}", file=sys.stderr)
        return res

    def phase(self, seconds: float, min_ops: int, between) -> list:
        """Run operations until ``seconds`` have passed, at least ``min_ops``
        were attempted and the last pass is whole; returns the ones that
        completed.  ``between`` runs after each operation and returns the
        seconds it took, which do not count against ``seconds``."""
        results = []
        end = time.perf_counter() + seconds
        n = 0
        while n < min_ops or n % self.wl.pass_ops or time.perf_counter() < end:
            n += 1
            res = self.run_op()
            if res is not None:
                results.append(res)
            end += between()
        return results


def child_import_s() -> float:
    """Seconds that ``import numpy, srr`` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, os.path.join(ROOT, "src")],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def machine_probe_s() -> float:
    """Seconds of a fixed numpy computation that runs no srr code: a record
    of how fast the machine was, to tell its drift from a change in srr."""
    import numpy as np

    a = np.random.default_rng(0).random((200, 200))
    t = time.perf_counter()
    for _ in range(60):
        np.tanh(a @ a)
    return time.perf_counter() - t


def setup_sample(wl) -> tuple[float, float, float]:
    """(import seconds, set-up seconds, machine probe seconds) of one set-up
    of ``wl``."""
    import_s = child_import_s()
    t = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t
    return import_s, setup_s, machine_probe_s()


def op_metrics(wl, results) -> dict[str, tuple[float, str]]:
    """The workload's own stage metrics, medians over its operations.  The
    median of whole operations is ``op_p50_s``, whose other name
    ``wl.op_metric`` the report only prints."""
    med = statistics.median
    out = {}
    for stage in results[0].stages:
        if stage != wl.op_metric:
            out[stage] = (med(r.stages[stage] for r in results), "s")
    total = sum(r.seconds for r in results)
    out[wl.throughput_metric] = (sum(r.items for r in results) / total, "1/s")
    return out


def run_one(args, bench: dict) -> int:
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401  (timed as part of set-up)
        import srr
    except ImportError as exc:
        print(f"cannot import srr from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    input_seed = args.seed % REFERENCE_SEEDS
    if not os.path.abspath(srr.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"srr was imported from {srr.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import tracer as tr
    from workloads import WORKLOADS

    refs = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            refs = json.load(fh)
    reference = refs.get(args.scale, {}).get(args.workload, {}).get(str(input_seed))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    cls = WORKLOADS[args.workload]
    try:
        if args.write_reference:
            # an empty reference list: nothing to compare against yet
            return write_reference(args, cls(input_seed, args.scale, workdir, []), refs)
        wl = cls(input_seed, args.scale, workdir, reference)
        setups = [setup_sample(wl)]
        runner = Runner(wl)
        tracer = None
        if args.trace:
            # A fixed number of operations, each run untraced and then again
            # traced: per-operation counts repeat exactly, and the pairs see
            # the same machine speed, so their difference is the overhead.
            tracer = tr.Tracer()
            plain, results = [], []
            for _ in range(wl.trace_ops):
                res = runner.run_op()
                wl.rewind()
                tracer.install()
                try:
                    traced_res = runner.run_op()
                finally:
                    tracer.uninstall()
                plain += [res] if res is not None else []
                results += [traced_res] if traced_res is not None else []
        else:
            # Set-up samples spread over the run, so that their median does
            # not rest on one phase of a machine whose speed drifts.
            start = time.perf_counter()

            def between_ops() -> float:
                t = time.perf_counter()
                if len(setups) < SETUPS and t >= start + len(setups) * seconds / SETUPS:
                    setups.append(setup_sample(cls(input_seed, args.scale, workdir, reference)))
                return time.perf_counter() - t

            results = plain = runner.phase(seconds, 2, between_ops)
            while len(setups) < SETUPS:
                setups.append(setup_sample(cls(input_seed, args.scale, workdir, reference)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not results or not plain:
        print("no operation completed", file=sys.stderr)
        return 1

    # end-to-end metrics always come from untraced operations
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(imp + setup for imp, setup, _ in setups), "s"),
        "op_p50_s": (statistics.median(r.seconds for r in plain), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "machine_probe_s": (statistics.median(probe for _, _, probe in setups), "s"),
    }
    metrics.update(op_metrics(wl, plain))
    layer_metrics: dict[str, tuple[float, str]] = {}
    if tracer is not None:
        n = len(results)
        for name, st in tracer.layer_stats().items():
            layer_metrics[f"{name}.calls"] = (st["calls"] / n, "count")
            layer_metrics[f"{name}.s"] = (st["s"] / n, "s")
            layer_metrics[f"{name}.self_s"] = (st["self_s"] / n, "s")
        for name, unit in tr.COUNT_UNITS.items():
            layer_metrics[name] = (tracer.counts.get(name, 0) / n, unit)
        done = layer_metrics["zoo.cells_done"][0] + layer_metrics["zoo.cells_failed"][0]
        layer_metrics["zoo.converged_share"] = (layer_metrics["zoo.cells_converged"][0] / done if done else 0.0, "ratio")
        traced_p50 = statistics.median(r.seconds for r in results)
        plain_p50 = statistics.median(r.seconds for r in plain)
        layer_metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - plain_p50) / plain_p50, "%")
        layer_metrics["trace.spans"] = (len(tracer.spans) / n, "count")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("" if args.scale == "paper" else f"-{args.scale}")
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, stem + ".spans.json.gz"))
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "operation": wl.op_name,
        "seed": args.seed,
        "input_seed": input_seed,
        "scale": args.scale,
        "seconds": seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "reference": wl.ref_report or None,
        "op_alias": wl.op_metric,
        "import_s": import_s,
        "setup_samples_s": [
            {"import_s": imp, "setup_s": setup, "machine_probe_s": probe} for imp, setup, probe in setups
        ],
        "op_seconds": [r.seconds for r in plain],
        "traced_op_seconds": [r.seconds for r in results] if tracer is not None else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()},
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print_report(record, len(plain))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layer_metrics if args.trace else metrics
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"metrics named in BENCHMARK.json were not produced: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


def print_report(record: dict, n_ops: int) -> None:
    m = record["machine"]
    print(f"workload {record['workload']} seed {record['seed']} (inputs of seed {record['input_seed']}) "
          f"scale {record['scale']} trace {record['trace']}")
    print(f"  operation: {record['operation']} ({n_ops} timed)")
    print(f"  machine: {m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']}, blas threads {m['blas_threads']}")
    for name, v in record["metrics"].items():
        if name == "op_p50_s":
            name = f"op_p50_s = {record['op_alias']}"
        print(f"  {name:28s} {v['value']:.6g} {v['unit']}")
    ref = record["reference"]
    if ref is None:
        print(f"  reference: none stored for seed {record['input_seed']}")
    else:
        print(f"  reference: {ref['compared']} outputs compared, bitwise identical: "
              f"{'yes' if ref['bitwise_identical'] else 'no'}, max relative drift "
              f"{ref['max_rel_drift']:.3e} (tolerance {ref['tolerance']:g})")
    print(f"  checks: {record['attempted'] - record['failed']}/{record['attempted']} operations passed")
    layer = record["per_layer"]
    if layer:
        print(f"  per operation, layers reached ({sum(v['value'] == 0 for v in layer.values())} zero metrics not shown):")
    for name, v in layer.items():
        if v["value"] != 0:
            print(f"  {name:52s} {v['value']:.6g} {v['unit']}")


def write_reference(args, wl, refs: dict) -> int:
    """Store the outputs of the first operations for this input seed; later
    runs compare against them."""
    wl.setup()
    done = []
    for _ in range(wl.reference_ops):
        res = wl.op()
        problems = wl.check(res)
        if problems:
            print(f"seed {wl.seed}: {problems}", file=sys.stderr)
            return 1
        done.append(res)
    values = {res.ref_index: res.ref_value for res in done}
    refs.setdefault(args.scale, {}).setdefault(args.workload, {})[str(wl.seed)] = [
        values[i] for i in range(len(values))
    ]
    tmp = REFERENCE_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
    os.replace(tmp, REFERENCE_PATH)
    print(f"stored {args.scale}/{args.workload}/seed {wl.seed} in {REFERENCE_PATH}")
    return 0


def run_all(args, bench: dict) -> int:
    """Each workload in its own child process; prints every metric and a summary."""
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
    print("\nsummary")
    ok = True
    for name, res in summary.items():
        if res is None:
            ok = False
            print(f"  {name:16s} FAILED to produce a result")
            continue
        ok = ok and res["correct"]
        vals = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name:16s} correct={res['correct']} ({res['attempted'] - res['failed']}/{res['attempted']}): {vals}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_benchmark()
    if args.workload is None:
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
