"""Hyperparameter-grid model zoo: train one model per grid cell, persist
checkpoints/traces under a resumable manifest, evaluate complexity measures
per cell, and assemble the correlation report.

The manifest (JSON, atomically replaced) is the only shared artifact; each
cell owns its checkpoint and trace files, so cells can run in a worker pool.
Augmentations are always disabled for zoo training.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import layers as ly
from .analysis import HyperPoint, ZooRecord, CorrelationReport, correlation_report
from .data import DatasetSpec, build_dataset
from .errors import COUNT, FRACTION, INT, POSITIVE, axis, check_fields, check_value, one_of, rule
from .errors import ConfigError, FormatError, config_fields
from .linalg import stable_seed
from .measures import FIELD_ORDER, measure_csv_row, measure_vector, measures_csv_header
from .model import ModelConfig, _write_atomic, init_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train

__all__ = [
    "GridSpec",
    "run_zoo",
    "measure_zoo",
    "load_zoo_records",
    "correlate_zoo",
    "MANIFEST_NAME",
    "MEASURES_NAME",
]

MANIFEST_NAME = "manifest.json"
MEASURES_NAME = "measures.csv"
# the keys the readers of a done cell's manifest entry index, each with a test of its JSON value
_DONE_CELL_KEYS = {
    "coords": lambda v: isinstance(v, dict) and sorted(v) == sorted(f.name for f in dataclasses.fields(HyperPoint)),
    "checkpoint": lambda v: isinstance(v, str),
    "converged": lambda v: isinstance(v, bool),
    "diverged": lambda v: isinstance(v, bool),
    "gap": lambda v: v is None or isinstance(v, (int, float)),
}


@dataclass(frozen=True)
class GridSpec:
    """Axes of a hyperparameter grid; ``GridSpec()`` is the paper's 64-cell grid."""

    # numpy elements are stored as Python ones, so keys and the manifest JSON see plain values
    batch_sizes: tuple = rule((64, 128), axis(COUNT, int))
    lrs: tuple = rule((2e-5, 1e-4), axis(POSITIVE, float))
    widths: tuple = rule((384, 768), axis(COUNT, int))
    dropouts: tuple = rule((0.0, 0.1), axis(FRACTION, float))
    variants: tuple = rule((ly.CRATE_C, ly.CRATE_N, ly.CRATE_T, ly.CRATE), axis(one_of(*ly.VARIANTS), str))
    seed: int = rule(0, INT)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def desk(cls, seed: int = 0) -> "GridSpec":
        """32-cell grid small enough to train on a laptop CPU."""
        return cls(
            batch_sizes=(16, 32),
            lrs=(3e-3, 1e-2),
            widths=(32,),
            dropouts=(0.0, 0.1),
            variants=(ly.CRATE_C, ly.CRATE_N, ly.CRATE_T, ly.CRATE),
            seed=seed,
        )

    def cells(self) -> list[tuple[str, HyperPoint]]:
        """Deterministic cell enumeration: (key, point)."""
        axes = (self.batch_sizes, self.lrs, self.widths, self.dropouts, self.variants)
        out = []
        for pt in itertools.starmap(HyperPoint, itertools.product(*axes)):
            key = f"bs{pt.batch_size}-lr{pt.lr_init!r}-w{pt.width}-do{pt.dropout!r}-{pt.model_variant}"
            out.append((key, pt))
        return out

    def cell_seed(self, pt: HyperPoint) -> int:
        return stable_seed(self.seed, pt.batch_size, repr(pt.lr_init), pt.width, repr(pt.dropout), pt.model_variant)


def _write_manifest(out_dir: str, manifest: dict) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=True)
    _write_atomic(os.path.join(out_dir, MANIFEST_NAME), lambda fh: fh.write(text.encode()))


def _read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return {"cells": {}}
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("cells"), dict):
        raise FormatError(f"{path}: not a JSON object holding a 'cells' object")
    for key, entry in manifest["cells"].items():
        if not isinstance(entry, dict) or entry.get("status") not in ("done", "failed"):
            raise FormatError(f"{path}: cell {key!r}: no 'status' of 'done' or 'failed'")
        for name, valid in _DONE_CELL_KEYS.items() if entry["status"] == "done" else ():
            if name not in entry or not valid(entry[name]):
                raise FormatError(f"{path}: cell {key!r}: {'malformed' if name in entry else 'missing'} key {name!r}")
    for section in ("data", "grid"):  # run_zoo writes both with the first cell
        if manifest["cells"] and not isinstance(manifest.get(section), dict):
            raise FormatError(f"{path}: trained cells but no {section!r} object")
    return manifest


def _finite_or_none(value: float) -> float | None:
    """A manifest number: JSON has no NaN or inf, so those become null."""
    return float(value) if math.isfinite(value) else None


def _cell_configs(pt: HyperPoint, seed: int, model_template: ModelConfig, train_template: TrainConfig):
    mcfg = dataclasses.replace(model_template, d=pt.width, variant=pt.model_variant, dropout=pt.dropout, seed=seed)
    tcfg = dataclasses.replace(train_template, batch_size=pt.batch_size, lr_init=pt.lr_init, seed=seed)
    return mcfg, tcfg


def _failed_entry(pt: HyperPoint, seed: int, exc: Exception) -> dict:
    return {"status": "failed", "coords": dataclasses.asdict(pt), "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _run_cell(args) -> tuple[dict, float]:
    """Train one cell: its manifest entry, and its seconds for the progress line only."""
    key, pt, seed, model_template, train_template, data_spec, out_dir = args
    started = time.perf_counter()
    try:
        mcfg, tcfg = _cell_configs(pt, seed, model_template, train_template)
        dataset = build_dataset(data_spec)
        model = init_model(mcfg)
        trace_path = os.path.join(out_dir, f"{key}.trace.csv")
        trace = train(model, dataset, tcfg, trace_path=trace_path)
        ckpt_path = os.path.join(out_dir, f"{key}.ckpt.npz")
        save_checkpoint(model, ckpt_path)
        train_ce = val_ce = math.nan  # a run that diverged in its first epoch has no epoch row
        if trace.epochs:
            train_ce, val_ce = trace.epochs[-1].train_ce, trace.epochs[-1].val_ce
        entry = {
            "status": "done",
            "coords": dataclasses.asdict(pt),
            "seed": seed,
            "checkpoint": os.path.basename(ckpt_path),
            "trace": os.path.basename(trace_path),
            "converged": bool(trace.converged),
            "diverged": bool(trace.diverged),
            "train_ce": _finite_or_none(train_ce),
            "val_ce": _finite_or_none(val_ce),
            "gap": _finite_or_none(val_ce - train_ce),
            "epochs_run": len(trace.epochs),
        }
        if trace.note:
            entry["note"] = trace.note
    except Exception as exc:  # cell failure must not kill the zoo
        entry = _failed_entry(pt, seed, exc)
    return entry, time.perf_counter() - started


def _pooled_cells(pool: ProcessPoolExecutor, pending: list):
    """(key, entry, seconds) of each cell as its worker finishes.  A worker
    that dies (BrokenProcessPool) fails every cell whose result never
    arrived, so the sweep still ends with a manifest."""
    started = time.perf_counter()
    futures = {pool.submit(_run_cell, args): args for args in pending}
    for future in as_completed(futures):
        key, pt, seed, *_ = futures[future]
        try:
            yield key, *future.result()
        except BrokenProcessPool as exc:
            yield key, _failed_entry(pt, seed, exc), time.perf_counter() - started


def run_zoo(
    grid: GridSpec,
    data: DatasetSpec,
    train_template: TrainConfig,
    out_dir: str,
    model_template: ModelConfig,
    workers: int = 1,
    retry_failed: bool = False,
) -> dict:
    """Train every grid cell, resuming from an existing manifest.

    Cells already marked done (or failed, unless retry_failed) are skipped;
    each cell trained prints one progress line to stderr.  Resuming with
    another data spec or train template raises ConfigError, since the cells
    already trained would no longer match the manifest.  Returns the final
    manifest dict.
    """
    check_value("workers", workers, COUNT)
    os.makedirs(out_dir, exist_ok=True)
    data = dataclasses.replace(data, augment_flip=False, augment_crop=False)
    manifest = _read_manifest(out_dir)
    # compared in the form the manifest stores them, after a JSON round trip
    settings = {"data": dataclasses.asdict(data), "train_template": dataclasses.asdict(train_template)}
    settings = json.loads(json.dumps(settings))
    if manifest["cells"]:
        for section, now in settings.items():
            was = manifest.get(section, {})
            for name in [*now, *was]:
                if was.get(name) != now.get(name):
                    raise ConfigError(
                        f"{out_dir} holds cells trained with {section}.{name} = {was.get(name)!r}, "
                        f"not {now.get(name)!r}; train into a new directory"
                    )
    manifest.update(settings, grid=dataclasses.asdict(grid))

    pending = []
    for key, pt in grid.cells():
        prev = manifest["cells"].get(key)
        if prev is not None:
            if prev["status"] == "done" or (prev["status"] == "failed" and not retry_failed):
                continue
        pending.append((key, pt, grid.cell_seed(pt), model_template, train_template, data, out_dir))

    # a pool starts all its workers at once: none idle; one trains here, in order, writing the manifest per cell
    workers = min(workers, len(pending))
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        cells = _pooled_cells(pool, pending) if pool else ((args[0], *_run_cell(args)) for args in pending)
        for i, (key, entry, seconds) in enumerate(cells, 1):
            manifest["cells"][key] = entry
            _write_manifest(out_dir, manifest)
            _progress("run_zoo", i, len(pending), key, entry["status"], seconds)
    _write_manifest(out_dir, manifest)
    return manifest


def _progress(stage: str, index: int, total: int, key: str, status: str, seconds: float) -> None:
    print(f"{stage}: [{index}/{total}] {key} {status} {seconds:.2f}s", file=sys.stderr)


def measure_zoo(out_dir: str, seed: int = 0) -> str:
    """Evaluate the full measure vector for every trained cell on the
    manifest's dataset; writes measures.csv in grid cell order and returns
    its path.  A cell whose checkpoint is missing, unreadable or of another
    geometry, or whose measures raise, gets no row, like a diverged cell,
    and one stderr line, as does each note ``measure_vector`` returns (a
    NaN or pinned field).
    Each measured or skipped cell ends with a progress line on stderr."""
    manifest = _read_manifest(out_dir)
    if not manifest["cells"]:
        raise FormatError(f"no manifest with trained cells under {out_dir}")
    data = DatasetSpec(**config_fields(DatasetSpec, manifest["data"], "data"))
    data = dataclasses.replace(data, augment_flip=False, augment_crop=False)
    dataset = build_dataset(data)
    grid = GridSpec(**config_fields(GridSpec, manifest["grid"], "grid"))
    trained = [
        (key, entry) for key, _ in grid.cells()
        if (entry := manifest["cells"].get(key)) and entry["status"] == "done" and not entry["diverged"]
    ]
    lines = [measures_csv_header()]
    for i, (key, entry) in enumerate(trained, 1):
        started = time.perf_counter()
        try:
            model = load_checkpoint(os.path.join(out_dir, entry["checkpoint"]))
            mv, errors = measure_vector(model, dataset, seed=seed)
        except Exception as exc:  # one bad cell must not end the stage
            print(f"measure_zoo: skipped cell {key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = "skipped"
        else:
            for name, why in sorted(errors.items()):
                print(f"measure_zoo: note: {key}: {name}: {why}", file=sys.stderr)
            lines.append(measure_csv_row(key, mv))
            status = "measured"
        _progress("measure_zoo", i, len(trained), key, status, time.perf_counter() - started)
    path = os.path.join(out_dir, MEASURES_NAME)
    _write_atomic(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode()))
    return path


def load_zoo_records(out_dir: str) -> list[ZooRecord]:
    """Join the manifest with measures.csv into analysis-ready records."""
    manifest = _read_manifest(out_dir)
    mpath = os.path.join(out_dir, MEASURES_NAME)
    if not os.path.exists(mpath):
        raise FormatError(f"measures file missing: {mpath} (run measure_zoo first)")
    with open(mpath) as fh:
        rows = [ln.strip() for ln in fh if ln.strip()]
    if not rows:
        raise FormatError(f"{mpath}: empty measures file")
    header = rows[0].split(",")
    if header[0] != "cell" or tuple(header[1:]) != FIELD_ORDER:
        raise FormatError("unexpected measures.csv header")
    records: dict[str, ZooRecord] = {}
    for row in rows[1:]:
        parts = row.split(",")
        key = parts[0]
        if len(parts) != len(header):
            raise FormatError(f"measures.csv row {key!r} has {len(parts)} fields, its header {len(header)}")
        if key in records:
            raise FormatError(f"measures.csv repeats the row of cell {key!r}")
        entry = manifest["cells"].get(key)
        if entry is None or entry["status"] != "done":
            raise FormatError(f"measures.csv row {key!r} is not a trained cell of the manifest")
        try:
            measures = {name: float(v) for name, v in zip(FIELD_ORDER, parts[1:])}
        except ValueError as exc:
            raise FormatError(f"{mpath}: row {key!r}: {exc}") from exc
        records[key] = ZooRecord(
            theta=HyperPoint(**entry["coords"]),
            measures=measures,
            gap=math.nan if entry["gap"] is None else float(entry["gap"]),
            converged=entry["converged"] and not entry["diverged"],
        )
    return list(records.values())


def correlate_zoo(
    out_dir: str,
    measure_names=None,
    width_filter: int | None = None,
) -> CorrelationReport:
    if measure_names is None:
        measure_names = list(FIELD_ORDER)
    unknown = [name for name in measure_names if name not in FIELD_ORDER]
    if unknown:
        raise ConfigError(f"unknown measure {unknown[0]!r}; known: {', '.join(FIELD_ORDER)}")
    records = load_zoo_records(out_dir)
    return correlation_report(records, measure_names, width_filter=width_filter)
