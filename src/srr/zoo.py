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
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import layers as ly
from .analysis import HyperPoint, ZooRecord, CorrelationReport, correlation_report
from .data import DatasetSpec, build_dataset
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


def _is_number(v, integral: bool = False) -> bool:
    return isinstance(v, numbers.Integral if integral else numbers.Real) and not isinstance(v, bool)


# grid axis -> (what each element must be, its check, the Python type it is stored as)
_AXIS_CHECKS = {
    "batch_sizes": ("an int >= 1", lambda v: _is_number(v, integral=True) and v >= 1, int),
    "lrs": ("a positive finite number", lambda v: _is_number(v) and 0 < v < math.inf, float),
    "widths": ("an int >= 1", lambda v: _is_number(v, integral=True) and v >= 1, int),
    "dropouts": ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1, float),
    "variants": ("a known variant", lambda v: isinstance(v, str) and v in ly.VARIANTS, str),
}


@dataclass(frozen=True)
class GridSpec:
    batch_sizes: tuple = (64, 128)
    lrs: tuple = (2e-5, 1e-4)
    widths: tuple = (384, 768)
    dropouts: tuple = (0.0, 0.1)
    variants: tuple = (ly.CRATE_C, ly.CRATE_N, ly.CRATE_T, ly.CRATE)
    seed: int = 0

    def __post_init__(self):
        for name, (what, ok, kind) in _AXIS_CHECKS.items():
            if not getattr(self, name):
                raise ConfigError(f"empty grid axis: {name}")
            for v in getattr(self, name):
                if not ok(v):
                    raise ConfigError(f"grid axis {name}: element {v!r} is not {what}")
            # numpy scalars become Python ones, so keys and the manifest JSON see plain values
            object.__setattr__(self, name, tuple(kind(v) for v in getattr(self, name)))
        if not _is_number(self.seed, integral=True):
            raise ConfigError(f"grid seed {self.seed!r} is not an int")
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def paper(cls, seed: int = 0) -> "GridSpec":
        return cls(seed=seed)

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
        return json.load(fh)


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
    os.makedirs(out_dir, exist_ok=True)
    data = dataclasses.replace(data, augment_flip=False, augment_crop=False)
    manifest = _read_manifest(out_dir)
    manifest.setdefault("cells", {})
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

    # one worker trains in this process, in order; the manifest is written after each cell
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
    header = rows[0].split(",")
    if header[0] != "cell" or tuple(header[1:]) != FIELD_ORDER:
        raise FormatError("unexpected measures.csv header")
    records = []
    for row in rows[1:]:
        parts = row.split(",")
        key = parts[0]
        entry = manifest["cells"].get(key)
        if entry is None:
            raise FormatError(f"measures.csv row {key!r} not in manifest")
        measures = {name: float(v) for name, v in zip(FIELD_ORDER, parts[1:])}
        records.append(
            ZooRecord(
                theta=HyperPoint(**entry["coords"]),
                measures=measures,
                gap=math.nan if entry["gap"] is None else float(entry["gap"]),
                converged=bool(entry["converged"]) and not entry.get("diverged", False),
            )
        )
    return records


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
