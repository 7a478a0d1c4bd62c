"""Hyperparameter-grid model zoo: train one model per grid cell, persist
checkpoints/traces under a resumable manifest, evaluate complexity measures
per cell, and assemble the correlation report.

The manifest (JSON, atomically replaced) is the only shared artifact; each
cell owns its checkpoint and trace files, so cells can run in a worker pool.
Augmentations are always disabled for zoo training.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import layers as ly
from .analysis import HyperPoint, ZooRecord, CorrelationReport, correlation_report
from .data import DatasetSpec, build_dataset
from .errors import ConfigError, FormatError, config_fields
from .linalg import stable_seed
from .measures import FIELD_ORDER, measure_csv_row, measure_vector, measures_csv_header
from .model import ModelConfig, init_model, load_checkpoint, save_checkpoint
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


@dataclass(frozen=True)
class GridSpec:
    batch_sizes: tuple = (64, 128)
    lrs: tuple = (2e-5, 1e-4)
    widths: tuple = (384, 768)
    dropouts: tuple = (0.0, 0.1)
    variants: tuple = (ly.CRATE_C, ly.CRATE_N, ly.CRATE_T, ly.CRATE)
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_sizes", "lrs", "widths", "dropouts", "variants"):
            if not getattr(self, name):
                raise ConfigError(f"empty grid axis: {name}")
        for v in self.variants:
            if v not in ly.VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")

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

    def cells(self):
        """Deterministic cell enumeration: (key, coords dict)."""
        out = []
        for bs in self.batch_sizes:
            for lr in self.lrs:
                for w in self.widths:
                    for do in self.dropouts:
                        for variant in self.variants:
                            coords = {
                                "batch_size": int(bs),
                                "lr_init": float(lr),
                                "width": int(w),
                                "dropout": float(do),
                                "model_variant": variant,
                            }
                            key = f"bs{bs}-lr{lr!r}-w{w}-do{do!r}-{variant}"
                            out.append((key, coords))
        return out

    def cell_seed(self, coords: dict) -> int:
        return stable_seed(
            self.seed,
            coords["batch_size"],
            repr(coords["lr_init"]),
            coords["width"],
            repr(coords["dropout"]),
            coords["model_variant"],
        )


def _write_manifest(out_dir: str, manifest: dict) -> None:
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))


def _read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return {"cells": {}}
    with open(path) as fh:
        return json.load(fh)


def _cell_configs(coords: dict, seed: int, model_template: ModelConfig, train_template: TrainConfig):
    mcfg = dataclasses.replace(
        model_template,
        d=coords["width"],
        variant=coords["model_variant"],
        dropout=coords["dropout"],
        seed=seed,
    )
    tcfg = dataclasses.replace(
        train_template,
        batch_size=coords["batch_size"],
        lr_init=coords["lr_init"],
        seed=seed,
    )
    return mcfg, tcfg


def _run_cell(args) -> dict:
    key, coords, seed, model_template, train_template, data_spec, out_dir = args
    started = time.time()
    try:
        mcfg, tcfg = _cell_configs(coords, seed, model_template, train_template)
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
            "coords": coords,
            "seed": seed,
            "checkpoint": os.path.basename(ckpt_path),
            "trace": os.path.basename(trace_path),
            "converged": bool(trace.converged),
            "diverged": bool(trace.diverged),
            "train_ce": float(train_ce),
            "val_ce": float(val_ce),
            "gap": float(val_ce - train_ce),
            "epochs_run": len(trace.epochs),
            "wall_time": time.time() - started,
        }
        if trace.note:
            entry["note"] = trace.note
        return entry
    except Exception as exc:  # cell failure must not kill the zoo
        return {
            "status": "failed",
            "coords": coords,
            "seed": seed,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_time": time.time() - started,
        }


def run_zoo(
    grid: GridSpec,
    data: DatasetSpec,
    train_template: TrainConfig,
    out_dir: str,
    model_template: ModelConfig | None = None,
    workers: int = 1,
    retry_failed: bool = False,
) -> dict:
    """Train every grid cell, resuming from an existing manifest.

    Cells already marked done (or failed, unless retry_failed) are skipped.
    Returns the final manifest dict.
    """
    os.makedirs(out_dir, exist_ok=True)
    data = dataclasses.replace(data, augment_flip=False, augment_crop=False)
    if model_template is None:
        model_template = ModelConfig()
    manifest = _read_manifest(out_dir)
    manifest.setdefault("cells", {})
    manifest["grid"] = dataclasses.asdict(grid)
    manifest["data"] = dataclasses.asdict(data)
    manifest["train_template"] = dataclasses.asdict(train_template)

    pending = []
    for key, coords in grid.cells():
        prev = manifest["cells"].get(key)
        if prev is not None:
            if prev["status"] == "done" or (prev["status"] == "failed" and not retry_failed):
                continue
        pending.append((key, coords, grid.cell_seed(coords), model_template, train_template, data, out_dir))

    if workers > 1 and pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (key, *_), entry in zip(pending, pool.map(_run_cell, pending)):
                manifest["cells"][key] = entry
                _write_manifest(out_dir, manifest)
    else:
        for args in pending:
            manifest["cells"][args[0]] = _run_cell(args)
            _write_manifest(out_dir, manifest)
    _write_manifest(out_dir, manifest)
    return manifest


def measure_zoo(out_dir: str, data: DatasetSpec | None = None, rate_cfg=None, seed: int = 0) -> str:
    """Evaluate the full measure vector for every trained cell; writes
    measures.csv in manifest cell order and returns its path."""
    manifest = _read_manifest(out_dir)
    if not manifest["cells"]:
        raise FormatError(f"no manifest with trained cells under {out_dir}")
    if data is None:
        data = DatasetSpec(**config_fields(DatasetSpec, manifest["data"], "data"))
    data = dataclasses.replace(data, augment_flip=False, augment_crop=False)
    dataset = build_dataset(data)
    grid = GridSpec(**config_fields(GridSpec, manifest["grid"], "grid"))
    lines = [measures_csv_header()]
    for key, _ in grid.cells():
        entry = manifest["cells"].get(key)
        if entry is None or entry["status"] != "done" or entry["diverged"]:
            continue
        model = load_checkpoint(os.path.join(out_dir, entry["checkpoint"]))
        mv, _errors = measure_vector(model, model.init_snapshot, dataset, rate_cfg=rate_cfg, seed=seed)
        lines.append(measure_csv_row(key, mv))
    path = os.path.join(out_dir, MEASURES_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
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
        coords = entry["coords"]
        measures = {name: float(v) for name, v in zip(FIELD_ORDER, parts[1:])}
        records.append(
            ZooRecord(
                theta=HyperPoint(
                    batch_size=coords["batch_size"],
                    lr_init=coords["lr_init"],
                    width=coords["width"],
                    dropout=coords["dropout"],
                    model_variant=coords["model_variant"],
                ),
                measures=measures,
                gap=float(entry["gap"]),
                converged=bool(entry["converged"]) and not entry.get("diverged", False),
            )
        )
    return records


def correlate_zoo(
    out_dir: str,
    measure_names=None,
    width_filter: int | None = None,
) -> CorrelationReport:
    records = load_zoo_records(out_dir)
    if measure_names is None:
        measure_names = list(FIELD_ORDER)
    return correlation_report(records, measure_names, width_filter=width_filter)
