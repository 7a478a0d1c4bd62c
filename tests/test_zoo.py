import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from srr.data import DatasetSpec
from srr.errors import ConfigError, FormatError
from srr.measures import FIELD_ORDER
from srr.model import ModelConfig
from srr.training import TrainConfig
from srr.zoo import (
    GridSpec,
    MANIFEST_NAME,
    MEASURES_NAME,
    correlate_zoo,
    load_zoo_records,
    measure_zoo,
    run_zoo,
)

DATA = DatasetSpec(classes=2, tokens=4, feat_dim=6, subspace_dim=2,
                   separation=4.0, n_train=48, n_val=24, seed=3)
MODEL = ModelConfig(L=1, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=2)
TRAIN = TrainConfig(batch_size=8, lr_init=5e-3, epochs=3, stop_criterion=1e-9)

MINI = GridSpec(batch_sizes=(8,), lrs=(5e-3,), widths=(8,),
                dropouts=(0.0, 0.1), variants=("crate_c", "crate_n"), seed=1)

# same four cells but trained to the (loose) stopping criterion
CONV_TRAIN = TrainConfig(batch_size=8, lr_init=1e-2, epochs=30, stop_criterion=0.3)
MINI_CONV = dataclasses.replace(MINI, lrs=(1e-2,))

# width 10 is incompatible with K = 4 heads, so every cell of this grid
# fails while being configured inside the worker
WIDE = dataclasses.replace(MINI, widths=(10,))
BAD_MODEL = dataclasses.replace(MODEL, d=8, K=4)
GOOD_AT_10 = dataclasses.replace(MODEL, d=10, K=2)


# lr 1e200 overflows the weights in the first epoch's second step
DIVERGING = dataclasses.replace(MINI, lrs=(5e-3, 1e200), dropouts=(0.0,))
DIVERGENCE_WARNINGS = pytest.mark.filterwarnings(r"ignore:(overflow|invalid value) encountered:RuntimeWarning")


def run_mini(out_dir, **kw):
    return run_zoo(MINI, DATA, TRAIN, str(out_dir), model_template=MODEL, **kw)


def run_conv(out_dir, **kw):
    return run_zoo(MINI_CONV, DATA, CONV_TRAIN, str(out_dir), model_template=MODEL, **kw)


class TestGridSpec:
    def test_cardinalities(self):
        assert len(GridSpec.desk().cells()) == 32
        assert len(GridSpec.paper().cells()) == 64

    def test_desk_has_single_width(self):
        grid = GridSpec.desk()
        assert grid.widths == (32,)
        assert set(c["dropout"] for _, c in grid.cells()) == {0.0, 0.1}

    def test_keys_are_unique_and_deterministic(self):
        grid = GridSpec.paper()
        keys = [k for k, _ in grid.cells()]
        assert len(set(keys)) == 64
        assert keys == [k for k, _ in GridSpec.paper().cells()]
        assert keys[0] == "bs64-lr2e-05-w384-do0.0-crate_c"

    def test_cell_seed_depends_on_coords_and_grid_seed(self):
        grid = GridSpec.desk()
        cells = grid.cells()
        seeds = {grid.cell_seed(c) for _, c in cells}
        assert len(seeds) == len(cells)
        other = GridSpec.desk(seed=1)
        _, c0 = cells[0]
        assert grid.cell_seed(c0) != other.cell_seed(c0)
        assert grid.cell_seed(c0) == GridSpec.desk().cell_seed(c0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(batch_sizes=())

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(variants=("crate_c", "transformer"))


class TestRunZoo:
    def test_end_to_end(self, tmp_path):
        manifest = run_mini(tmp_path)
        assert set(manifest["cells"]) == {k for k, _ in MINI.cells()}
        for key, entry in manifest["cells"].items():
            assert entry["status"] == "done"
            assert (tmp_path / entry["checkpoint"]).exists()
            assert (tmp_path / entry["trace"]).exists()
            assert entry["epochs_run"] == 3
            assert entry["gap"] == pytest.approx(entry["val_ce"] - entry["train_ce"])
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert on_disk["cells"].keys() == manifest["cells"].keys()
        assert on_disk["grid"]["seed"] == 1
        assert on_disk["data"]["augment_flip"] is False

    def test_resume_skips_done_cells(self, tmp_path):
        run_mini(tmp_path)
        key = MINI.cells()[0][0]
        ckpt = tmp_path / f"{key}.ckpt.npz"
        stamp = ckpt.stat().st_mtime_ns
        manifest = run_mini(tmp_path)
        assert ckpt.stat().st_mtime_ns == stamp  # not retrained
        assert manifest["cells"][key]["status"] == "done"

    def test_failed_cell_recorded_and_zoo_continues(self, tmp_path):
        manifest = run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=BAD_MODEL)
        for entry in manifest["cells"].values():
            assert entry["status"] == "failed"
            assert "ConfigError" in entry["error"]

    @DIVERGENCE_WARNINGS
    def test_first_epoch_divergence_is_a_done_diverged_cell(self, tmp_path):
        manifest = run_zoo(DIVERGING, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        entries = [manifest["cells"][key] for key, c in DIVERGING.cells() if c["lr_init"] == 1e200]
        assert len(entries) == 2
        for entry in entries:
            assert entry["status"] == "done" and entry["diverged"] and not entry["converged"]
            assert entry["epochs_run"] == 0
            assert all(np.isnan(entry[k]) for k in ("train_ce", "val_ce", "gap"))
            assert entry["note"].startswith("training diverged")

    def test_retry_failed(self, tmp_path):
        run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=BAD_MODEL)
        # without the flag, failures stay as they are
        manifest = run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=GOOD_AT_10)
        assert all(e["status"] == "failed" for e in manifest["cells"].values())
        manifest = run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=GOOD_AT_10,
                           retry_failed=True)
        assert all(e["status"] == "done" for e in manifest["cells"].values())

    def test_cell_seeds_recorded(self, tmp_path):
        manifest = run_mini(tmp_path)
        for key, coords in MINI.cells():
            assert manifest["cells"][key]["seed"] == MINI.cell_seed(coords)


class TestMeasureZoo:
    def test_measures_csv(self, tmp_path):
        run_mini(tmp_path)
        path = measure_zoo(str(tmp_path))
        assert os.path.basename(path) == MEASURES_NAME
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == "cell," + ",".join(FIELD_ORDER)
        assert len(lines) == 1 + len(MINI.cells())
        keys = [ln.split(",", 1)[0] for ln in lines[1:]]
        assert keys == [k for k, _ in MINI.cells()]  # manifest cell order

    def test_failed_cells_skipped(self, tmp_path):
        run_mini(tmp_path)
        # mark one cell failed after the fact
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        key = MINI.cells()[0][0]
        manifest["cells"][key] = {"status": "failed", "coords": manifest["cells"][key]["coords"],
                                  "seed": 0, "error": "x"}
        mpath.write_text(json.dumps(manifest))
        path = measure_zoo(str(tmp_path))
        rows = Path(path).read_text().strip().split("\n")[1:]
        assert len(rows) == len(MINI.cells()) - 1
        assert all(not r.startswith(key + ",") for r in rows)

    @DIVERGENCE_WARNINGS
    def test_diverged_cells_skipped(self, tmp_path):
        manifest = run_zoo(DIVERGING, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        assert all(entry["status"] == "done" for entry in manifest["cells"].values())
        path = measure_zoo(str(tmp_path))
        keys = [ln.split(",", 1)[0] for ln in Path(path).read_text().strip().split("\n")[1:]]
        assert keys == [key for key, c in DIVERGING.cells() if c["lr_init"] == 5e-3]
        assert all(not manifest["cells"][key]["diverged"] for key in keys)

    def test_missing_zoo_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            measure_zoo(str(tmp_path / "nowhere"))

    def test_rerun_is_byte_identical(self, tmp_path):
        run_mini(tmp_path)
        first = Path(measure_zoo(str(tmp_path))).read_text()
        second = Path(measure_zoo(str(tmp_path))).read_text()
        assert first == second


class TestRecordsAndReport:
    def test_load_records(self, tmp_path):
        manifest = run_mini(tmp_path)
        measure_zoo(str(tmp_path))
        records = load_zoo_records(str(tmp_path))
        assert len(records) == 4
        by_variant = {r.theta.model_variant for r in records}
        assert by_variant == {"crate_c", "crate_n"}
        for rec in records:
            key_entry = [e for e in manifest["cells"].values()
                         if e["coords"]["model_variant"] == rec.theta.model_variant
                         and e["coords"]["dropout"] == rec.theta.dropout]
            assert len(key_entry) == 1
            assert rec.gap == pytest.approx(key_entry[0]["gap"])
            assert set(rec.measures) == set(FIELD_ORDER)
            assert np.isfinite(rec.measures["l2_norm"])

    def test_records_need_measures_file(self, tmp_path):
        run_mini(tmp_path)
        with pytest.raises(FormatError, match="measure_zoo"):
            load_zoo_records(str(tmp_path))

    def test_header_validated(self, tmp_path):
        run_mini(tmp_path)
        (tmp_path / MEASURES_NAME).write_text("cell,bogus\nx,1\n")
        with pytest.raises(FormatError, match="header"):
            load_zoo_records(str(tmp_path))

    def test_unknown_row_rejected(self, tmp_path):
        run_mini(tmp_path)
        measure_zoo(str(tmp_path))
        with open(tmp_path / MEASURES_NAME, "a") as fh:
            fh.write("ghost-cell," + ",".join(["1.0"] * len(FIELD_ORDER)) + "\n")
        with pytest.raises(FormatError, match="ghost-cell"):
            load_zoo_records(str(tmp_path))

    def test_correlate_zoo(self, tmp_path):
        run_conv(tmp_path)
        measure_zoo(str(tmp_path))
        report = correlate_zoo(str(tmp_path), measure_names=["l2_norm", "srr"])
        assert [r["measure"] for r in report.rows] == ["l2_norm", "srr"]
        for row in report.rows:
            if row["overall_tau"] is not None:
                assert -1.0 <= row["overall_tau"] <= 1.0
        # default: every known measure
        full = correlate_zoo(str(tmp_path))
        assert [r["measure"] for r in full.rows] == list(FIELD_ORDER)
        # regeneration is byte-identical
        assert full.to_csv_text() == correlate_zoo(str(tmp_path)).to_csv_text()

    def test_diverged_cells_count_as_unconverged(self, tmp_path):
        run_conv(tmp_path)
        measure_zoo(str(tmp_path))
        records = load_zoo_records(str(tmp_path))
        assert all(r.converged for r in records)
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        key = MINI_CONV.cells()[0][0]
        manifest["cells"][key]["diverged"] = True
        manifest["cells"][key]["converged"] = True
        mpath.write_text(json.dumps(manifest))
        records = load_zoo_records(str(tmp_path))
        assert sum(not r.converged for r in records) == 1
