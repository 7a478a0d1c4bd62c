import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from srr.data import DatasetSpec
from srr.errors import ConfigError, FormatError
from srr.measures import FIELD_ORDER
from srr.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from srr.training import TrainConfig
from srr import zoo
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


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


PROGRESS = re.compile(r"(run|measure)_zoo: \[(\d+)/(\d+)\] (\S+) (\w+) (\d+\.\d\d)s$")


def diagnostics(err):
    """The stderr lines that are not per-cell progress lines."""
    return [line for line in err.splitlines() if not PROGRESS.match(line)]


def run_mini(out_dir, **kw):
    return run_zoo(MINI, DATA, TRAIN, str(out_dir), model_template=MODEL, **kw)


def run_conv(out_dir, **kw):
    return run_zoo(MINI_CONV, DATA, CONV_TRAIN, str(out_dir), model_template=MODEL, **kw)


def measure_with_one_damaged_checkpoint(tmp_path, capsys, damage):
    """Measure a 2-cell zoo, apply ``damage`` to the first cell's checkpoint
    path and measure again.  Returns the first cell's key, the stderr lines
    that are not progress lines, and the lines of both measures.csv files."""
    grid = dataclasses.replace(MINI, dropouts=(0.0,))
    manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL)
    (bad, _), (good, _) = grid.cells()
    healthy = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
    capsys.readouterr()
    damage(tmp_path / manifest["cells"][bad]["checkpoint"])
    damaged = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
    assert healthy[2].startswith(good + ",")
    return bad, diagnostics(capsys.readouterr().err), healthy, damaged


class TestGridSpec:
    def test_cardinalities(self):
        assert len(GridSpec.desk().cells()) == 32
        assert len(GridSpec().cells()) == 64

    def test_desk_has_single_width(self):
        grid = GridSpec.desk()
        assert grid.widths == (32,)
        assert set(c.dropout for _, c in grid.cells()) == {0.0, 0.1}

    def test_keys_are_unique_and_deterministic(self):
        grid = GridSpec()
        keys = [k for k, _ in grid.cells()]
        assert len(set(keys)) == 64
        assert keys == [k for k, _ in GridSpec().cells()]
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

    @pytest.mark.parametrize("axis, values", [("variants", ("crate_c", "crate_c")), ("lrs", (1e-2, 0.01)),
                                              ("batch_sizes", (8, np.int64(8))), ("dropouts", (0, 0.0))],
                             ids=["variants", "lrs", "batch_sizes", "dropouts"])
    def test_repeated_axis_value_rejected(self, axis, values):
        # two cells with one key: run_zoo trained it twice and measure_zoo wrote its row twice
        with pytest.raises(ConfigError, match=re.escape(f"{axis} must be a nonempty list whose elements are each ")
                           + ".*, no two equal, got"):
            dataclasses.replace(GridSpec(batch_sizes=(8,), lrs=(1e-2,), widths=(8,), dropouts=(0.0,)), **{axis: values})

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("batch_sizes", 1.5), ("batch_sizes", True), ("batch_sizes", 0), ("batch_sizes", "16"),
            ("widths", 8.0), ("widths", False), ("widths", -8),
            ("lrs", "x"), ("lrs", 0.0), ("lrs", -1e-3), ("lrs", float("inf")), ("lrs", float("nan")), ("lrs", True),
            ("dropouts", 1.0), ("dropouts", -0.1), ("dropouts", float("nan")), ("dropouts", None),
            ("variants", 3), ("variants", None),
        ],
    )
    def test_bad_axis_element_rejected(self, axis, value):
        good = getattr(GridSpec.desk(), axis)
        bad = good + (value,)
        with pytest.raises(ConfigError, match=re.escape(f"{axis} must be a nonempty list whose elements are each ")
                           + ".*" + re.escape(f", got {bad!r}") + "$"):
            dataclasses.replace(GridSpec.desk(), **{axis: bad})

    def test_numpy_elements_accepted(self, tmp_path):
        typed = GridSpec(batch_sizes=(np.int64(8),), lrs=(np.float64(5e-3),), widths=(np.int32(8),),
                         dropouts=(np.float64(0.0), np.float64(0.1)), variants=(np.str_("crate_c"),), seed=1)
        plain = GridSpec(batch_sizes=(8,), lrs=(5e-3,), widths=(8,), dropouts=(0.0, 0.1),
                         variants=("crate_c",), seed=1)
        assert typed.cells() == plain.cells()
        assert [typed.cell_seed(pt) for _, pt in typed.cells()] == [plain.cell_seed(pt) for _, pt in plain.cells()]
        assert typed.cells()[0][0] == "bs8-lr0.005-w8-do0.0-crate_c"
        manifest = run_zoo(typed, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert on_disk["cells"] == manifest["cells"]
        assert sorted(on_disk["cells"]) == sorted(k for k, _ in plain.cells())
        assert all(entry["status"] == "done" for entry in on_disk["cells"].values())

    def test_numpy_seed_normalized(self):
        grid = GridSpec.desk(seed=np.int64(1))
        assert type(grid.seed) is int and grid == GridSpec.desk(seed=1)
        assert json.loads(json.dumps(dataclasses.asdict(grid)))["seed"] == 1
        assert [grid.cell_seed(pt) for _, pt in grid.cells()] == [
            GridSpec.desk(seed=1).cell_seed(pt) for _, pt in grid.cells()
        ]

    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "1", None], ids=repr)
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=re.escape(f"seed must be an int, got {seed!r}")):
            GridSpec.desk(seed=seed)

    def test_int_valued_float_axes_key_as_floats(self):
        grid = GridSpec(batch_sizes=(8,), lrs=(1,), widths=(8,), dropouts=(0,), variants=("crate_c",))
        [(key, pt)] = grid.cells()
        assert key == "bs8-lr1.0-w8-do0.0-crate_c"
        assert (type(pt.lr_init), type(pt.dropout)) == (float, float)
        assert grid.cell_seed(pt) == dataclasses.replace(grid, lrs=(1.0,), dropouts=(0.0,)).cell_seed(pt)


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

    def test_first_epoch_divergence_is_a_done_diverged_cell(self, tmp_path):
        manifest = run_zoo(DIVERGING, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text(), parse_constant=reject_constant)
        assert on_disk["cells"] == manifest["cells"]
        entries = [manifest["cells"][key] for key, c in DIVERGING.cells() if c.lr_init == 1e200]
        assert len(entries) == 2
        for entry in entries:
            assert entry["status"] == "done" and entry["diverged"] and not entry["converged"]
            assert entry["epochs_run"] == 0
            # a run with no epoch row has no CE: JSON null, the note says why
            assert all(entry[k] is None for k in ("train_ce", "val_ce", "gap"))
            assert entry["note"].startswith("training diverged")

    def test_gram_past_float64_range_is_a_done_diverged_cell(self, tmp_path, monkeypatch):
        def overflowing_gram(cfg):  # each layer output finite, its regularizer Gram past float64 range
            model = init_model(cfg)
            model.params["layers.0.D"].data *= 1e60
            return model

        monkeypatch.setattr(zoo, "init_model", overflowing_gram)
        grid = dataclasses.replace(MINI, dropouts=(0.0,), variants=("crate_c",))
        reg = dataclasses.replace(TRAIN, eta_reg=0.1, reg_mode="all_layers")
        (entry,) = run_zoo(grid, DATA, reg, str(tmp_path), model_template=MODEL)["cells"].values()
        assert entry["status"] == "done" and entry["diverged"] and not entry["converged"]
        assert entry["note"] == "training diverged (non-finite loss) at epoch 0, step 0"

    def test_retry_failed(self, tmp_path):
        run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=BAD_MODEL)
        # without the flag, failures stay as they are
        manifest = run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=GOOD_AT_10)
        assert all(e["status"] == "failed" for e in manifest["cells"].values())
        manifest = run_zoo(WIDE, DATA, TRAIN, str(tmp_path), model_template=GOOD_AT_10,
                           retry_failed=True)
        assert all(e["status"] == "done" for e in manifest["cells"].values())

    @pytest.mark.parametrize(
        "changed, name",
        [
            ({"data": dataclasses.replace(DATA, separation=1.0)}, "data.separation = 4.0, not 1.0"),
            ({"train_template": dataclasses.replace(TRAIN, epochs=4)}, "train_template.epochs = 3, not 4"),
        ],
        ids=["data", "train_template"],
    )
    def test_resume_with_other_settings_rejected(self, tmp_path, changed, name):
        grid = dataclasses.replace(MINI, dropouts=(0.0,))
        settings = {"data": DATA, "train_template": TRAIN}
        run_zoo(grid, **settings, out_dir=str(tmp_path), model_template=MODEL)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        # the trained cells would no longer match the manifest's data or template
        with pytest.raises(ConfigError, match=re.escape(name)):
            run_zoo(grid, **{**settings, **changed}, out_dir=str(tmp_path), model_template=MODEL)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_done_entry_carries_what_the_benchmark_reads(self, tmp_path):
        # bench/workloads.py reads status, converged and gap, and bench/tracer.py
        # reads epochs_run through .get(..., 0), so a rename would count 0 epochs
        for entry in run_mini(tmp_path)["cells"].values():
            assert entry["status"] == "done"
            assert type(entry["converged"]) is bool and type(entry["gap"]) is float
            assert type(entry["epochs_run"]) is int and entry["epochs_run"] == 3

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched train only when forked")
    def test_crashed_worker_fails_its_cell_and_retry_trains_it(self, tmp_path, monkeypatch):
        grid = dataclasses.replace(MINI, dropouts=(0.0,), variants=("crate_c", "crate_n", "crate_t"))
        keys = [key for key, _ in grid.cells()]
        real_train = zoo.train

        def crash_on_second_cell(model, dataset, cfg, trace_path=None):
            if os.path.basename(trace_path).startswith(keys[1] + "."):
                os._exit(1)
            return real_train(model, dataset, cfg, trace_path=trace_path)

        monkeypatch.setattr(zoo, "train", crash_on_second_cell)
        manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL, workers=2)
        assert sorted(manifest["cells"]) == sorted(keys)
        assert json.loads((tmp_path / MANIFEST_NAME).read_text())["cells"] == manifest["cells"]
        crashed = manifest["cells"][keys[1]]
        assert crashed["status"] == "failed" and crashed["error"].startswith("BrokenProcessPool: ")
        monkeypatch.undo()
        manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL, workers=2, retry_failed=True)
        assert [manifest["cells"][key]["status"] for key in keys] == ["done"] * 3

    def test_pool_starts_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records its size and runs each cell in this process: it starts nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(zoo, "ProcessPoolExecutor", RecordingPool)
        manifest = run_zoo(MINI, DATA, TRAIN, str(tmp_path / "many"), model_template=MODEL, workers=100_000)
        assert sizes == [len(MINI.cells())] == [4]
        assert all(entry["status"] == "done" for entry in manifest["cells"].values())
        # one pending cell trains in this process: no pool at all
        one = dataclasses.replace(MINI, dropouts=(0.0,), variants=("crate_c",))
        run_zoo(one, DATA, TRAIN, str(tmp_path / "one"), model_template=MODEL, workers=8)
        assert sizes == [4]

    @pytest.mark.parametrize("workers", [2.5, "2", True])
    def test_workers_held_to_the_count_rule(self, tmp_path, workers):
        with pytest.raises(ConfigError, match=re.escape(f"workers must be an int >= 1, got {workers!r}")):
            run_zoo(MINI, DATA, TRAIN, str(tmp_path), model_template=MODEL, workers=workers)

    def test_cell_seeds_recorded(self, tmp_path):
        manifest = run_mini(tmp_path)
        for key, pt in MINI.cells():
            assert manifest["cells"][key]["seed"] == MINI.cell_seed(pt)
            assert manifest["cells"][key]["coords"] == dataclasses.asdict(pt)


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

    def test_diverged_cells_skipped(self, tmp_path):
        manifest = run_zoo(DIVERGING, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        assert all(entry["status"] == "done" for entry in manifest["cells"].values())
        path = measure_zoo(str(tmp_path))
        keys = [ln.split(",", 1)[0] for ln in Path(path).read_text().strip().split("\n")[1:]]
        assert keys == [key for key, c in DIVERGING.cells() if c.lr_init == 5e-3]
        assert all(not manifest["cells"][key]["diverged"] for key in keys)

    def test_unreadable_checkpoint_skips_only_its_cell(self, tmp_path, capsys):
        def truncate(ckpt):
            ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])

        bad, [line], healthy, damaged = measure_with_one_damaged_checkpoint(tmp_path, capsys, truncate)
        # the healthy cell's row keeps its bytes; the broken cell has none
        assert damaged == [healthy[0], healthy[2], ""]
        assert bad in line and "FormatError" in line

    @pytest.mark.parametrize(
        "damage, error",
        [
            (os.remove, "FileNotFoundError"),
            # a well-formed checkpoint of a model that reads 5-dim features, where the data has 6
            (lambda ckpt: save_checkpoint(init_model(dataclasses.replace(MODEL, feat_dim=5)), str(ckpt)),
             "ShapeError: expected 5-dim feature columns, got 6"),
        ],
        ids=["missing", "other-geometry"],
    )
    def test_any_bad_checkpoint_skips_only_its_cell(self, tmp_path, capsys, damage, error):
        bad, [line], healthy, damaged = measure_with_one_damaged_checkpoint(tmp_path, capsys, damage)
        assert damaged == [healthy[0], healthy[2], ""]
        assert line.startswith(f"measure_zoo: skipped cell {bad}: {error}")

    def test_zero_matrix_cell_gets_a_row_and_a_note(self, tmp_path, capsys):
        grid = dataclasses.replace(MINI, dropouts=(0.0,))
        manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        (zero, _), (good, _) = grid.cells()
        healthy = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
        capsys.readouterr()
        path = str(tmp_path / manifest["cells"][zero]["checkpoint"])
        model = load_checkpoint(path)
        model.params["head.weight"].data[:] = 0.0
        save_checkpoint(model, path)
        rows = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
        assert rows[1].startswith(zero + ",") and rows[2] == healthy[2]
        row = rows[1].split(",")
        assert row[1 + FIELD_ORDER.index("fro_over_spec")] == "nan"
        notes = diagnostics(capsys.readouterr().err)
        assert f"measure_zoo: note: {zero}: fro_over_spec: zero spectral norm of head.weight" in notes

    def test_cell_notes_go_to_stderr(self, tmp_path, capsys):
        grid = dataclasses.replace(MINI, dropouts=(0.0,))
        manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        (flat, _), (good, _) = grid.cells()
        healthy = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
        assert diagnostics(capsys.readouterr().err) == []
        # equal head rows and no bias: every logit ties, so the margin is zero
        path = str(tmp_path / manifest["cells"][flat]["checkpoint"])
        model = load_checkpoint(path)
        model.params["head.weight"].data[:] = model.params["head.weight"].data[0]
        model.params["head.bias"].data[:] = 0.0
        save_checkpoint(model, path)
        rows = Path(measure_zoo(str(tmp_path))).read_text().split("\n")
        ratios = ["inv_margin", "prod_of_fro_over_margin", "prod_of_spec_over_margin", "spec_init_main",
                  "spec_orig_main", "sum_of_fro_over_margin", "sum_of_spec_over_margin"]
        assert diagnostics(capsys.readouterr().err) == [f"measure_zoo: note: {flat}: {f}: zero margin" for f in ratios]
        row = dict(zip(FIELD_ORDER, rows[1].split(",")[1:]))
        assert sorted(f for f, v in row.items() if not np.isfinite(float(v))) == ratios
        assert rows[1].startswith(flat + ",") and rows[2] == healthy[2] and rows[2].startswith(good + ",")

    def test_missing_zoo_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            measure_zoo(str(tmp_path / "nowhere"))

    def test_rerun_is_byte_identical(self, tmp_path):
        run_mini(tmp_path)
        first = Path(measure_zoo(str(tmp_path))).read_text()
        second = Path(measure_zoo(str(tmp_path))).read_text()
        assert first == second


class TestProgress:
    def test_one_stderr_line_per_cell_in_each_stage(self, tmp_path, capsys):
        grid = dataclasses.replace(DIVERGING, lrs=(5e-3, 1e200, 1e-2), variants=("crate_c",))
        keys = [key for key, _ in grid.cells()]
        run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        trained = [PROGRESS.match(line).groups() for line in capsys.readouterr().err.splitlines()]
        assert [(stage, int(i), int(n), key, status) for stage, i, n, key, status, _ in trained] == [
            ("run", i, 3, key, "done") for i, key in enumerate(keys, 1)
        ]
        measure_zoo(str(tmp_path))
        measured = [m.groups() for m in map(PROGRESS.match, capsys.readouterr().err.splitlines()) if m]
        # the diverged cell has no row and no progress line
        assert [(stage, int(i), int(n), key, status) for stage, i, n, key, status, _ in measured] == [
            ("measure", 1, 2, keys[0], "measured"), ("measure", 2, 2, keys[2], "measured")
        ]
        assert all(float(seconds) >= 0 for *_, seconds in trained + measured)

    def test_resumed_and_skipped_cells(self, tmp_path, capsys):
        grid = dataclasses.replace(MINI, dropouts=(0.0,))
        manifest = run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL)
        (bad, _), (good, _) = grid.cells()
        capsys.readouterr()
        assert run_zoo(grid, DATA, TRAIN, str(tmp_path), model_template=MODEL) == manifest
        assert capsys.readouterr().err == ""  # nothing left to train
        ckpt = tmp_path / manifest["cells"][bad]["checkpoint"]
        ckpt.write_bytes(b"")
        measure_zoo(str(tmp_path))
        lines = capsys.readouterr().err.splitlines()
        assert [m.group(2, 3, 4, 5) for m in map(PROGRESS.match, lines) if m] == [
            ("1", "2", bad, "skipped"), ("2", "2", good, "measured")
        ]

    def test_artifacts_carry_no_progress(self, tmp_path, capsys):
        run_mini(tmp_path)
        measure_zoo(str(tmp_path))
        printed = capsys.readouterr().err.splitlines()
        assert len(printed) == 2 * len(MINI.cells()) and all(map(PROGRESS.match, printed))
        for path in tmp_path.iterdir():
            text = path.read_bytes()
            assert b"run_zoo" not in text and b"measure_zoo" not in text


class TestReproducibility:
    def test_every_file_is_byte_identical_whatever_the_workers(self, tmp_path):
        dirs = [tmp_path / name for name in ("first", "second", "two-workers")]
        for out, workers in zip(dirs, (1, 1, 2)):
            run_conv(out, workers=workers)
            measure_zoo(str(out))
            correlate_zoo(str(out)).save(out / "report.csv")
        names = sorted(path.name for path in dirs[0].iterdir())
        # a manifest, a measures file, a report, and a checkpoint and a trace per cell
        assert len(names) == 3 + 2 * len(MINI_CONV.cells())
        for out in dirs[1:]:
            assert sorted(path.name for path in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (dirs[0] / name).read_bytes(), name


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

    @pytest.mark.parametrize("damage, named", [
        (lambda m, key: m["cells"].__setitem__(key, 5), "cell {key}: no 'status' of 'done' or 'failed'"),
        (lambda m, key: m["cells"][key].__setitem__("status", "x"), "cell {key}: no 'status' of 'done' or 'failed'"),
        (lambda m, key: m["cells"][key].pop("coords"), "cell {key}: missing key 'coords'"),
        (lambda m, key: m["cells"][key]["coords"].pop("width"), "cell {key}: malformed key 'coords'"),
        (lambda m, key: m["cells"][key].__setitem__("checkpoint", 5), "cell {key}: malformed key 'checkpoint'"),
        (lambda m, key: m["cells"][key].__setitem__("converged", "yes"), "cell {key}: malformed key 'converged'"),
        (lambda m, key: m["cells"][key].pop("diverged"), "cell {key}: missing key 'diverged'"),
        (lambda m, key: m["cells"][key].__setitem__("gap", "0.1"), "cell {key}: malformed key 'gap'"),
        (lambda m, key: m.pop("data"), "trained cells but no 'data' object"),
        (lambda m, key: m.pop("grid"), "trained cells but no 'grid' object"),
    ], ids=["entry", "status", "no-coords", "coords", "checkpoint", "converged", "no-diverged", "gap",
            "no-data", "no-grid"])
    def test_malformed_manifest_is_a_format_error(self, tmp_path, damage, named):
        run_mini(tmp_path)
        measure_zoo(str(tmp_path))
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        key = MINI.cells()[0][0]
        damage(manifest, key)
        mpath.write_text(json.dumps(manifest))
        for reader in (measure_zoo, load_zoo_records):
            with pytest.raises(FormatError, match=re.escape(f"{MANIFEST_NAME}: {named.format(key=repr(key))}")):
                reader(str(tmp_path))

    def test_measure_row_of_a_failed_cell_is_a_format_error(self, tmp_path):
        run_mini(tmp_path)
        measure_zoo(str(tmp_path))
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        key = MINI.cells()[0][0]
        manifest["cells"][key] = {"status": "failed", "coords": manifest["cells"][key]["coords"]}
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"row {key!r} is not a trained cell"):
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

    def test_repeated_row_rejected(self, tmp_path):
        run_mini(tmp_path)
        path = Path(measure_zoo(str(tmp_path)))
        first = path.read_text().split("\n")[1]
        with open(path, "a") as fh:
            fh.write(first + "\n")
        with pytest.raises(FormatError, match=re.escape(f"repeats the row of cell {first.split(',')[0]!r}")):
            load_zoo_records(str(tmp_path))

    @pytest.mark.parametrize(
        "edit", [lambda row: row.rsplit(",", 1)[0], lambda row: row + ",1.0"], ids=["short", "long"]
    )
    def test_row_with_another_field_count_names_its_cell(self, tmp_path, edit):
        run_zoo(dataclasses.replace(MINI, dropouts=(0.0,)), DATA, TRAIN, str(tmp_path), model_template=MODEL)
        path = Path(measure_zoo(str(tmp_path)))
        lines = path.read_text().split("\n")
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match=re.escape(repr(lines[2].split(",")[0]))):
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
        with pytest.raises(ConfigError, match="unknown measure 'nosuch'"):
            correlate_zoo(str(tmp_path), measure_names=["l2_norm", "nosuch"])

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

    def test_null_gap_reads_as_nan(self, tmp_path):
        run_conv(tmp_path)
        measure_zoo(str(tmp_path))
        mpath = tmp_path / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        key = MINI_CONV.cells()[0][0]
        manifest["cells"][key]["gap"] = None
        mpath.write_text(json.dumps(manifest))
        gaps = [r.gap for r in load_zoo_records(str(tmp_path))]
        assert np.isnan(gaps[0]) and np.isfinite(gaps[1:]).all()
