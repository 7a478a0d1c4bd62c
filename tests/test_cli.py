import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from srr.cli import _parse_reg, main
from srr.errors import ConfigError
from srr.measures import FIELD_ORDER
from srr.model import load_checkpoint

SYNTH = {
    "data": {"classes": 2, "tokens": 4, "feat_dim": 6, "subspace_dim": 2,
             "separation": 4.0, "n_train": 48, "n_val": 24, "seed": 3},
    "model": {"L": 1, "d": 8, "K": 2},
    "train": {"batch_size": 8, "lr_init": 1e-2, "epochs": 4, "stop_criterion": 1e-9},
}


def write_config(tmp_path, cfg=SYNTH, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def train_small(tmp_path, extra=()):
    cfg = write_config(tmp_path)
    ckpt = str(tmp_path / "model.ckpt.npz")
    trace = str(tmp_path / "trace.csv")
    rc = main(["train", "--config", cfg, "--out", ckpt, "--trace", trace, *extra])
    assert rc == 0
    return cfg, ckpt, trace


class TestParseReg:
    def test_modes(self):
        assert _parse_reg("none", None) == {"reg_mode": "none", "eta_reg": 0.0}
        assert _parse_reg("all", None) == {"reg_mode": "all_layers", "eta_reg": 0.001}
        assert _parse_reg("random", 0.01) == {"reg_mode": "random_layer", "eta_reg": 0.01}
        assert _parse_reg("layer:3", None) == {
            "reg_mode": "fixed_layer", "reg_layer": 3, "eta_reg": 0.001,
        }

    def test_eta_ignored_without_mode(self):
        assert _parse_reg("none", 0.5)["eta_reg"] == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            _parse_reg("sometimes", None)


class TestToyCommand:
    def test_writes_trace(self, tmp_path, capsys):
        out = str(tmp_path / "toy.csv")
        rc = main(["toy", "--rule", "e", "--layers", "3", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "rule,layer,rc_before,rc_after"
        assert len(lines) == 4
        assert all(ln.startswith("e,") for ln in lines[1:])
        assert "3 layer rows for rule e" in capsys.readouterr().out

    def test_rule_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            main(["toy", "--rule", "q"])


class TestTrainCommand:
    def test_train_writes_checkpoint_and_trace(self, tmp_path, capsys):
        _, ckpt, trace = train_small(tmp_path)
        out = capsys.readouterr().out
        assert "budget exhausted after 4 epochs" in out
        model = load_checkpoint(ckpt)
        assert model.cfg.L == 1 and model.cfg.d == 8
        lines = Path(trace).read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 epochs

    def test_no_trace_file_unless_asked(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", cfg, "--out", "m.npz"]) == 0
        assert not (tmp_path / "trace.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "m.npz"]
        assert "trace:" not in capsys.readouterr().out

    def test_seed_override_changes_weights(self, tmp_path):
        cfg = write_config(tmp_path)
        a = str(tmp_path / "a.npz")
        b = str(tmp_path / "b.npz")
        for out, seed in ((a, "1"), (b, "2")):
            rc = main(["train", "--config", cfg, "--seed", seed, "--out", out,
                       "--trace", str(tmp_path / "t.csv")])
            assert rc == 0
        ma, mb = load_checkpoint(a), load_checkpoint(b)
        assert not np.array_equal(ma.params["embed"].data, mb.params["embed"].data)

    def test_regularized_training(self, tmp_path, capsys):
        _, ckpt, trace = train_small(tmp_path, extra=("--reg", "layer:1", "--eta", "0.001"))
        text = Path(trace).read_text().strip().split("\n")
        header = text[0].split(",")
        reg_col = header.index("reg_value")
        assert all(float(ln.split(",")[reg_col]) != 0.0 for ln in text[1:])

    @staticmethod
    def train_with(tmp_path, train_section, name, extra=()):
        """Train from SYNTH with extra train keys; returns the trace's
        reg_value column and the checkpoint's embedding."""
        cfg = write_config(tmp_path, dict(SYNTH, train={**SYNTH["train"], **train_section}), f"{name}.json")
        ckpt, trace = str(tmp_path / f"{name}.npz"), tmp_path / f"{name}.csv"
        assert main(["train", "--config", cfg, "--out", ckpt, "--trace", str(trace), *extra]) == 0
        rows = [ln.split(",") for ln in trace.read_text().strip().split("\n")]
        col = rows[0].index("reg_value")
        return [float(r[col]) for r in rows[1:]], load_checkpoint(ckpt).params["embed"].data

    def test_config_regularizer_applies_without_flags(self, tmp_path, capsys):
        reg, _ = self.train_with(tmp_path, {"reg_mode": "all_layers", "eta_reg": 0.01}, "file")
        assert len(reg) == 4 and all(v != 0.0 for v in reg)

    def test_flags_override_the_config_regularizer(self, tmp_path, capsys):
        section = {"reg_mode": "all_layers", "eta_reg": 0.01}
        off, _ = self.train_with(tmp_path, section, "off", ("--reg", "none"))
        assert off == [0.0] * 4
        # --eta alone reweights the file's mode: the weights of a file that carries that eta
        _, flagged = self.train_with(tmp_path, section, "flag", ("--eta", "0.5"))
        _, filed = self.train_with(tmp_path, {**section, "eta_reg": 0.5}, "filed")
        _, light = self.train_with(tmp_path, section, "light")
        assert np.array_equal(flagged, filed) and not np.array_equal(flagged, light)

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"schedule": "warp"}}))
        rc = main(["train", "--config", str(p)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_at_exactly_the_out_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", cfg, "--out", ckpt]) == 0
        assert f"checkpoint: {ckpt}" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "model.ckpt"]
        out = str(tmp_path / "row.csv")
        assert main(["measure", "--checkpoint", ckpt, "--config", cfg, "--out", out]) == 0
        assert Path(out).read_text().split("\n")[1].startswith("model.ckpt,")

    @pytest.mark.parametrize("lr", [-0.5, 0])
    def test_non_positive_lr_is_a_clean_error(self, tmp_path, capsys, lr):
        cfg = write_config(tmp_path, dict(SYNTH, train=dict(SYNTH["train"], lr_init=lr)))
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lr_init" in err
        assert not ckpt.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestProbeCommand:
    def test_probe_csv(self, tmp_path, capsys):
        cfg, ckpt, _ = train_small(tmp_path)
        out = str(tmp_path / "probes.csv")
        rc = main(["probe", "--checkpoint", ckpt, "--config", cfg, "--out", out,
                   "--samples", "4"])
        assert rc == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "layer,r,rc,l0,srr"
        assert len(lines) == 2  # one layer
        layer, r, rcv, l0, srr = lines[1].split(",")
        assert layer == "1"
        assert float(srr) == pytest.approx(0.1 * float(l0) + float(rcv) - float(r), rel=1e-9)

    def test_lambda_flag_scales_srr(self, tmp_path):
        cfg, ckpt, _ = train_small(tmp_path)
        rows = {}
        for lam in ("0.1", "0.4"):
            out = str(tmp_path / f"p{lam}.csv")
            assert main(["probe", "--checkpoint", ckpt, "--config", cfg,
                         "--lambda", lam, "--out", out]) == 0
            rows[lam] = Path(out).read_text().strip().split("\n")[1].split(",")
        assert rows["0.1"][1] == rows["0.4"][1]  # r unchanged
        assert float(rows["0.1"][4]) != float(rows["0.4"][4])


class TestZooCommand:
    def grid_config(self, tmp_path):
        cfg = {
            "grid": {"scale": "desk", "batch_sizes": [8], "lrs": [1e-2], "widths": [8],
                     "dropouts": [0.0], "variants": ["crate_c", "crate_n"], "seed": 1},
            "data": SYNTH["data"],
            "model": SYNTH["model"],
            "train": {"batch_size": 8, "lr_init": 1e-2, "epochs": 10, "stop_criterion": 0.3},
        }
        return write_config(tmp_path, cfg, "grid.json")

    def test_zoo_measure_correlate_pipeline(self, tmp_path, capsys):
        grid = self.grid_config(tmp_path)
        zoo_dir = str(tmp_path / "zoo")
        rc = main(["zoo", "--grid", grid, "--out", zoo_dir, "--measure"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "measures:" in out

        report = str(tmp_path / "report.csv")
        rc = main(["correlate", "--zoo", zoo_dir, "--measures", "l2_norm,srr",
                   "--out", report, "--text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote report (2 measures" in out
        lines = Path(report).read_text().strip().split("\n")
        assert lines[0].startswith("measure,batch_size,")
        assert lines[1].startswith("l2_norm,")
        assert lines[-1].startswith("# converged=")

        rc = main(["correlate", "--zoo", zoo_dir, "--measures", "l2_norm,nosuch,other", "--out", report])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'nosuch'" in err and "'other'" not in err

    @pytest.mark.parametrize("scale, rc", [("desk", 0), ("paper", 0), ("dek", 2)])
    def test_grid_scale_checked(self, tmp_path, capsys, scale, rc):
        cfg = json.loads(Path(self.grid_config(tmp_path)).read_text())
        cfg["grid"]["scale"] = scale
        zoo_dir = tmp_path / "zoo"
        assert main(["zoo", "--grid", write_config(tmp_path, cfg, "grid.json"), "--out", str(zoo_dir)]) == rc
        if rc:
            err = capsys.readouterr().err
            assert err.startswith("error:") and "grid.scale" in err and "'dek'" in err
            assert not zoo_dir.exists()
        else:
            assert "2 done" in capsys.readouterr().out

    def test_image_zoo_takes_patch_and_classes_from_data(self, tmp_path, capsys):
        # eight CIFAR-100 records (coarse label, fine label, 3072 pixel bytes) with fine labels past 10
        rng = np.random.default_rng(0)
        records = b"".join(bytes([0, 10 * i + 5]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
                           for i in range(8))
        (tmp_path / "mini.bin").write_bytes(records)
        cfg = {
            "grid": {"batch_sizes": [4], "lrs": [1e-3], "widths": [48], "dropouts": [0.0],
                     "variants": ["crate_c", "crate_n"]},
            "data": {"source": "cifar100", "path": str(tmp_path / "mini.bin"), "patch": 8},
            "train": {"epochs": 2, "stop_criterion": 1e-9},
        }
        zoo_dir = tmp_path / "zoo"
        assert main(["zoo", "--grid", write_config(tmp_path, cfg, "grid.json"), "--out", str(zoo_dir)]) == 0
        assert "2 done" in capsys.readouterr().out
        manifest = json.loads((zoo_dir / "manifest.json").read_text())
        assert [e["status"] for e in manifest["cells"].values()] == ["done", "done"]
        model = load_checkpoint(str(zoo_dir / manifest["cells"]["bs4-lr0.001-w48-do0.0-crate_c"]["checkpoint"]))
        assert (model.cfg.patch, model.cfg.num_classes, model.cfg.d) == (8, 100, 48)

    def test_resume_with_other_data_is_a_clean_error(self, tmp_path, capsys):
        grid = self.grid_config(tmp_path)
        zoo_dir = str(tmp_path / "zoo")
        assert main(["zoo", "--grid", grid, "--out", zoo_dir]) == 0
        cfg = json.loads(Path(grid).read_text())
        cfg["data"]["separation"] = 1.0
        capsys.readouterr()
        assert main(["zoo", "--grid", write_config(tmp_path, cfg, "grid.json"), "--out", zoo_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "data.separation = 4.0, not 1.0" in err

    def test_correlate_without_measures_file(self, tmp_path, capsys):
        grid = self.grid_config(tmp_path)
        zoo_dir = str(tmp_path / "zoo")
        assert main(["zoo", "--grid", grid, "--out", zoo_dir]) == 0
        capsys.readouterr()
        rc = main(["correlate", "--zoo", zoo_dir, "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "measure_zoo" in capsys.readouterr().err


class TestMeasureCommand:
    @pytest.mark.parametrize("command", ["measure", "probe"])
    def test_checkpoint_missing_a_parameter_is_a_clean_error(self, tmp_path, capsys, command):
        cfg, ckpt, _ = train_small(tmp_path)
        with np.load(ckpt) as zf:
            entries = {key: zf[key] for key in zf.files if key != "param.embed"}
        np.savez(ckpt, **entries)
        capsys.readouterr()
        rc = main([command, "--checkpoint", ckpt, "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'param.embed'" in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda e: e.pop("pos"), "'pos'"),
            (lambda e: e.update({"layers.0.U": np.zeros((8, 6))}), "'layers.0.U'"),
            (lambda e: e.update({"extra": np.zeros(3)}), "'extra'"),
        ],
        ids=["missing", "misshapen", "unexpected"],
    )
    def test_mismatched_init_snapshot_is_a_clean_error(self, tmp_path, capsys, edit, named):
        cfg, ckpt, _ = train_small(tmp_path)
        snapshot = dict(load_checkpoint(ckpt).init_snapshot)
        edit(snapshot)
        snap = str(tmp_path / "snap.npz")
        np.savez(snap, **snapshot)
        out = tmp_path / "o.csv"
        capsys.readouterr()
        rc = main(["measure", "--checkpoint", ckpt, "--config", cfg, "--init-snapshot", snap, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    def test_truncated_init_snapshot_is_a_clean_error(self, tmp_path, capsys):
        cfg, ckpt, _ = train_small(tmp_path)
        snap = tmp_path / "snap.npz"
        np.savez(str(snap), **load_checkpoint(ckpt).init_snapshot)
        snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])
        capsys.readouterr()
        rc = main(["measure", "--checkpoint", ckpt, "--config", cfg, "--init-snapshot", str(snap),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {snap}: unreadable init snapshot")

    @pytest.mark.parametrize("option, what", [("--checkpoint", "checkpoint"), ("--init-snapshot", "init snapshot")])
    def test_npy_file_is_a_clean_error(self, tmp_path, capsys, option, what):
        cfg, ckpt, _ = train_small(tmp_path)
        npy = tmp_path / "v.npy"
        np.save(str(npy), np.zeros(3))
        args = {"--checkpoint": ckpt, "--init-snapshot": None, option: str(npy)}
        capsys.readouterr()
        rc = main(["measure", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                   *(token for opt, path in args.items() if path for token in (opt, path))])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {npy}: unreadable {what}")

    def test_matching_init_snapshot_is_used(self, tmp_path, capsys):
        cfg, ckpt, _ = train_small(tmp_path)
        snap = str(tmp_path / "snap.npz")
        np.savez(snap, **load_checkpoint(ckpt).init_snapshot)
        rows = {}
        for name, extra in (("own", []), ("file", ["--init-snapshot", snap])):
            out = tmp_path / f"{name}.csv"
            assert main(["measure", "--checkpoint", ckpt, "--config", cfg, "--out", str(out), *extra]) == 0
            rows[name] = out.read_text()
        assert rows["own"] == rows["file"]

    def test_measure_row(self, tmp_path, capsys):
        cfg, ckpt, _ = train_small(tmp_path)
        out = str(tmp_path / "row.csv")
        rc = main(["measure", "--checkpoint", ckpt, "--config", cfg, "--out", out])
        assert rc == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "cell," + ",".join(FIELD_ORDER)
        cells = lines[1].split(",")
        assert cells[0] == "model.ckpt.npz"
        assert len(cells) == 1 + len(FIELD_ORDER)
        assert np.isfinite(float(cells[1]))

    def test_disabling_snapshot_prints_notes(self, tmp_path, capsys):
        cfg, ckpt, _ = train_small(tmp_path)
        out = str(tmp_path / "row.csv")
        rc = main(["measure", "--checkpoint", ckpt, "--config", cfg,
                   "--init-snapshot", "none", "--out", out])
        assert rc == 0
        err = capsys.readouterr().err
        assert "note: fro_distance: init snapshot missing" in err
        row = Path(out).read_text().strip().split("\n")[1].split(",")
        idx = 1 + FIELD_ORDER.index("fro_distance")
        assert row[idx] == "nan"


@pytest.mark.parametrize(
    "command, cfg, named",
    [
        ("train", {"data": {"bogus": 1}}, "'bogus'"),
        ("probe", {"data": {"bogus": 1}}, "'bogus'"),
        ("measure", {"data": {"bogus": 1}}, "'bogus'"),
        ("train", {"model": {"L": "2"}}, "'L'"),
        ("train", {"train": {"bogus": 3}}, "'bogus'"),
        ("zoo", {"grid": {"bogus": [1]}}, "'bogus'"),
        ("zoo", {"grid": ["x"]}, "'grid'"),
    ],
    ids=["train-data-key", "probe-data-key", "measure-data-key", "model-type", "train-key", "grid-key", "grid-list"],
)
def test_bad_config_section_is_a_clean_error(tmp_path, capsys, command, cfg, named):
    path = write_config(tmp_path, cfg)
    flag = "--grid" if command == "zoo" else "--config"
    args = [command, flag, path, "--out", str(tmp_path / "out")]
    if command in ("probe", "measure"):
        args += ["--checkpoint", str(tmp_path / "never-read.npz")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_divergence_in_the_first_epoch_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SYNTH, train=dict(SYNTH["train"], lr_init=1e200)))
    args = ["train", "--config", cfg, "--out", str(tmp_path / "m.npz"), "--trace", str(tmp_path / "t.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 0
    # the diverged line and its note report the overflow; numpy stays quiet
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    assert "diverged after 0 epochs" in captured.out
    assert "note: training diverged (non-finite loss" in captured.out


@pytest.mark.parametrize("element", [1.5, "x", True])
def test_bad_grid_element_is_a_clean_error(tmp_path, capsys, element):
    cfg = write_config(tmp_path, {"grid": {"batch_sizes": [element]}, "data": SYNTH["data"],
                                  "model": SYNTH["model"]}, "grid.json")
    out = tmp_path / "zoo"
    assert main(["zoo", "--grid", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "batch_sizes" in err and repr(element) in err
    assert not list(tmp_path.rglob("*.ckpt.npz"))


@pytest.mark.parametrize(
    "command, args",
    [
        ("probe", ["--samples", "0"]),
        ("probe", ["--samples", "-3"]),
        ("toy", ["--gamma", "0"]),
        ("toy", ["--gamma", "-1"]),
        ("toy", ["--layers", "0"]),
    ],
    ids=["probe-no-samples", "probe-negative-samples", "toy-zero-gamma", "toy-negative-gamma", "toy-no-layers"],
)
def test_degenerate_arguments_write_no_nan_rows(tmp_path, capsys, command, args):
    out = tmp_path / "out.csv"
    if command == "probe":
        cfg, ckpt, _ = train_small(tmp_path)
        args = ["--checkpoint", ckpt, "--config", cfg, *args]
    else:
        args = ["--rule", "c", "--layers", "2", *args]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
