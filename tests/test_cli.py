import json
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

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"schedule": "warp"}}))
        rc = main(["train", "--config", str(p)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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


@pytest.mark.filterwarnings(r"ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_divergence_in_the_first_epoch_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SYNTH, train=dict(SYNTH["train"], lr_init=1e200)))
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "m.npz"), "--trace", str(tmp_path / "t.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "diverged after 0 epochs" in out
    assert "note: training diverged (non-finite loss" in out
