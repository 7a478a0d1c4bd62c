"""Hostile input, table-driven: every field of the five config classes and
every numeric flag of ``toy`` (under each of its six rules), ``train``,
``probe``, ``measure``, ``zoo`` and ``correlate`` is fed 0, -1, NaN, +-inf,
1e308, a wrong type and an impossible size, through ``cli.main`` in process
at a tiny geometry and one epoch.

Each case must end in exit 2 with an ``error:`` line, or in exit 0 with no
warning (warnings are errors here), and with a note when a training run
diverged.  A width filter that matches no cell names itself and the
zoo's widths.  ``measure`` also runs on a model whose PAC-Bayes draws
overflow and on three whose weights are scaled by up to 1e160.  Counts
that only bound a loop stay out at the impossible size: the run would be
valid, only long.
"""

import contextlib
import copy
import dataclasses
import itertools
import json
import math
import re
import signal
import warnings

import pytest

from srr.cli import main
from srr.data import DatasetSpec
from srr.errors import ConfigError
from srr.model import ModelConfig, init_model, save_checkpoint
from srr.rates import RateConfig
from srr.toy_dynamics import RULES, run_dynamics
from srr.training import TrainConfig
from srr.zoo import GridSpec

IMPOSSIBLE = 10**14  # as float64, 8e14 bytes: more than the 1.4e14 of user address space x86-64 Linux maps
VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e308, "x", IMPOSSIBLE]
LOOP_COUNTS = {"epochs", "--epochs", "--layers"}
CASE_SECONDS = 10  # a case that loops on fails here instead of hanging the suite
CASE_NUMBERS = itertools.count()  # each case reads a config file of its own

BASE = {
    "data": {"classes": 2, "tokens": 3, "feat_dim": 4, "subspace_dim": 2, "n_train": 8, "n_val": 4},
    "model": {"L": 1, "d": 4, "K": 2},
    "train": {"batch_size": 8, "epochs": 1, "lr_init": 1e-2},
}
GRID = {"batch_sizes": [8], "lrs": [1e-2], "widths": [4], "dropouts": [0.0], "variants": ["crate_c"]}


class Overran(Exception):
    """A case ran past its deadline (no OSError, so ``cli.main`` lets it through)."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def values_for(name):
    return [v for v in VALUES if not (name in LOOP_COUNTS and v == IMPOSSIBLE)]


def fault(argv, capsys, named=None):
    """None when ``main(argv)`` ends as hostile input may, else what went
    wrong.  An exit 2 must carry ``named``, when given, in its error line."""
    capsys.readouterr()
    try:
        with deadline(CASE_SECONDS), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except SystemExit as exc:  # argparse refuses the flag value
        code = exc.code
    except Exception as exc:  # a traceback, a warning or the deadline
        return f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code == 2:
        if not any("error: " in line and (named or "") in line for line in err.splitlines()):
            return f"exit 2 without an error line naming {named!r}: {err!r}"
        return None
    if code != 0:
        return f"exit {code}"
    if "diverged" in out and "note: " not in out:
        return f"divergence without a note: {out!r}"
    return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.fixture(scope="module")
def base_config(workdir):
    path = workdir / "base.json"
    path.write_text(json.dumps(BASE))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(workdir, base_config):
    path = str(workdir / "base.ckpt.npz")
    assert main(["train", "--config", base_config, "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def zoo_dir(workdir):
    """A measured one-cell zoo whose cell converges, so a width filter has a record to keep."""
    cfg = dict(copy.deepcopy(BASE), grid=GRID)
    cfg["train"]["stop_criterion"] = 1.0
    out = str(workdir / "measured-zoo")
    assert main(["zoo", "--grid", write(workdir, cfg), "--out", out, "--measure"]) == 0
    return out


@pytest.fixture(scope="module")
def overflowing_checkpoint(workdir):
    """An untrained L=24 model whose clean forward is finite while a PAC-Bayes draw overflows."""
    path = str(workdir / "overflowing.ckpt.npz")
    save_checkpoint(init_model(ModelConfig(L=24, d=64, K=4, feat_dim=16, num_tokens=8, num_classes=2)), path)
    return path


@pytest.fixture(scope="module")
def huge_checkpoints(workdir):
    """L=2 checkpoints with one weight scaled past what float64 forwards and norms hold."""
    paths = {}
    for name, scale in (("layers.1.U", 1e100), ("layers.1.U", 1e60), ("pos", 1e160)):
        model = init_model(ModelConfig(L=2, d=8, K=2, feat_dim=4, num_tokens=3, num_classes=2))
        model.params[name].data *= scale
        paths[f"{name} x {scale:g}"] = path = str(workdir / f"huge-{name}-{scale:g}.ckpt.npz")
        save_checkpoint(model, path)
    return paths


def write(workdir, cfg):
    path = workdir / f"case-{next(CASE_NUMBERS)}.json"
    path.write_text(json.dumps(cfg))  # NaN and +-Infinity as Python's json reads them back
    return str(path)


def section_cases(workdir):
    """``srr train`` with one hostile value in one field of its model, train or data section."""
    ckpt = str(workdir / "section.ckpt.npz")
    for cls, section in ((ModelConfig, "model"), (TrainConfig, "train"), (DatasetSpec, "data")):
        for f in dataclasses.fields(cls):
            for value in values_for(f.name):
                cfg = copy.deepcopy(BASE)
                cfg[section][f.name] = value
                yield f"{section}.{f.name} = {value!r}", ["train", "--config", write(workdir, cfg), "--out", ckpt]


def grid_cases(workdir):
    """A one-cell ``srr zoo`` whose grid holds one hostile value."""
    for f in dataclasses.fields(GridSpec):
        # each axis takes one hostile element, and once a bare number in place of a list
        hostile = VALUES if f.name == "seed" else [[v] for v in VALUES] + [1]
        for i, value in enumerate(hostile):
            cfg = copy.deepcopy(BASE)
            cfg["grid"] = dict(GRID, **{f.name: value})
            argv = ["zoo", "--grid", write(workdir, cfg), "--out", str(workdir / f"zoo-{f.name}-{i}")]
            yield f"grid.{f.name} = {value!r}", argv


def flag_cases(workdir, base_config, checkpoint, zoo_dir, overflowing_checkpoint, huge_checkpoints):
    """Each numeric flag of toy, train, probe, measure, zoo and correlate at one hostile value."""
    grid_config = write(workdir, dict(BASE, grid=GRID))
    overflowing_config = write(workdir, {"data": {"n_train": 16, "n_val": 8}})
    commands = {
        **{
            f"toy --rule {rule}": (["toy", "--rule", rule, "--layers", "1", "--out", str(workdir / "toy.csv")],
                                   ["--alpha", "--gamma", "--seed", "--layers"])
            for rule in sorted(RULES)
        },
        "train": (["train", "--config", base_config, "--reg", "all", "--out", str(workdir / "flag.ckpt.npz")],
                  ["--eta", "--epochs", "--seed"]),
        "probe": (["probe", "--config", base_config, "--checkpoint", checkpoint, "--out", str(workdir / "p.csv")],
                  ["--lambda", "--eps-sq", "--samples"]),
        "measure": (["measure", "--config", base_config, "--checkpoint", checkpoint, "--out", str(workdir / "m.csv")],
                    ["--seed"]),
        "measure (overflowing draw)": (["measure", "--config", overflowing_config, "--checkpoint",
                                        overflowing_checkpoint, "--out", str(workdir / "m.csv")], ["--seed"]),
        **{
            f"measure ({label})": (["measure", "--config", base_config, "--checkpoint", path,
                                    "--out", str(workdir / "m.csv")], ["--seed"])
            for label, path in huge_checkpoints.items()
        },
        "correlate": (["correlate", "--zoo", zoo_dir, "--out", str(workdir / "report.csv")], ["--width-filter"]),
    }
    for name, (argv, flags) in commands.items():
        for flag in flags:
            for value in values_for(flag):
                named = None
                if name == "correlate" and isinstance(value, int):  # a width no cell has: named with the zoo's
                    named = f"width filter {value}; the zoo holds widths [4]"
                yield f"{name} {flag}={value!r}", [*argv, f"{flag}={value}"], named
    # the grid has one cell, so no worker count starts a process pool: each case trains in process
    for i, value in enumerate(values_for("--workers")):
        argv = ["zoo", "--grid", grid_config, "--out", str(workdir / f"workers-{i}"), f"--workers={value}"]
        yield f"zoo --workers={value!r}", argv


def test_every_config_field_and_numeric_flag(
    workdir, base_config, checkpoint, zoo_dir, overflowing_checkpoint, huge_checkpoints, capsys
):
    flags = flag_cases(workdir, base_config, checkpoint, zoo_dir, overflowing_checkpoint, huge_checkpoints)
    cases = [*section_cases(workdir), *grid_cases(workdir), *flags]
    failures = [f"{label}: {why}" for label, argv, *named in cases if (why := fault(argv, capsys, *named))]
    assert not failures, "\n".join(failures)


def test_rate_config_fields():
    # no command builds a RateConfig from a section: its fields are swept directly
    for f in dataclasses.fields(RateConfig):
        for value in VALUES:
            try:
                RateConfig(**dict(dict(d=8, N=4, K=2), **{f.name: value}))
            except ConfigError as exc:
                assert f.name in str(exc) and repr(value) in str(exc)


@pytest.mark.parametrize("rule", [5, None, 1.5, ["a"], b"a", "x"])
def test_run_dynamics_rule(rule):
    # no flag reaches a rule that is not a string (argparse holds --rule to the tags): called directly
    got = re.escape(f", got {rule.lower() if isinstance(rule, str) else rule!r}")
    with pytest.raises(ConfigError, match=re.escape("rule must be one of 'a', ") + ".*" + got):
        run_dynamics(rule, L=1)
