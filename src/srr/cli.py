"""Command-line entry points: toy dynamics traces, training, probing,
the model zoo, measure evaluation, and correlation reports.

Config files are JSON with up to four top-level sections — "model",
"train", "data", "grid" — whose keys mirror the ModelConfig, TrainConfig,
DatasetSpec, and GridSpec fields.  Defaults (no config given) are the
standard recipe: L=12, d=384, K=6, alpha=1, gamma=1, lr=1e-4 with cosine
decay, batch 128, 200 epochs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import toy_dynamics
from .data import DatasetSpec, build_dataset
from .errors import COUNT, ConfigError, check_value, config_fields, one_of
from .measures import measure_csv_row, measure_vector, measures_csv_header
from .model import ModelConfig, _check_entries, _read_npz, init_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train
from .zoo import GridSpec, correlate_zoo, measure_zoo, run_zoo

__all__ = ["main"]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return cfg


def _dataset_spec(args, cfg: dict) -> DatasetSpec:
    section = config_fields(DatasetSpec, cfg.get("data", {}), "data")
    if args.data:
        section["source"] = args.data
    if args.data_path:
        section["path"] = args.data_path
    return DatasetSpec(**section)


def _model_config(cfg: dict, data_spec: DatasetSpec) -> ModelConfig:
    section = config_fields(ModelConfig, cfg.get("model", {}), "model")
    if data_spec.source == "synthetic":
        section.setdefault("feat_dim", data_spec.feat_dim)
        section.setdefault("num_tokens", data_spec.tokens)
        section.setdefault("num_classes", data_spec.classes)
    else:
        section.setdefault("patch", data_spec.patch)
        section.setdefault("num_classes", 100 if data_spec.source == "cifar100" else 10)
    return ModelConfig(**section)


def _parse_reg(reg: str, eta: float | None) -> dict:
    modes = {"all": "all_layers", "random": "random_layer", "none": "none"}
    name, _, layer = reg.partition(":")
    if name == "layer" and layer.isdecimal():
        out = {"reg_mode": "fixed_layer", "reg_layer": int(layer)}
    elif reg in modes:
        out = {"reg_mode": modes[reg]}
    else:
        raise ConfigError(f"--reg {reg!r}: expected none | all | layer:K | random")
    out["eta_reg"] = 0.0 if reg == "none" else (0.001 if eta is None else float(eta))
    return out


def _cmd_toy(args) -> int:
    kwargs = dict(N=196, d=384, K=6) if args.paper_scale else dict(N=32, d=64, K=4)
    trace = toy_dynamics.run_dynamics(
        args.rule, L=args.layers, alpha=args.alpha, gamma=args.gamma, seed=args.seed, **kwargs
    )
    text = toy_dynamics.traces_to_csv([trace])
    with open(args.out, "w") as fh:
        fh.write(text)
    flag = " (truncated)" if trace.truncated else ""
    print(f"wrote {len(trace.rows)} layer rows for rule {trace.rule} to {args.out}{flag}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    data_spec = _dataset_spec(args, cfg)
    mcfg = _model_config(cfg, data_spec)
    tsection = config_fields(TrainConfig, cfg.get("train", {}), "train")
    # flags override the train section only when given; --reg alone keeps its nonzero eta_reg
    if args.reg is not None:
        eta = args.eta if args.eta is not None else tsection.get("eta_reg") or None
        tsection.update(_parse_reg(args.reg, eta))
    elif args.eta is not None:
        tsection["eta_reg"] = args.eta
    if args.epochs is not None:
        tsection["epochs"] = args.epochs
    if args.seed is not None:
        tsection["seed"] = args.seed
        mcfg = dataclasses.replace(mcfg, seed=args.seed)
    tcfg = TrainConfig(**tsection)
    dataset = build_dataset(data_spec)
    model = init_model(mcfg)
    trace = train(model, dataset, tcfg, trace_path=args.trace)
    save_checkpoint(model, args.out)
    status = "converged" if trace.converged else ("diverged" if trace.diverged else "budget exhausted")
    summary = f"{status} after {len(trace.epochs)} epochs"
    if trace.epochs:  # empty when the run diverged in its first epoch
        last = trace.epochs[-1]
        summary += (
            f": train_ce={last.train_ce:.4f} val_ce={last.val_ce:.4f} "
            f"train_acc={last.train_acc:.3f} val_acc={last.val_acc:.3f}"
        )
    print(summary)
    if trace.note:
        print(f"note: {trace.note}")
    print(f"checkpoint: {args.out}" + (f"  trace: {args.trace}" if args.trace else ""))
    return 0


def _cmd_probe(args) -> int:
    check_value("--samples", args.samples, COUNT)
    data_spec = _dataset_spec(args, _load_config(args.config))
    model = load_checkpoint(args.checkpoint)
    dataset = build_dataset(data_spec)
    rate = {k: v for k, v in vars(args).items() if k in ("eps_sq", "lambda_sparsity")}
    probes = model.probe(dataset.train_x[: args.samples], **rate)
    lines = ["layer,r,rc,l0,srr"]
    for p in probes:
        lines.append(f"{p.layer},{p.r!r},{p.rc!r},{p.l0!r},{p.srr!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(probes)} layer probes to {args.out}")
    return 0


def _cmd_zoo(args) -> int:
    cfg = _load_config(args.grid)
    gsection = cfg.get("grid", {})
    scale = gsection.pop("scale", "desk") if isinstance(gsection, dict) else "desk"
    check_value("grid.scale", scale, one_of("desk", "paper"))
    base = GridSpec.desk() if scale == "desk" else GridSpec()
    gspec = dataclasses.replace(base, **config_fields(GridSpec, gsection, "grid"))
    dsection = cfg.get("data")
    if dsection:
        data = DatasetSpec(**config_fields(DatasetSpec, dsection, "data"))
    elif scale == "desk":
        data = DatasetSpec(source="synthetic", separation=4.0)
    else:
        raise ConfigError("paper-scale zoo needs a data section in the grid config")
    # each cell sets d to its width; image zoos take patch size and class count from the data, as srr train does
    cfg.setdefault("model", {"L": 2, "K": 4} if data.source == "synthetic" else {})
    model_template = _model_config(cfg, data)
    if "train" in cfg:
        train_template = TrainConfig(**config_fields(TrainConfig, cfg["train"], "train"))
    else:
        train_template = TrainConfig(epochs=60, stop_criterion=0.05)
    manifest = run_zoo(
        gspec, data, train_template, args.out,
        model_template=model_template, workers=args.workers, retry_failed=args.retry_failed,
    )
    done = sum(1 for c in manifest["cells"].values() if c["status"] == "done")
    failed = sum(1 for c in manifest["cells"].values() if c["status"] == "failed")
    conv = sum(1 for c in manifest["cells"].values() if c.get("converged"))
    print(f"zoo: {done} done ({conv} converged), {failed} failed -> {args.out}")
    if args.measure:
        path = measure_zoo(args.out)
        print(f"measures: {path}")
    return 0


def _cmd_measure(args) -> int:
    data_spec = _dataset_spec(args, _load_config(args.config))
    model = load_checkpoint(args.checkpoint)
    if args.init_snapshot == "none":
        model.init_snapshot = None
    elif args.init_snapshot:
        snapshot = _read_npz(args.init_snapshot, "init snapshot")
        _check_entries(args.init_snapshot, snapshot, {name: t.shape for name, t in model.params.items()})
        model.init_snapshot = snapshot
    dataset = build_dataset(data_spec)
    mv, errors = measure_vector(model, dataset, seed=args.seed)
    key = os.path.basename(args.checkpoint)
    with open(args.out, "w") as fh:
        fh.write(measures_csv_header() + "\n")
        fh.write(measure_csv_row(key, mv) + "\n")
    print(f"wrote measure row to {args.out}")
    for name, why in sorted(errors.items()):
        print(f"note: {name}: {why}", file=sys.stderr)
    return 0


def _cmd_correlate(args) -> int:
    names = args.measures.split(",") if args.measures else None
    report = correlate_zoo(args.zoo, measure_names=names, width_filter=args.width_filter)
    report.save(args.out)
    print(f"wrote report ({len(report.rows)} measures, {report.n_converged} converged runs) to {args.out}")
    if args.text:
        print(report.to_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="srr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)  # the data flags of train, probe and measure
    data.add_argument("--data", choices=["cifar10", "cifar100", "synthetic"])
    data.add_argument("--data-path", help="directory or file with CIFAR binaries")

    p = sub.add_parser("toy", help="layer-wise coding-rate dynamics under one update rule")
    p.add_argument("--rule", required=True, choices=sorted(toy_dynamics.RULES))
    p.add_argument("--paper-scale", action="store_true", help="N=196, d=384, K=6 (default: 32/64/4)")
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("train", parents=[data], help="train one model")
    p.add_argument("--config", help="JSON config with model/train/data sections")
    p.add_argument("--reg", help="none | all | layer:K | random (default: the config's reg_mode, else none)")
    p.add_argument("--eta", type=float, help="regularization weight (default: the config's eta_reg, else 0.001)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="model.ckpt.npz")
    p.add_argument("--trace", help="per-epoch trace CSV (default: none written)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probe", parents=[data], help="per-layer rate/sparsity probes of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="JSON config with a data section")
    # unset rate scales take Model.probe's defaults, those of RateConfig
    p.add_argument("--lambda", dest="lambda_sparsity", type=float, default=argparse.SUPPRESS)
    p.add_argument("--eps-sq", type=float, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--out", default="probes.csv")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("zoo", help="train the hyperparameter grid")
    p.add_argument("--grid", help="JSON config with grid/data/model/train sections")
    p.add_argument("--out", required=True, help="output directory (manifest, checkpoints, traces)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--retry-failed", action="store_true")
    p.add_argument("--measure", action="store_true", help="also evaluate measures.csv afterwards")
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("measure", parents=[data], help="complexity-measure vector of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--init-snapshot", help="npz of initial parameters; 'none' disables init-relative fields")
    p.add_argument("--config", help="JSON config with a data section")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="row.csv")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("correlate", help="measure-vs-gap correlation report for a zoo")
    p.add_argument("--zoo", required=True, help="zoo output directory")
    p.add_argument("--width-filter", type=int, default=None)
    p.add_argument("--measures", help="comma-separated measure names (default: all)")
    p.add_argument("--text", action="store_true", help="also print the table")
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=_cmd_correlate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
