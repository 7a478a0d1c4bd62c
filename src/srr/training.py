"""Training: reverse-mode gradients, Adam with cosine decay, cross-entropy,
and the stop-gradient SRR regularizer in its three selection modes.

The regularizer adds eta times the mean of selected per-layer measures,
each evaluated on the layer's output node of the forward itself.  With the
regularizer on, every layer's input enters its subgraph through an autodiff
``cut``, and the loss is a ``segmented_sum``: the backward walks the
cross-entropy tape with the cuts open, then the regularizer's tape with
them closed, so term l's gradient reaches only layer l's parameters.  The
l0 part of the measure contributes its value but no gradient (it is
piecewise constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError
from .linalg import cross_entropy_np, rng_for
from .model import Model, _layer_rates

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainingTrace",
    "TRACE_COLUMNS",
    "gradients",
    "srr_regularized_loss",
    "train",
    "Adam",
    "schedule_lr",
    "evaluate",
]

REG_MODES = ("none", "all_layers", "fixed_layer", "random_layer")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr_init: float = 1e-4
    epochs: int = 200
    schedule: str = "cosine"
    eta_reg: float = 0.0
    reg_mode: str = "none"
    reg_layer: int | None = None  # 1-based, fixed_layer mode only
    stop_criterion: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if not 0 < self.lr_init < math.inf:
            raise ConfigError(f"lr_init must be a positive finite number, got {self.lr_init!r}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.reg_mode not in REG_MODES:
            raise ConfigError(f"unknown reg_mode {self.reg_mode!r}")
        if self.eta_reg < 0:
            raise ConfigError("eta_reg must be nonnegative")
        # eta_reg == 0 exactly when regularization is off
        if (self.eta_reg == 0) != (self.reg_mode == "none"):
            raise ConfigError("eta_reg must be 0 exactly when reg_mode is 'none'")
        if self.reg_mode == "fixed_layer" and (self.reg_layer is None or self.reg_layer < 1):
            raise ConfigError("fixed_layer mode needs reg_layer >= 1")


def schedule_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.schedule == "constant" or cfg.epochs == 1:
        return cfg.lr_init
    return cfg.lr_init * (1.0 + math.cos(math.pi * epoch / (cfg.epochs - 1))) / 2.0


def gradients(loss: Tensor, params: dict[str, Tensor], layer_outputs=None) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for the given parameters.

    Parameters untouched by the loss get zero gradients.  A non-finite
    loss raises, attributing the first bad layer when a cache of layer
    outputs is supplied.
    """
    if not np.isfinite(loss.data).all():
        msg = "loss is not finite"
        layer = _first_nonfinite_layer(layer_outputs)
        if layer is not None:
            msg += f" (first non-finite activation at layer {layer})"
        raise NumericError(msg)
    for t in params.values():
        t.grad = None
    loss.backward()
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }


def _layer_srr_term(model: Model, i: int, zout: Tensor) -> Tensor:
    """Regularizer term for layer i (0-based): lambda*l0 + R_c - R on the
    layer's output node ``zout``."""
    cfg = model.cfg
    gamma = cfg.attention_gamma(zout.shape[-1])
    r, rc, l0 = _layer_rates(zout, model.params[f"layers.{i}.U"], cfg.K, gamma, cfg.K * gamma)
    diff = rc - r
    if diff.data.ndim:
        diff = diff.mean()
    return diff + cfg.lambda_sparsity * float(np.mean(l0))


def srr_regularized_loss(model: Model, batch, train_cfg: TrainConfig, rng=None):
    """Cross-entropy plus eta times the mean of selected per-layer measures.

    ``batch`` is (features, labels) with features (B, F, T).  Returns the
    scalar loss tensor and a dict with the CE value, batch accuracy, the
    regularizer value (before eta), the selected layers, and the layer
    cache (for divergence attribution).
    """
    x, y = batch
    y = np.asarray(y)
    tokens = model.embed_inputs(x, train_mode=True, rng=rng)
    reg_on = train_cfg.reg_mode != "none"
    logits, cache = model.run(tokens, train_mode=True, rng=rng, keep_cache=True, _cut_inputs=reg_on)
    ce = ad.softmax_cross_entropy(logits, y)
    acc = float(np.mean(np.argmax(logits.data, axis=-1) == y))

    selected: list[int] = []
    reg_value = 0.0
    loss = ce
    if reg_on:
        L = model.cfg.L
        if train_cfg.reg_mode == "all_layers":
            selected = list(range(1, L + 1))
        elif train_cfg.reg_mode == "fixed_layer":
            if train_cfg.reg_layer > L:
                raise ConfigError(f"reg_layer {train_cfg.reg_layer} exceeds depth {L}")
            selected = [train_cfg.reg_layer]
        else:  # random_layer
            if rng is None:
                raise ConfigError("random_layer mode needs an rng")
            selected = [int(rng.integers(1, L + 1))]
        if _first_nonfinite_layer(cache) is None:
            total = None
            for layer_no in selected:
                term = _layer_srr_term(model, layer_no - 1, cache[layer_no - 1]["output"])
                total = term if total is None else total + term
            mean_term = total * (1.0 / len(selected))
        else:  # a non-finite layer has no measure: the NaN loss flags the divergence
            mean_term = Tensor(np.nan)
        reg_value = mean_term.item()
        loss = ad.segmented_sum(ce, train_cfg.eta_reg * mean_term, [entry["input"] for entry in cache])

    parts = {
        "ce": ce.item(),
        "acc": acc,
        "reg_value": reg_value,
        "selected_layers": selected,
        "cache": cache,
    }
    return loss, parts


class Adam:
    """Adam with bias correction and the standard constants beta1 = 0.9,
    beta2 = 0.999, eps = 1e-8; the learning rate is passed per step so a
    schedule can drive it."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Plain-inference CE and accuracy over a dataset split."""
    y = np.asarray(y)
    if len(y) == 0:
        raise ConfigError("cannot evaluate an empty split")
    logits = model.logits(x)
    return cross_entropy_np(logits, y), float(np.mean(np.argmax(logits, axis=-1) == y))


@dataclass
class EpochStats:
    epoch: int
    train_ce: float
    train_acc: float
    val_ce: float
    val_acc: float
    lr: float
    reg_value: float = 0.0


TRACE_COLUMNS = ("epoch", "train_ce", "train_acc", "val_ce", "val_acc", "lr", "reg_value")


def _trace_row(e: EpochStats) -> str:
    return ",".join([str(e.epoch)] + [repr(getattr(e, c)) for c in TRACE_COLUMNS[1:]])


@dataclass
class TrainingTrace:
    epochs: list[EpochStats] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    note: str = ""


def train(model: Model, dataset, cfg: TrainConfig, trace_path: str | None = None) -> TrainingTrace:
    """Run the optimization loop until the CE stop criterion or the epoch
    budget; divergence is flagged in the trace, not raised.

    ``dataset`` needs train_x/train_y/val_x/val_y attributes; the trace is
    appended to ``trace_path`` epoch by epoch when given.
    """
    if cfg.reg_mode == "fixed_layer" and cfg.reg_layer > model.cfg.L:
        raise ConfigError(f"reg_layer {cfg.reg_layer} exceeds model depth {model.cfg.L}")
    n = dataset.n_train
    if n == 0:
        raise ConfigError("empty training set")
    adam = Adam(model.trainable_params())
    trace = TrainingTrace()
    if trace_path:
        with open(trace_path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")

    for epoch in range(cfg.epochs):
        lr = schedule_lr(cfg, epoch)
        perm = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        ce_sum = acc_sum = reg_sum = 0.0
        seen = 0
        bad = None
        for bno, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            step_rng = rng_for(cfg.seed, "step", epoch, bno)
            xb, yb = dataset.train_batch(idx, step_rng)
            # a diverging step is reported by the note below, not by numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, parts = srr_regularized_loss(model, (xb, yb), cfg, rng=step_rng)
                if not np.isfinite(loss.data).all():
                    bad = _nonfinite_note(parts["cache"], epoch, bno)
                    break
                grads = gradients(loss, model.trainable_params(), layer_outputs=parts["cache"])
                adam.step(grads, lr)
            bsz = len(idx)
            ce_sum += parts["ce"] * bsz
            acc_sum += parts["acc"] * bsz
            reg_sum += parts["reg_value"] * bsz
            seen += bsz
        if bad is not None:
            trace.diverged = True
            trace.note = bad
            break
        val_ce, val_acc = evaluate(model, dataset.val_x, dataset.val_y)
        stats = EpochStats(
            epoch=epoch,
            train_ce=ce_sum / seen,
            train_acc=acc_sum / seen,
            val_ce=val_ce,
            val_acc=val_acc,
            lr=lr,
            reg_value=reg_sum / seen,
        )
        trace.epochs.append(stats)
        if trace_path:
            with open(trace_path, "a") as fh:
                fh.write(_trace_row(stats) + "\n")
        if stats.train_ce <= cfg.stop_criterion:
            trace.converged = True
            break
    return trace


def _first_nonfinite_layer(cache) -> int | None:
    """1-based index of the first cached layer output with a NaN or inf."""
    for i, entry in enumerate(cache or ()):
        out = entry["output"]
        val = out.data if isinstance(out, Tensor) else out
        if not np.isfinite(val).all():
            return i + 1
    return None


def _nonfinite_note(cache, epoch: int, step: int) -> str:
    layer = _first_nonfinite_layer(cache)
    where = f" at layer {layer}" if layer is not None else ""
    return f"training diverged (non-finite loss{where}) at epoch {epoch}, step {step}"
