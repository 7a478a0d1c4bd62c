"""Model assembly: L unrolled layers, the forward pass, inference logits and
per-layer probes, parameter counting/initialization, and checkpoints.

A layer maps Z to ista_step(LN2(attention_update(LN1(Z)))) — layer norm
before each of the two operators, with the attention update carrying its
own residual branch.  Probes evaluate the sparse-rate-reduction measure of
each layer's raw (post-ISTA) output against that layer's own basis.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import layers as ly
from . import rates
from .autodiff import Tensor, as_tensor, concat, logdet_gram
from .errors import ConfigError, FormatError, NumericError, ShapeError, config_fields
from .linalg import rng_for

__all__ = [
    "ModelConfig",
    "ProbeRecord",
    "Model",
    "init_model",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    L: int = 12
    d: int = 384
    K: int = 6
    alpha: float = 1.0
    beta: float = 0.5
    eps_sq: float | None = None  # None: eps^2 = p/N so the attention scale gamma is exactly 1
    lambda_sparsity: float = 0.1
    variant: str = ly.CRATE_C
    dropout: float = 0.0
    num_classes: int = 10
    seed: int = 0
    # input geometry: images (patchified) or pre-tokenized feature sequences
    patch: int = 4
    image_size: int = 32
    channels: int = 3
    feat_dim: int | None = None
    num_tokens: int | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError("depth L must be at least 1")
        if self.d <= 0 or self.K <= 0 or self.d % self.K != 0:
            raise ConfigError(f"width d = {self.d} must be a positive multiple of K = {self.K}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.variant not in ly.VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.eps_sq is not None and self.eps_sq <= 0:
            raise ConfigError("eps_sq must be positive when given")
        if (self.feat_dim is None) != (self.num_tokens is None):
            raise ConfigError("feat_dim and num_tokens must be given together")
        if self.feat_dim is None and self.image_size % self.patch != 0:
            raise ConfigError(f"image size {self.image_size} not divisible by patch {self.patch}")

    @property
    def p(self) -> int:
        return self.d // self.K

    @property
    def in_dim(self) -> int:
        return self.feat_dim if self.feat_dim is not None else self.patch * self.patch * self.channels

    @property
    def grid_tokens(self) -> int:
        if self.num_tokens is not None:
            return self.num_tokens
        side = self.image_size // self.patch
        return side * side

    @property
    def tokens(self) -> int:
        """Token count including the prepended CLS column."""
        return self.grid_tokens + 1

    def attention_gamma(self, n_tokens: int) -> float:
        if self.eps_sq is None:
            return 1.0
        return self.p / (n_tokens * self.eps_sq)


@dataclass
class ProbeRecord:
    """Per-layer statistics: ambient rate r, subspace rate rc, sparsity l0
    and the combined measure srr = lambda*l0 + rc - r."""

    layer: int
    r: float
    rc: float
    l0: float
    srr: float


class Model:
    """Parameter table plus the forward pass.

    ``params`` holds every weight as a Tensor, in allocation order; the
    fixed W of the ``crate_fix`` variant is the entry without grad.
    ``init_snapshot`` is a plain-array copy of every parameter at
    initialization time (distance-to-init measures need it).
    """

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor], init_snapshot: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.init_snapshot = init_snapshot

    # ------------------------------------------------------------------
    def trainable_params(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def _table(self, traced: bool) -> dict:
        """The parameter table as Tensors (traced) or as plain arrays."""
        return self.params if traced else {name: t.data for name, t in self.params.items()}

    def tracked_matrices(self) -> list[tuple[str, np.ndarray]]:
        """Weight matrices entering the spectral/Frobenius measure families,
        in table order: embedding, each layer's U and D (and W when present),
        and the head — every 2-d parameter but the positional table."""
        return [(name, t.data) for name, t in self.params.items() if t.ndim == 2 and name != "pos"]

    # ------------------------------------------------------------------
    def embed_inputs(self, raw: np.ndarray, train_mode: bool = False, rng=None):
        """Feature columns (B, F, T) or (F, T) -> token matrix with CLS and
        positional encoding.  Training mode builds the autodiff graph and
        applies embedding dropout."""
        raw = np.asarray(raw, dtype=np.float64)
        single = raw.ndim == 2
        if single:
            raw = raw[None]
        if raw.shape[1] != self.cfg.in_dim:
            raise ShapeError(f"expected {self.cfg.in_dim}-dim feature columns, got {raw.shape[1]}")
        P = self._table(train_mode)
        embed, cls, pos = P["embed"], P["cls"], P["pos"]
        B, _, T = raw.shape
        if train_mode:
            head_col = cls.reshape(self.cfg.d, 1).broadcast_to((B, self.cfg.d, 1))
            tok = concat([head_col, embed @ Tensor(raw)], axis=-1) + pos
        else:
            head_col = np.broadcast_to(cls.reshape(self.cfg.d, 1), (B, self.cfg.d, 1))
            tok = np.concatenate([head_col, embed @ raw], axis=-1) + pos
        if train_mode and self.cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("training-mode dropout needs an rng")
            mask = _dropout_mask(rng, (B, self.cfg.d, T + 1), self.cfg.dropout)
            tok = tok * mask
        if single:
            tok = tok[0]
        return tok

    def apply_layer(self, i: int, Z, attn_masks=None, out_mask=None):
        """Run layer ``i`` (0-based) on ``Z`` with the given dropout masks.
        Used by the regularizer to replay a layer from a detached input."""
        P = self._table(isinstance(Z, Tensor))
        return _apply_layer(Z, P, i, self.cfg, self.cfg.attention_gamma(Z.shape[-1]), False, attn_masks, out_mask)

    # ------------------------------------------------------------------
    def run(self, tokens, train_mode: bool = False, rng=None, ln_identity: bool = False, keep_cache: bool = False):
        """Forward pass.

        ``tokens``: (d, N), (B, d, N) ndarray, or a traced Tensor.
        Returns (logits, cache); ``cache`` is None unless ``keep_cache``.
        """
        cfg = self.cfg
        traced = isinstance(tokens, Tensor)
        if not traced:
            tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.shape[-2] != cfg.d:
            raise ShapeError(f"token dimension {tokens.shape[-2]} does not match width {cfg.d}")
        n_tok = tokens.shape[-1]
        gamma = cfg.attention_gamma(n_tok)
        use_dropout = train_mode and cfg.dropout > 0.0 and traced
        if train_mode and cfg.dropout > 0.0 and rng is None:
            raise ConfigError("training-mode dropout needs an rng")

        P = self._table(traced)
        Z = tokens
        cache: list[dict] | None = [] if keep_cache else None
        for i in range(cfg.L):
            attn_masks = out_mask = None
            if use_dropout:
                batch_shape = Z.shape[:-2]
                attn_masks = [
                    _dropout_mask(rng, batch_shape + (n_tok, n_tok), cfg.dropout) for _ in range(cfg.K)
                ]
                out_mask = _dropout_mask(rng, batch_shape + (cfg.d, n_tok), cfg.dropout)
            layer_in = Z
            Z = _apply_layer(Z, P, i, cfg, gamma, ln_identity, attn_masks, out_mask)
            if cache is not None:
                cache.append(
                    {"input": layer_in, "attn_masks": attn_masks, "out_mask": out_mask, "output": Z}
                )
        return (P["head.weight"] @ Z[..., :, 0:1])[..., 0] + P["head.bias"], cache

    def logits(self, raw: np.ndarray, ln_identity: bool = False, batch: int = 256) -> np.ndarray:
        """Inference logits of a (B, F, T) feature batch, ``batch`` samples
        at a time."""
        chunks = [
            self.run(self.embed_inputs(raw[start : start + batch]), ln_identity=ln_identity)[0]
            for start in range(0, len(raw), batch)
        ]
        return np.concatenate(chunks, axis=0)

    def probe(
        self,
        raw: np.ndarray,
        eps_sq: float = rates.RateConfig.eps_sq,
        lambda_sparsity: float = rates.RateConfig.lambda_sparsity,
    ) -> list[ProbeRecord]:
        """Per-layer probes of the feature columns ``raw`` with LayerNorm
        bypassed, at the rate scales eps_sq and lambda_sparsity."""
        tokens = self.embed_inputs(raw)
        pc = rates.RateConfig(
            d=self.cfg.d, N=tokens.shape[-1], K=self.cfg.K, eps_sq=eps_sq, lambda_sparsity=lambda_sparsity
        )
        _, cache = self.run(tokens, ln_identity=True, keep_cache=True)
        return [
            _probe_layer(i + 1, entry["output"], self.params[f"layers.{i}.U"].data, pc)
            for i, entry in enumerate(cache)
        ]


def _dropout_mask(rng, shape, p: float) -> np.ndarray:
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(np.float64) / keep


def _apply_layer(Z, P: dict, i: int, cfg: ModelConfig, gamma: float, ln_identity: bool, attn_masks, out_mask):
    """Layer ``i`` of the table ``P`` (Tensors or arrays) on ``Z``, with
    alpha, beta, K, lambda and the variant from ``cfg``."""
    w = f"layers.{i}."
    Zn = Z if ln_identity else ly.layer_norm(Z, P[w + "ln1_gain"], P[w + "ln1_bias"])
    Za = ly.attention_update(
        Zn, P[w + "U"], cfg.K, cfg.variant, gamma, cfg.alpha, P.get(w + "W"), attn_masks, out_mask
    )
    Ya = Za if ln_identity else ly.layer_norm(Za, P[w + "ln2_gain"], P[w + "ln2_bias"])
    return ly.ista_step(Ya, P[w + "D"], cfg.beta, cfg.lambda_sparsity)


def _layer_rates(Z, U, num_heads: int, gamma: float, full_scale: float):
    """Per-matrix R(Z), R_c(Z; U) and ||Z||_0 of a (..., d, N) token stack.

    R is the Gram log-volume of Z at ``full_scale``; R_c sums the log-volumes
    of the K head projections U_k^T Z at ``gamma``.  ``Z`` and ``U`` may be
    ndarrays or Tensors: R and R_c come back as Tensors (on the tape when an
    input is), the l0 counts as an integer array of the leading shape.
    """
    z = as_tensor(Z)
    if not np.isfinite(z.data).all():
        raise NumericError("token matrix contains non-finite entries")
    rc = None
    for Uk in rates.split_heads(as_tensor(U), num_heads):
        term = logdet_gram(Uk.mT @ z, gamma)
        rc = term if rc is None else rc + term
    r = logdet_gram(z, full_scale)
    l0 = np.count_nonzero(np.abs(z.data) > rates.L0_TOL, axis=(-2, -1))
    return r, rc, l0


def _probe_layer(layer_no: int, Z, U, pc: rates.RateConfig) -> ProbeRecord:
    """Batch means of the layer rates at the probe scales of ``pc``."""
    r, rc, l0 = _layer_rates(Z, U, pc.K, pc.gamma, pc.full_scale)
    r, rc, l0 = (float(np.mean(v)) for v in (r.data, rc.data, l0))
    return ProbeRecord(layer=layer_no, r=r, rc=rc, l0=l0, srr=pc.lambda_sparsity * l0 + rc - r)


def param_count(cfg: ModelConfig) -> int:
    """Trainable-parameter count of the configuration's parameter table."""
    shapes = _param_shapes(cfg)
    return sum(int(np.prod(shape)) for name, shape in shapes.items() if _group(cfg, name) == "param")


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in allocation order."""
    d = cfg.d
    shapes = {"embed": (d, cfg.in_dim), "pos": (d, cfg.tokens), "cls": (d,)}
    for i in range(cfg.L):
        for name in ("U", "D", "W") if cfg.variant in (ly.CRATE, ly.CRATE_FIX) else ("U", "D"):
            shapes[f"layers.{i}.{name}"] = (d, d)
        for name in ("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
            shapes[f"layers.{i}.{name}"] = (d,)
    shapes["head.weight"] = (cfg.num_classes, d)
    shapes["head.bias"] = (cfg.num_classes,)
    return shapes


def _group(cfg: ModelConfig, name: str) -> str:
    """Checkpoint group of a parameter: the fixed variant's W is frozen."""
    return "frozen" if cfg.variant == ly.CRATE_FIX and name.endswith(".W") else "param"


def _assemble(cfg: ModelConfig, live: dict[str, np.ndarray], snapshot: dict[str, np.ndarray]) -> Model:
    params = {n: Tensor(a, requires_grad=_group(cfg, n) == "param") for n, a in live.items()}
    return Model(cfg, params, snapshot)


def init_model(cfg: ModelConfig) -> Model:
    """Allocate and seed all parameters; returns the model with a retained
    copy of the initial values.  Same seed, same bytes."""
    rng = rng_for(cfg.seed, "init")
    scale_d = 1.0 / np.sqrt(cfg.d)
    std = {"embed": 1.0 / np.sqrt(cfg.in_dim), "pos": 0.02, "cls": 0.02}
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith("gain"):
            arrays[name] = np.ones(shape)
        elif name.endswith("bias"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, std.get(name, scale_d), shape)
    return _assemble(cfg, arrays, {name: arr.copy() for name, arr in arrays.items()})


# ----------------------------------------------------------------------
# checkpoints: a single .npz holding version, config JSON, parameters,
# frozen parameters, and the initial snapshot.

def save_checkpoint(model: Model, path: str) -> None:
    payload: dict[str, np.ndarray] = {
        "meta.version": np.array(CHECKPOINT_VERSION),
        "meta.config": np.array(json.dumps(asdict(model.cfg))),
    }
    for group in ("param", "frozen"):
        for name, t in model.params.items():
            if _group(model.cfg, name) == group:
                payload[f"{group}.{name}"] = t.data
    for name, arr in model.init_snapshot.items():
        payload[f"init.{name}"] = arr
    np.savez(path, **payload)


def load_checkpoint(path: str) -> Model:
    """Read a checkpoint written by ``save_checkpoint``.  The config keys,
    entry names and shapes must be exactly those ``init_model`` allocates
    for the stored config; the first mismatch raises FormatError."""
    with np.load(path, allow_pickle=False) as zf:
        entries = {key: zf[key] for key in zf.files}
    if "meta.version" not in entries or int(entries["meta.version"]) != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version in {path}")
    raw = json.loads(str(entries["meta.config"])) if "meta.config" in entries else None
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: missing or malformed model config")
    try:
        kwargs = config_fields(ModelConfig, raw, "model")
    except ConfigError as exc:
        raise FormatError(f"{path}: malformed model config: {exc}") from exc
    missing = [f.name for f in fields(ModelConfig) if f.name not in kwargs]
    if missing:
        raise FormatError(f"{path}: model config key {missing[0]!r} is missing")
    cfg = ModelConfig(**kwargs)
    shapes = _param_shapes(cfg)
    expected = {"meta.version": (), "meta.config": ()}
    for name, shape in shapes.items():
        expected[f"{_group(cfg, name)}.{name}"] = expected[f"init.{name}"] = shape
    for key, shape in expected.items():
        if key not in entries:
            raise FormatError(f"{path}: missing entry {key!r}")
        if entries[key].shape != shape:
            raise FormatError(f"{path}: entry {key!r} has shape {entries[key].shape}, expected {shape}")
    extra = [key for key in entries if key not in expected]
    if extra:
        raise FormatError(f"{path}: unexpected entry {extra[0]!r}")
    live = {name: entries[f"{_group(cfg, name)}.{name}"] for name in shapes}
    return _assemble(cfg, live, {name: entries[f"init.{name}"] for name in shapes})
