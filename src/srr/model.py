"""Model assembly: L unrolled layers, the forward pass, inference logits and
per-layer probes, parameter counting/initialization, and checkpoints.

A layer maps Z to ista_step(LN2(attention_update(LN1(Z)))) — layer norm
before each of the two operators, with the attention update carrying its
own residual branch.  A traced layer is one autodiff node
(``layers._traced_layer``).  Probes evaluate the sparse-rate-reduction
measure of each layer's raw (post-ISTA) output against that layer's own
basis.
"""

from __future__ import annotations

import json
import os
import sys
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import layers as ly
from . import rates
from .autodiff import Tensor, _gram_volume, _matmul_sum, _node, as_tensor, logdet_gram
from .errors import COUNT, FINITE, FRACTION, INT, NONNEGATIVE, POSITIVE, check_fields, one_of, optional, rule
from .errors import ConfigError, FormatError, ShapeError, config_fields
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

# physical memory: no parameter table outgrows it (no bound where the system does not say)
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else sys.maxsize
INFERENCE_BATCH = 256  # samples per chunk of an inference forward


@dataclass(frozen=True)
class ModelConfig:
    L: int = rule(12, COUNT)
    d: int = rule(384, COUNT)
    K: int = rule(6, COUNT)
    alpha: float = rule(1.0, FINITE)
    beta: float = rule(0.5, NONNEGATIVE)
    eps_sq: float | None = rule(None, optional(POSITIVE))  # None: eps^2 = p/N so the attention scale gamma is exactly 1
    lambda_sparsity: float = rule(0.1, NONNEGATIVE)
    variant: str = rule(ly.CRATE_C, one_of(*ly.VARIANTS))
    dropout: float = rule(0.0, FRACTION)
    num_classes: int = rule(10, COUNT)
    seed: int = rule(0, INT)
    # input geometry: images (patchified) or pre-tokenized feature sequences
    patch: int = rule(4, COUNT)
    image_size: int = rule(32, COUNT)
    channels: int = rule(3, COUNT)
    feat_dim: int | None = rule(None, optional(COUNT))
    num_tokens: int | None = rule(None, optional(COUNT))

    def __post_init__(self):
        check_fields(self)
        if self.d % self.K != 0:
            raise ConfigError(f"width d = {self.d} must be a multiple of K = {self.K}")
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
    initialization time (distance-to-init measures need it).  The model
    owns the buffers its inference passes reuse, shaped for the token
    shape of the last pass: a pass of another shape replaces them.
    """

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor], init_snapshot: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.init_snapshot = init_snapshot
        self._workspace = ly.Workspace()

    # ------------------------------------------------------------------
    def trainable_params(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def tracked_matrices(self) -> list[tuple[str, np.ndarray]]:
        """Weight matrices entering the spectral/Frobenius measure families,
        in table order: embedding, each layer's U and D (and W when present),
        and the head — every 2-d parameter but the positional table."""
        return [(name, t.data) for name, t in self.params.items() if t.ndim == 2 and name != "pos"]

    def check_labels(self, dataset) -> None:
        """ConfigError naming a label and both class counts unless every label of both splits lies in [0, C)."""
        low = min(np.min(dataset.train_y, initial=0), np.min(dataset.val_y, initial=0))
        high = max(np.max(dataset.train_y, initial=-1), np.max(dataset.val_y, initial=-1))
        if low < 0 or high >= self.cfg.num_classes:
            raise ConfigError(f"label {low if low < 0 else high} is outside [0, {self.cfg.num_classes}): "
                              f"the data has {dataset.num_classes} classes, the model {self.cfg.num_classes}")

    # ------------------------------------------------------------------
    def embed_inputs(self, raw: np.ndarray, train_mode: bool = False, rng=None, _pooled: bool = False):
        """A (B, F, T) batch of feature columns (ShapeError for any other
        rank) -> (B, d, T + 1) tokens with CLS and positional encoding, by
        one ndarray kernel on both paths.  Training mode returns the tokens
        as one autodiff node behind the embedding, CLS and positional
        parameters (each gets one gradient term per walk) and applies
        embedding dropout.  ``_pooled`` (inference) writes the tokens into
        the model's workspace, for ``run`` to read before the next pooled
        embedding overwrites them."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 3:
            raise ShapeError(f"expected a (batch, features, tokens) array, got shape {raw.shape}")
        if raw.shape[1] != self.cfg.in_dim:
            raise ShapeError(f"expected {self.cfg.in_dim}-dim feature columns, got {raw.shape[1]}")
        if raw.shape[2] != self.cfg.grid_tokens:
            raise ShapeError(f"expected {self.cfg.grid_tokens} tokens per sample, got {raw.shape[2]}")
        embed, cls, pos = self.params["embed"], self.params["cls"], self.params["pos"]
        B, _, T = raw.shape
        shape = (B, self.cfg.d, T + 1)
        ws = self._workspace if _pooled else None
        tok = ly._take(ws, "tokens", shape)
        tok[..., 0] = cls.data
        # a contiguous product, copied in: into the strided block matmul would allocate its own
        tok[..., 1:] = np.matmul(embed.data, raw, out=ly._take(ws, "embed.proj", (B, self.cfg.d, T)))
        tok += pos.data
        if train_mode:
            maps = (lambda g: _matmul_sum(g[..., 1:], raw.mT, embed.shape), lambda g: g[..., 0], None)
            tok = _node(tok, (embed, cls, pos), maps)
        if train_mode and self.cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("training-mode dropout needs an rng")
            mask = _dropout_mask(rng, (B, self.cfg.d, T + 1), self.cfg.dropout)
            tok = tok * mask
        return tok

    def apply_layer(self, i: int, Z, attn_masks=None, out_mask=None):
        """Run layer ``i`` (0-based) on the Tensor ``Z`` with the given dropout
        masks.  A regularized forward builds each layer this way, and keeps
        the node's weights-only twin (``layers._weights_twin``) beside it."""
        return _apply_layer(Z, self.params, i, self.cfg, False, attn_masks, out_mask)

    # ------------------------------------------------------------------
    @np.errstate(over="ignore", invalid="ignore")  # each reader of the result flags a non-finite value
    def run(self, tokens, rng=None, ln_identity: bool = False, keep_cache: bool = False, _twins: bool = False):
        """Forward pass.

        ``tokens``: a (B, d, N) ndarray (inference) or traced Tensor (training,
        with dropout from ``rng`` when ``cfg.dropout > 0``), any other shape a
        ShapeError.  Returns (B, C) logits and a cache, None unless ``keep_cache``.
        ``ln_identity`` bypasses LayerNorm, on inference only.
        ``_twins`` (traced, with ``keep_cache``) builds each layer through
        ``apply_layer`` and adds the node's weights-only twin to its cache
        entry under ``"twin"``, for the regularizer to read.
        """
        cfg = self.cfg
        traced = isinstance(tokens, Tensor)
        if not traced:
            tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim != 3 or tokens.shape[1] != cfg.d:
            raise ShapeError(f"expected a (batch, {cfg.d}, tokens) array, got shape {tokens.shape}")
        n_tok = tokens.shape[-1]
        if traced and ln_identity:
            raise ConfigError("ln_identity is an inference option: a traced forward always normalizes")
        use_dropout = traced and cfg.dropout > 0.0
        if use_dropout and rng is None:
            raise ConfigError("training-mode dropout needs an rng")

        P = self.params if traced else {name: t.data for name, t in self.params.items()}
        # the temporaries of an inference pass come from the model's workspace;
        # a traced pass and a cached one keep theirs
        ws = None if traced or keep_cache else self._workspace
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
            if _twins:
                Z = self.apply_layer(i, Z, attn_masks, out_mask)
            else:
                Z = _apply_layer(Z, P, i, cfg, ln_identity, attn_masks, out_mask, ws)
            if cache is not None:
                cache.append(
                    {"input": layer_in, "attn_masks": attn_masks, "out_mask": out_mask, "output": Z}
                )
                if _twins:
                    cache[-1]["twin"] = ly._weights_twin(Z)
        return (P["head.weight"] @ Z[..., :, 0:1])[..., 0] + P["head.bias"], cache

    def logits(self, raw: np.ndarray, ln_identity: bool = False) -> np.ndarray:
        """Inference logits of a (B, F, T) feature batch, INFERENCE_BATCH
        samples at a time, each chunk through the model's reused buffers."""
        if len(raw) == 0:
            raise ConfigError("logits needs at least one sample")
        chunks = [
            self.run(self.embed_inputs(raw[start : start + INFERENCE_BATCH], _pooled=True), ln_identity=ln_identity)[0]
            for start in range(0, len(raw), INFERENCE_BATCH)
        ]
        return np.concatenate(chunks, axis=0)

    @np.errstate(over="ignore", invalid="ignore")  # a layer past float64 range gets NaN rates, which each reader flags
    def probe(
        self,
        raw: np.ndarray,
        eps_sq: float = rates.RateConfig.eps_sq,
        lambda_sparsity: float = rates.RateConfig.lambda_sparsity,
    ) -> list[ProbeRecord]:
        """Per-layer probes of the (B, F, T) feature batch ``raw`` with
        LayerNorm bypassed, at the rate scales eps_sq and lambda_sparsity."""
        if len(raw) == 0:
            raise ConfigError("probe needs at least one sample")
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


def _apply_layer(Z, P: dict, i: int, cfg: ModelConfig, ln_identity: bool, attn_masks, out_mask, ws=None):
    """Layer ``i`` of the table ``P`` (Tensors or arrays) on ``Z``, with alpha,
    beta, K, lambda, the variant and the attention scale for Z from ``cfg``:
    on a Tensor one autodiff node, on an ndarray the four kernels.  With a
    workspace ``ws`` the result is its ``ista.out`` buffer; each operator
    reads only buffers that the one it overwrites does not hold."""
    w = f"layers.{i}."
    norm1, norm2 = ((P[w + f"ln{j}_gain"], P[w + f"ln{j}_bias"]) for j in (1, 2))
    gamma = cfg.attention_gamma(Z.shape[-1])
    U, W, D = P[w + "U"], P.get(w + "W"), P[w + "D"]
    if isinstance(Z, Tensor):
        return ly._traced_layer(Z, norm1, U, W, norm2, D, cfg.K, cfg.variant, gamma, cfg.alpha, cfg.beta,
                                cfg.lambda_sparsity, attn_masks, out_mask)
    Zn = Z if ln_identity else ly.layer_norm(Z, *norm1, ws)
    Za = ly.attention_update(Zn, U, cfg.K, cfg.variant, gamma, cfg.alpha, W, attn_masks, out_mask, ws)
    Ya = Za if ln_identity else ly.layer_norm(Za, *norm2, ws)
    return ly.ista_step(Ya, D, cfg.beta, cfg.lambda_sparsity, ws)


def _layer_rates(Z, U, num_heads: int, gamma: float, full_scale: float):
    """Per-matrix R(Z), R_c(Z; U) and ||Z||_0 of a (..., d, N) token stack.

    R is the Gram log-volume of Z at ``full_scale``; R_c sums the log-volumes
    of the K head projections U_k^T Z at ``gamma``.  ``Z`` and ``U`` may be
    ndarrays or Tensors: R and R_c come back as Tensors (on the tape when an
    input is), NaN where Z or its Gram leaves float64 range, and the l0
    counts as an integer array of the leading shape.
    """
    z = as_tensor(Z)
    rc = _subspace_rate(z, as_tensor(U), num_heads, gamma)
    r = logdet_gram(z, full_scale)
    l0 = np.count_nonzero(np.abs(z.data) > rates.L0_TOL, axis=(-2, -1))
    return r, rc, l0


def _subspace_rate(z: Tensor, U: Tensor, num_heads: int, gamma: float) -> Tensor:
    """R_c(z; U) as one node: the log-volumes of the K head projections
    U_k^T z, summed in head order.  It keeps each projection and its
    volume's I + gamma * Gram, and adds the terms of the composed graph of
    per-head slices, products and ``logdet_gram`` nodes in its order: z one
    per head, U one (d, Kp) matrix of its head blocks."""
    heads = rates.split_heads(U.data, num_heads)
    volumes = [_gram_volume(Uk.mT @ z.data, gamma) for Uk in heads]
    value = volumes[0][0]
    for v, _ in volumes[1:]:
        value = value + v

    def prep(g):  # each projection's cotangent
        return [grad(g) for _, grad in volumes]

    maps = [lambda c, k=k: heads[k] @ c[k] for k in range(num_heads)]
    maps.append(lambda c: ly._head_blocks(U.data, c, z.data))
    return _node(value, (z,) * num_heads + (U,), tuple(maps), prep)


def _probe_layer(layer_no: int, Z, U, pc: rates.RateConfig) -> ProbeRecord:
    """Batch means of the layer rates at the probe scales of ``pc``; l0 is NaN where Z holds one."""
    r, rc, l0 = _layer_rates(Z, U, pc.K, pc.gamma, pc.full_scale)
    r, rc, l0 = (float(np.mean(v)) for v in (r.data, rc.data, np.nan if np.isnan(Z).any() else l0))
    return ProbeRecord(layer=layer_no, r=r, rc=rc, l0=l0, srr=pc.lambda_sparsity * l0 + rc - r)


def param_count(cfg: ModelConfig) -> int:
    """Trainable-parameter count of the configuration's parameter table."""
    shapes = _param_shapes(cfg)
    return sum(int(np.prod(shape)) for name, shape in shapes.items() if _group(cfg, name) == "param")


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in allocation order.  MemoryError,
    before any per-layer work, when the table outgrows physical memory."""
    d, mats = cfg.d, ("U", "D", "W") if cfg.variant in (ly.CRATE, ly.CRATE_FIX) else ("U", "D")
    nbytes = 8 * (d * (cfg.in_dim + cfg.tokens + 1) + cfg.L * (len(mats) * d * d + 4 * d) + cfg.num_classes * (d + 1))
    if nbytes > _MEMORY_BYTES:
        raise MemoryError(f"L = {cfg.L} layers at d = {d} need {nbytes} bytes, over the {_MEMORY_BYTES} of memory")
    shapes = {"embed": (d, cfg.in_dim), "pos": (d, cfg.tokens), "cls": (d,)}
    for i in range(cfg.L):
        for name in mats:
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
    """Write the checkpoint atomically, at exactly ``path`` (no ``.npz`` appended)."""
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
    _write_atomic(path, lambda fh: np.savez(fh, **payload))


def _write_atomic(path: str, write) -> None:
    """Call ``write`` on a binary handle to a temporary file beside ``path``,
    then move it onto ``path``: readers never see a partly written file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:  # gone after a successful replace
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_npz(path: str, what: str) -> dict[str, np.ndarray]:
    """Every entry of the .npz file ``path``; FormatError naming ``what`` when it is unreadable."""
    try:
        # an open handle of our own: np.load leaks its handle on a bad zip
        with open(path, "rb") as fh:
            zf = np.load(fh, allow_pickle=False)
            if isinstance(zf, np.lib.npyio.NpzFile):
                with zf:
                    return {key: zf[key] for key in zf.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable {what}: {exc}") from exc
    # np.load reads a .npy file as one array
    raise FormatError(f"{path}: unreadable {what}: one .npy array, not an .npz archive")


def _check_entries(path: str, entries: dict[str, np.ndarray], expected: dict[str, tuple]) -> None:
    """FormatError naming the first entry of ``expected`` that ``entries``
    lacks or holds in another shape, else the first entry not expected."""
    for key, shape in expected.items():
        if key not in entries:
            raise FormatError(f"{path}: missing entry {key!r}")
        if entries[key].shape != shape:
            raise FormatError(f"{path}: entry {key!r} has shape {entries[key].shape}, expected {shape}")
    extra = [key for key in entries if key not in expected]
    if extra:
        raise FormatError(f"{path}: unexpected entry {extra[0]!r}")


def load_checkpoint(path: str) -> Model:
    """Read a checkpoint written by ``save_checkpoint``.  The config keys,
    entry names and shapes must be exactly those ``init_model`` allocates
    for the stored config; the first mismatch, or a file that is no
    readable .npz, raises FormatError."""
    entries = _read_npz(path, "checkpoint")
    if "meta.version" not in entries or int(entries["meta.version"]) != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version in {path}")
    try:
        raw = json.loads(str(entries["meta.config"])) if "meta.config" in entries else None
    except ValueError as exc:
        raise FormatError(f"{path}: model config is not valid JSON: {exc}") from exc
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
    _check_entries(path, entries, expected)
    live = {name: entries[f"{_group(cfg, name)}.{name}"] for name in shapes}
    return _assemble(cfg, live, {name: entries[f"init.{name}"] for name in shapes})
