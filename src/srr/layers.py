"""Layer operators: subspace self-attention, the ISTA sparsification step,
layer norm, and patch tokenization.

Every operator here is written once and runs on either plain float64
ndarrays (inference, probing, toy dynamics) or autodiff ``Tensor``s
(training) — the small ``_mT``/``_relu``/... helpers dispatch on type.
Token matrices are d x N with tokens as columns; batched inputs carry a
leading batch axis (B, d, N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import linalg
from .errors import ConfigError, ShapeError
from .rates import split_heads

__all__ = [
    "CRATE_C",
    "CRATE_N",
    "CRATE_T",
    "CRATE",
    "CRATE_FIX",
    "CRATE_IDENTITY",
    "VARIANTS",
    "LayerParams",
    "mssa",
    "stacked_attention_heads",
    "attention_update",
    "ista_step",
    "layer_norm",
    "patchify",
]

# Attention-update variants: sign of the residual branch and choice of
# output matrix applied to the stacked head outputs.
CRATE_C = "crate_c"  # +, output [U_1 ... U_K]
CRATE_N = "crate_n"  # -, output [U_1 ... U_K]
CRATE_T = "crate_t"  # +, output [U_1 ... U_K]^T
CRATE = "crate"  # +, learnable output W
CRATE_FIX = "crate_fix"  # +, frozen random W
CRATE_IDENTITY = "crate_identity"  # +, head stack used directly

VARIANTS = (CRATE_C, CRATE_N, CRATE_T, CRATE, CRATE_FIX, CRATE_IDENTITY)

LN_EPS = 1e-6


def _is_tensor(x) -> bool:
    return isinstance(x, ad.Tensor)


def _mT(x):
    return x.mT if _is_tensor(x) else np.swapaxes(x, -1, -2)


def _relu(x):
    return x.relu() if _is_tensor(x) else np.maximum(x, 0.0)


def _softmax_cols(x):
    return ad.softmax_cols(x) if _is_tensor(x) else linalg.softmax_columns(x)


def _concat_rows(parts):
    if any(_is_tensor(p) for p in parts):
        return ad.concat(parts, axis=-2)
    return np.concatenate(parts, axis=-2)


@dataclass
class LayerParams:
    """Weights of one layer.

    ``U`` is the d x Kp concatenation of the K head bases, ``D`` the d x d
    dictionary for the sparsification step, ``W`` the optional learnable
    output matrix.  Values may be ndarrays or Tensors.
    """

    U: object
    D: object
    ln1_gain: object
    ln1_bias: object
    ln2_gain: object
    ln2_bias: object
    alpha: float = 1.0
    beta: float = 0.5
    num_heads: int = 1
    W: object | None = None


def stacked_attention_heads(Z, U, num_heads: int, attn_masks=None):
    """The Kp x N vertical stack of per-head attention outputs.

    Head k computes A_k = U_k^T Z and weights its tokens by the column
    softmax of the head Gram matrix A_k^T A_k.  ``attn_masks``, when given,
    is a length-K list of multiplicative masks applied to the softmax
    output (training-time dropout).
    """
    parts = []
    for k, Uk in enumerate(split_heads(U, num_heads)):
        A = _mT(Uk) @ Z
        S = _softmax_cols(_mT(A) @ A)
        if attn_masks is not None:
            S = S * attn_masks[k]
        parts.append(A @ S)
    return _concat_rows(parts)


def mssa(Z, U, num_heads: int):
    """Multi-head subspace self-attention, summed form.

    sum_k U_k U_k^T Z softmax_cols((U_k^T Z)^T (U_k^T Z)).

    Equal to ``[U_1 ... U_K] @ stacked_attention_heads(Z, U, K)`` — the two
    factorizations are tested against each other.
    """
    total = None
    for k, Uk in enumerate(split_heads(U, num_heads)):
        A = _mT(Uk) @ Z
        S = _softmax_cols(_mT(A) @ A)
        term = Uk @ (A @ S)
        total = term if total is None else total + term
    return total


def attention_update(Z, params: LayerParams, variant: str, gamma: float, attn_masks=None, out_mask=None):
    """Residual attention update: Z ± alpha * gamma^2 * Out @ HeadStack.

    The sign is negative for the N variant, positive otherwise; ``Out`` is
    the variant's output matrix ([U_1...U_K], its transpose, a learnable W,
    or the identity).  ``out_mask`` is an optional multiplicative dropout
    mask on the projection output.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    stack = stacked_attention_heads(Z, params.U, params.num_heads, attn_masks)
    d = Z.shape[-2]
    if variant in (CRATE, CRATE_FIX):
        if params.W is None:
            raise ConfigError(f"variant {variant!r} requires an output matrix W")
        out = params.W @ stack
    elif variant == CRATE_T:
        if params.U.shape[-1] != d:
            raise ConfigError("transposed output requires a square basis (d = K*p)")
        out = _mT(params.U) @ stack
    elif variant == CRATE_IDENTITY:
        if stack.shape[-2] != d:
            raise ConfigError("identity output requires the head stack to be d-dimensional (d = K*p)")
        out = stack
    else:
        out = params.U @ stack
    if out_mask is not None:
        out = out * out_mask
    sign = -1.0 if variant == CRATE_N else 1.0
    return Z + (sign * params.alpha * gamma * gamma) * out


def ista_step(Y, D, beta: float, lambda_sparsity: float):
    """One sparsifying step: ReLU(Y + beta D^T (Y - D Y) - beta*lambda).

    The threshold subtracts the scalar beta*lambda from every entry; the
    ReLU guarantees a nonnegative output.
    """
    if beta < 0 or lambda_sparsity < 0:
        raise ConfigError("beta and lambda_sparsity must be nonnegative")
    resid = Y - D @ Y
    pre = Y + beta * (_mT(D) @ resid) - beta * lambda_sparsity
    return _relu(pre)


def layer_norm(Z, gain, bias, eps: float = LN_EPS):
    """Column-wise layer norm: zero mean, unit variance over the d features,
    then per-feature gain and bias.  Variance gets a 1e-6 floor."""
    if _is_tensor(Z) or _is_tensor(gain) or _is_tensor(bias):
        return ad.layer_norm_cols(ad.as_tensor(Z), ad.as_tensor(gain), ad.as_tensor(bias), eps)
    d = Z.shape[-2]
    mu = Z.mean(axis=-2, keepdims=True)
    xc = Z - mu
    var = (xc * xc).mean(axis=-2, keepdims=True)
    xhat = xc / np.sqrt(var + eps)
    g = np.asarray(gain).reshape((d, 1))
    b = np.asarray(bias).reshape((d, 1))
    return g * xhat + b


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(B, H, W, C) images -> (B, patch*patch*C, T) flattened patch columns.

    Patches are scanned row-major over the patch grid and each patch is
    flattened row-major with channel fastest.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    B, H, W, C = images.shape
    if H % patch != 0 or W % patch != 0:
        raise ShapeError(f"image {H}x{W} not divisible by patch {patch}")
    gh, gw = H // patch, W // patch
    x = images.reshape(B, gh, patch, gw, patch, C)
    x = x.transpose(0, 1, 3, 2, 4, 5).reshape(B, gh * gw, patch * patch * C)
    return np.swapaxes(x, -1, -2)
