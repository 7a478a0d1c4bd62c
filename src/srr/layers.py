"""Layer operators: subspace self-attention, the ISTA sparsification step,
layer norm, and patch tokenization.

Every operator runs on either plain float64 ndarrays (inference, probing,
toy dynamics) or autodiff ``Tensor``s (training); the type of its token
input picks the branch, and the weights may be Tensors only when it is one.
Where the two branches differ, the ndarray branch works in place on its own
temporaries, with the same floating-point operations in the same order.
Token matrices are d x N with tokens as columns; batched inputs carry a
leading batch axis (B, d, N).
"""

from __future__ import annotations

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


def stacked_attention_heads(Z, U, num_heads: int, attn_masks=None):
    """The Kp x N vertical stack of per-head attention outputs.

    Head k computes A_k = U_k^T Z and weights its tokens by the column
    softmax of the head Gram matrix A_k^T A_k.  ``attn_masks``, when given,
    is a length-K list of multiplicative masks applied to the softmax
    output (training-time dropout).
    """
    if not isinstance(Z, ad.Tensor):
        # each head's A @ S lands in its row block of one preallocated stack
        heads = split_heads(U, num_heads)
        p = heads[0].shape[1]
        stack = np.empty(Z.shape[:-2] + (num_heads * p, Z.shape[-1]))
        for k, Uk in enumerate(heads):
            A = Uk.mT @ Z
            S = linalg.softmax_columns(A.mT @ A)
            if attn_masks is not None:
                S *= attn_masks[k]
            np.matmul(A, S, out=stack[..., k * p : (k + 1) * p, :])
        return stack
    parts = []
    for k, Uk in enumerate(split_heads(U, num_heads)):
        A = Uk.mT @ Z
        S = ad.softmax_cols(A.mT @ A)
        if attn_masks is not None:
            S = S * attn_masks[k]
        parts.append(A @ S)
    return ad.concat(parts, axis=-2)


def mssa(Z, U, num_heads: int):
    """Multi-head subspace self-attention, summed form.

    sum_k U_k U_k^T Z softmax_cols((U_k^T Z)^T (U_k^T Z)): head k's basis
    times its row block of ``stacked_attention_heads(Z, U, K)``, summed
    over the heads in order.
    """
    heads = split_heads(U, num_heads)
    stack = stacked_attention_heads(Z, U, num_heads)
    p = heads[0].shape[-1]
    total = heads[0] @ stack[..., :p, :]
    for k in range(1, num_heads):
        total += heads[k] @ stack[..., k * p : (k + 1) * p, :]  # in place on an ndarray; a Tensor adds a node
    return total


def attention_update(
    Z, U, num_heads: int, variant: str, gamma: float, alpha: float = 1.0, W=None, attn_masks=None, out_mask=None
):
    """Residual attention update: Z ± alpha * gamma^2 * Out @ HeadStack.

    ``U`` is the d x Kp concatenation of the K head bases.  The sign is
    negative for the N variant, positive otherwise; ``Out`` is the variant's
    output matrix ([U_1...U_K], its transpose, the output matrix ``W`` of
    the crate/crate_fix variants, or the identity).  ``out_mask`` is an
    optional multiplicative dropout mask on the projection output.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    stack = stacked_attention_heads(Z, U, num_heads, attn_masks)
    d = Z.shape[-2]
    if variant in (CRATE, CRATE_FIX):
        if W is None:
            raise ConfigError(f"variant {variant!r} requires an output matrix W")
        out = W @ stack
    elif variant == CRATE_T:
        if U.shape[-1] != d:
            raise ConfigError("transposed output requires a square basis (d = K*p)")
        out = U.mT @ stack
    elif variant == CRATE_IDENTITY:
        if stack.shape[-2] != d:
            raise ConfigError("identity output requires the head stack to be d-dimensional (d = K*p)")
        out = stack
    else:
        out = U @ stack
    scale = (-1.0 if variant == CRATE_N else 1.0) * alpha * gamma * gamma
    if isinstance(Z, ad.Tensor):
        return Z + scale * (out if out_mask is None else out * out_mask)
    if out_mask is not None:
        out *= out_mask
    out *= scale
    out += Z
    return out


def ista_step(Y, D, beta: float, lambda_sparsity: float):
    """One sparsifying step: ReLU(Y + beta D^T (Y - D Y) - beta*lambda).

    The threshold subtracts the scalar beta*lambda from every entry; the
    ReLU guarantees a nonnegative output.
    """
    if beta < 0 or lambda_sparsity < 0:
        raise ConfigError("beta and lambda_sparsity must be nonnegative")
    if isinstance(Y, ad.Tensor):
        resid = Y - D @ Y
        pre = Y + beta * (D.mT @ resid) - beta * lambda_sparsity
        return pre.relu()
    resid = D @ Y
    np.subtract(Y, resid, out=resid)
    pre = D.mT @ resid
    pre *= beta
    pre += Y
    pre -= beta * lambda_sparsity
    return np.maximum(pre, 0.0, out=pre)


def layer_norm(Z, gain, bias):
    """Column-wise layer norm: zero mean, unit variance over the d features,
    then per-feature gain and bias.  Variance gets the ``autodiff.LN_EPS`` floor."""
    if isinstance(Z, ad.Tensor):
        return ad.layer_norm_cols(Z, gain, bias)
    d = Z.shape[-2]
    xc = Z - linalg._reduce(np.add, Z, -2) / d
    var = linalg._reduce(np.add, xc * xc, -2)
    var /= d
    var += ad.LN_EPS
    xc /= np.sqrt(var, out=var)
    xc *= np.asarray(gain).reshape((d, 1))
    xc += np.asarray(bias).reshape((d, 1))
    return xc


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
