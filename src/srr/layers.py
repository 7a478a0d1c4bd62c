"""Layer operators: subspace self-attention, the ISTA sparsification step,
layer norm, and patch tokenization.

Every operator is one ndarray kernel (inference, probing, toy dynamics)
that works in place on its own temporaries.  Given a ``Workspace``, a
kernel takes its temporaries and its result from it, so repeated calls of
one shape allocate nothing.  The attention update and the ISTA step take
the layer norm before them as ``pre_norm``.  On an autodiff ``Tensor``
token input (training) each of them, its layer norm folded in, and a lone
layer norm become one autodiff node whose value is the kernel's: it keeps
only what its VJP reads and adds to each parent the terms of the composed
graph of layer norms, matmuls, softmaxes and masks it replaces, in that
graph's order, so every gradient keeps its bits.  Weights may be Tensors
only when the token input is one.  Token matrices are d x N with tokens
as columns; batched inputs carry a leading batch axis (B, d, N).
"""

from __future__ import annotations

from operator import itemgetter

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

_WORKSPACE_BYTES = 8 << 20  # buffers one Workspace keeps at most
# node maps that pass on one of their prep's results as it is, shared by every node
_TERM_0, _TERM_2 = itemgetter(0), itemgetter(2)


class Workspace:
    """Named float64 buffers that the ndarray kernels reuse from call to call.

    ``take(name, shape)`` returns the buffer kept under ``name``, allocating
    it when it is missing or has another shape.  A new buffer is kept only
    while the workspace then holds at most ``_WORKSPACE_BYTES``; past that,
    ``take`` hands out a fresh array.  A kernel's result under a name is
    overwritten by the next call that takes that name, so a caller copies
    what it keeps.  Not thread-safe.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.nbytes = 0  # of the kept buffers

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self.buffers.pop(name, None)
        if buf is not None:
            self.nbytes -= buf.nbytes
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
        if self.nbytes + buf.nbytes <= _WORKSPACE_BYTES:
            self.buffers[name] = buf
            self.nbytes += buf.nbytes
        return buf


def _take(ws: Workspace | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape) if ws is None else ws.take(name, shape)


def stacked_attention_heads(Z, U, num_heads: int, attn_masks=None, ws: Workspace | None = None, _saved=None):
    """The Kp x N vertical stack of per-head attention outputs.

    Head k computes A_k = U_k^T Z and weights its tokens by the column
    softmax of the head Gram matrix A_k^T A_k.  ``attn_masks``, when given,
    is a length-K list of multiplicative masks applied to the softmax
    output (training-time dropout).  ``Z`` and ``U`` are ndarrays.  Each
    head's scores live in an (N, …, N) buffer, the softmax's axis first, so
    its reductions run over contiguous rows; the kernels read its (…, N, N)
    view (``_head_scores``).  Without a workspace, ``_saved`` (a list)
    receives each head's A_k, for the attention node's VJP.  Scores go
    through the softmax unchecked, for the reader to flag.
    """
    heads = split_heads(U, num_heads)
    p = heads[0].shape[1]
    lead, n = Z.shape[:-2], Z.shape[-1]
    # each head's A @ S lands in its row block of one preallocated stack
    stack = _take(ws, "heads.stack", lead + (num_heads * p, n))
    for k, Uk in enumerate(heads):
        A = np.matmul(Uk.mT, Z, out=_take(ws, "heads.A", lead + (p, n)))
        S = _head_scores(A, _take(ws, "heads.S", (n,) + lead + (n,)))
        if _saved is not None:
            _saved.append(A)
        _head_output(A, S, None if attn_masks is None else attn_masks[k], stack[..., k * p : (k + 1) * p, :])
    return stack


def _head_scores(A, buf=None):
    """A head's column softmax S = softmax_cols(A^T A), the (..., N, N) view
    of an (N, ..., N) buffer ``buf`` (fresh when None) that holds the Gram
    with the softmax's axis first, then the softmax in place.  The forward
    forms every S_k this way and the attention node's VJP re-forms it so."""
    lead, n = A.shape[:-2], A.shape[-1]
    if buf is None:
        buf = np.empty((n,) + lead + (n,))
    view_axes = (*range(1, len(lead) + 1), 0, len(lead) + 1)  # np.moveaxis(buf, 0, -2) without its checks
    S = np.matmul(A.mT, A, out=buf.transpose(view_axes))
    linalg._softmax(buf, 0, out=buf)
    return S


def _head_output(A, S, mask, out):
    """One head's A_k S_k, its softmax masked, into its row block ``out`` of the stack."""
    return np.matmul(A, S if mask is None else S * mask, out=out)


def _head_blocks(u, head_grads, z):
    """The (d, Kp) gradient of a basis U whose heads project z as U_k^T z,
    given each projection's cotangent: block k is (g_k z^T)^T, summed over
    a batch."""
    blocks = np.empty_like(u)
    p = u.shape[-1] // len(head_grads)
    for k, g in enumerate(head_grads):
        blocks[:, k * p : (k + 1) * p] = ad._matmul_sum(g, z.mT, (p, z.shape[-2])).mT
    return blocks


def mssa(Z, U, num_heads: int):
    """Multi-head subspace self-attention, summed form, on ndarrays.

    sum_k U_k U_k^T Z softmax_cols((U_k^T Z)^T (U_k^T Z)): head k's basis
    times its row block of ``stacked_attention_heads(Z, U, K)``, summed
    over the heads in order.
    """
    heads = split_heads(U, num_heads)
    stack = stacked_attention_heads(Z, U, num_heads)
    p = heads[0].shape[-1]
    total = heads[0] @ stack[..., :p, :]
    for k in range(1, num_heads):
        total += heads[k] @ stack[..., k * p : (k + 1) * p, :]
    return total


def _output_matrix(variant: str, U, W, d: int):
    """The variant's output matrix applied to the head stack (None for the
    identity), after the checks that it fits."""
    if variant in (CRATE, CRATE_FIX):
        if W is None:
            raise ConfigError(f"variant {variant!r} requires an output matrix W")
        return W
    if variant == CRATE_T:
        if U.shape[-1] != d:
            raise ConfigError("transposed output requires a square basis (d = K*p)")
        return U.mT
    if variant == CRATE_IDENTITY:
        if U.shape[-1] != d:
            raise ConfigError("identity output requires the head stack to be d-dimensional (d = K*p)")
        return None
    return U


def attention_update(
    Z, U, num_heads: int, variant: str, gamma: float, alpha: float = 1.0, W=None, attn_masks=None, out_mask=None,
    ws: Workspace | None = None, pre_norm=None,
):
    """Residual attention update: Z ± alpha * gamma^2 * Out @ HeadStack.

    ``U`` is the d x Kp concatenation of the K head bases.  The sign is
    negative for the N variant, positive otherwise; ``Out`` is the variant's
    output matrix ([U_1...U_K], its transpose, the output matrix ``W`` of
    the crate/crate_fix variants, or the identity).  ``out_mask`` is an
    optional multiplicative dropout mask on the projection output.  With
    ``pre_norm``, a (gain, bias) pair, the update is that of
    ``layer_norm(Z, gain, bias)``.  On a Tensor ``Z`` the update, its layer
    norm included, is one autodiff node (``_attention_node``).
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    scale = (-1.0 if variant == CRATE_N else 1.0) * alpha * gamma * gamma
    if isinstance(Z, ad.Tensor):
        U = ad.as_tensor(U)
        W = None if W is None else ad.as_tensor(W)
        return _attention_node(Z, U, W, num_heads, variant, scale, attn_masks, out_mask, pre_norm)
    if pre_norm is not None:
        Z = layer_norm(Z, *pre_norm, ws)
    Out = _output_matrix(variant, U, W, Z.shape[-2])
    return _attention(Z, U, num_heads, Out, scale, attn_masks, out_mask, ws)


def _attention(Z, U, num_heads, Out, scale, attn_masks, out_mask, ws, saved=None):
    """The attention kernel on ndarrays."""
    stack = stacked_attention_heads(Z, U, num_heads, attn_masks, ws, saved)
    out = stack if Out is None else np.matmul(Out, stack, out=_take(ws, "attn.out", Z.shape))
    if out_mask is not None:
        out *= out_mask
    out *= scale
    out += Z
    return out


def _attention_node(Z, U, W, num_heads, variant, scale, attn_masks, out_mask, pre_norm):
    """``attention_update`` of the Tensor ``Z`` as one autodiff node, its
    layer norm folded in by ``autodiff._normed_node``.

    It keeps each head's A_k and the masks.  Its VJP re-forms each softmax
    S_k from A_k by ``_head_scores`` and, where the output matrix's term
    reads it, the head stack from them by the forward's own products.  Its
    terms are those of the composed graph (per-head projections, Gram
    matrices, softmaxes and masks, the stack, the output matrix, the mask,
    the scale and the residual), in its order: U gets the output matrix's
    term (crate_c/n/t), then one matrix of its head blocks; W (crate/
    crate_fix) its one term; the (normalized) input the residual's term,
    then one term per head.
    """
    u = U.data
    z, norm = (Z.data, None) if pre_norm is None else ad._ln_forward(Z.data, *pre_norm)
    Out = _output_matrix(variant, u, None if W is None else W.data, z.shape[-2])
    saved: list[np.ndarray] = []
    value = _attention(z, u, num_heads, Out, scale, attn_masks, out_mask, None, saved)
    p = u.shape[-1] // num_heads
    scale_arr = np.asarray(scale, dtype=np.float64)
    stack_reader = U if variant in (CRATE_C, CRATE_N, CRATE_T) else W  # the parent whose term reads the stack

    def prep(g, z):
        g_out = g * scale_arr
        if out_mask is not None:
            g_out = g_out * out_mask
        g_stack = g_out if Out is None else Out.mT @ g_out
        stack = None
        if stack_reader is not None and stack_reader.requires_grad:
            stack = np.empty(value.shape[:-2] + (u.shape[-1], value.shape[-1]))
        g_heads = []
        for k, A in enumerate(saved):
            mask = None if attn_masks is None else attn_masks[k]
            S = _head_scores(A)
            if stack is not None:
                _head_output(A, S, mask, stack[..., k * p : (k + 1) * p, :])
            g_AS = g_stack[..., k * p : (k + 1) * p, :]
            g_A = g_AS @ (S if mask is None else S * mask).mT
            g_S = np.matmul(A.mT, g_AS, out=np.empty_like(S))  # in S's layout
            if mask is not None:
                g_S *= mask
            g_gram = ad._softmax_cols_vjp(S, g_S)
            g_A = g_A + A @ g_gram  # A's terms, summed in the composed graph's order
            g_A += (g_gram @ A.mT).mT
            g_heads.append(g_A)
        return g, g_out, g_heads, stack, z

    def stack_term(c):
        # the output matrix's term, g_out stack^T
        return ad._matmul_sum(c[1], c[3].mT, (value.shape[-2], u.shape[-1]))

    in_maps = (_TERM_0,) + tuple(lambda c, k=k: u[:, k * p : (k + 1) * p] @ c[2][k] for k in range(num_heads))
    parents, maps = [], []
    if variant in (CRATE_C, CRATE_N):
        parents.append(U)
        maps.append(stack_term)
    elif variant == CRATE_T:
        parents.append(U)
        maps.append(lambda c: stack_term(c).mT)
    parents.append(U)
    maps.append(lambda c: _head_blocks(u, c[2], c[4]))
    if variant in (CRATE, CRATE_FIX):
        parents.append(W)
        maps.append(stack_term)
    return ad._normed_node(value, Z, norm, in_maps, tuple(parents), tuple(maps), prep)


def ista_step(Y, D, beta: float, lambda_sparsity: float, ws: Workspace | None = None, pre_norm=None):
    """One sparsifying step: ReLU(Y + beta D^T (Y - D Y) - beta*lambda).

    The threshold subtracts the scalar beta*lambda from every entry; the
    ReLU guarantees a nonnegative output.  With ``pre_norm``, a (gain, bias)
    pair, the step is that of ``layer_norm(Y, gain, bias)``.  On a Tensor
    ``Y`` the step, its layer norm included, is one autodiff node
    (``autodiff._normed_node``) that keeps the residual Y - D Y and reads
    its ReLU gate off its own output.
    """
    if beta < 0 or lambda_sparsity < 0:
        raise ConfigError("beta and lambda_sparsity must be nonnegative")
    if not isinstance(Y, ad.Tensor):
        if pre_norm is not None:
            Y = layer_norm(Y, *pre_norm, ws)
        return _ista(Y, D, beta, lambda_sparsity, ws)[0]
    D = ad.as_tensor(D)
    dm = D.data
    y, norm = (Y.data, None) if pre_norm is None else ad._ln_forward(Y.data, *pre_norm)
    value, resid = _ista(y, dm, beta, lambda_sparsity, None)
    beta_arr = np.asarray(beta, dtype=np.float64)

    def prep(g, y):
        # the composed graph's cotangents of the ReLU input, beta * D^T resid, resid and D Y
        g_pre = g * (value > 0.0)
        g_m = g_pre * beta_arr
        g_resid = dm @ g_m
        return g_pre, g_m, g_resid, np.negative(g_resid), y

    in_maps = (_TERM_0, _TERM_2, lambda c: dm.mT @ c[3])
    maps = (
        lambda c: ad._matmul_sum(c[1], resid.mT, dm.mT.shape).mT,
        lambda c: ad._matmul_sum(c[3], c[4].mT, dm.shape),
    )
    return ad._normed_node(value, Y, norm, in_maps, (D, D), maps, prep)


def _ista(Y, D, beta, lambda_sparsity, ws):
    """The ISTA kernel on ndarrays: (step, residual Y - D Y)."""
    resid = np.matmul(D, Y, out=_take(ws, "ista.resid", Y.shape))
    np.subtract(Y, resid, out=resid)
    pre = np.matmul(D.mT, resid, out=_take(ws, "ista.out", Y.shape))
    pre *= beta
    pre += Y
    pre -= beta * lambda_sparsity
    return np.maximum(pre, 0.0, out=pre), resid


def layer_norm(Z, gain, bias, ws: Workspace | None = None):
    """Column-wise layer norm: zero mean, unit variance over the d features,
    then per-feature gain and bias, from ``autodiff._ln_stats``'s statistics:
    x - mu divided by the std column, where the ``Tensor`` node multiplies by 1/std."""
    if isinstance(Z, ad.Tensor):
        return ad.layer_norm_cols(Z, gain, bias)
    d = Z.shape[-2]
    xc, _, std = ad._ln_stats(Z, _take(ws, "ln.out", Z.shape), _take(ws, "ln.sq", Z.shape))
    xc /= std
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
