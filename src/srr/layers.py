"""Layer operators: subspace self-attention, the ISTA sparsification step,
layer norm, and patch tokenization.

Every operator is one ndarray kernel (inference, probing, toy dynamics)
that works in place on its own temporaries.  Given a ``Workspace``, a
kernel takes its temporaries and its result from it, so repeated calls of
one shape allocate nothing.  A traced layer (training) runs the same
kernels as one autodiff node, ``_traced_layer``: it keeps only what its VJP
reads and adds to each parent the terms of the composed graph of layer
norms, matmuls, softmaxes, masks and ReLU it replaces, in that graph's
order, so every gradient keeps its bits.  Its twin (``_weights_twin``)
reads the same output and moves only the layer's weights.  Token matrices
are d x N with tokens as columns; batched inputs carry a leading batch
axis (B, d, N).
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

_WORKSPACE_BYTES = 8 << 20  # buffers one Workspace keeps at most


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
    receives each head's A_k, for the traced layer's VJP.  Scores go
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
    forms every S_k this way and the traced layer's VJP re-forms it so."""
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


def _attention_scale(variant: str, gamma: float, alpha: float) -> float:
    """The update's signed scale, ± alpha * gamma^2 (negative for crate_n),
    after the check that the variant is known."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown attention variant {variant!r}")
    return (-1.0 if variant == CRATE_N else 1.0) * alpha * gamma * gamma


def attention_update(
    Z, U, num_heads: int, variant: str, gamma: float, alpha: float = 1.0, W=None, attn_masks=None, out_mask=None,
    ws: Workspace | None = None,
):
    """Residual attention update: Z ± alpha * gamma^2 * Out @ HeadStack.

    ``U`` is the d x Kp concatenation of the K head bases.  The sign is
    negative for the N variant, positive otherwise; ``Out`` is the variant's
    output matrix ([U_1...U_K], its transpose, the output matrix ``W`` of
    the crate/crate_fix variants, or the identity).  ``out_mask`` is an
    optional multiplicative dropout mask on the projection output.
    """
    scale = _attention_scale(variant, gamma, alpha)
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


def ista_step(Y, D, beta: float, lambda_sparsity: float, ws: Workspace | None = None):
    """One sparsifying step: ReLU(Y + beta D^T (Y - D Y) - beta*lambda).

    The threshold subtracts the scalar beta*lambda from every entry; the
    ReLU guarantees a nonnegative output.
    """
    if beta < 0 or lambda_sparsity < 0:
        raise ConfigError("beta and lambda_sparsity must be nonnegative")
    return _ista(Y, D, beta, lambda_sparsity, ws)[0]


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
    x - mu divided by the std column, where the traced layer multiplies by 1/std."""
    d = Z.shape[-2]
    xc, _, std = ad._ln_stats(Z, _take(ws, "ln.out", Z.shape), _take(ws, "ln.sq", Z.shape))
    xc /= std
    xc *= np.asarray(gain).reshape((d, 1))
    xc += np.asarray(bias).reshape((d, 1))
    return xc


def _traced_layer(
    Z, norm1, U, W, norm2, D, num_heads: int, variant: str, gamma: float, alpha: float, beta: float,
    lambda_sparsity: float, attn_masks=None, out_mask=None,
):
    """One layer on the Tensor ``Z`` as one autodiff node: the ISTA step of
    the layer norm of the attention update of the layer norm of Z, with the
    (gain, bias) Tensor pairs ``norm1`` and ``norm2`` and the kernels of the
    ndarray path.

    It keeps both layer norms' mean and 1/std columns, each head's A_k, the
    masks, the attention output and the ISTA residual Y - D Y.  Its VJP
    re-forms each x-hat and normalized input, each softmax S_k
    (``_head_scores``) and, where the output matrix's term reads it, the
    head stack, by the forward's own operations.  Each parent gets the
    terms of the composed graph, in its order: D the residual's term, then
    the normalized input's; U the output matrix's term (crate_c/n/t), then
    one matrix of its head blocks; W (crate/crate_fix) its one term; Z and
    each gain and bias one layer-norm term.  A normalized input's terms add
    as its own node summed them: the first plus the second, then ``+=``.
    The VJP called with ``to_input`` off gives Z no term (``_weights_twin``).
    """
    (g1, b1), (g2, b2) = norm1, norm2
    u, dm = U.data, D.data
    scale = _attention_scale(variant, gamma, alpha)
    Out = _output_matrix(variant, u, None if W is None else W.data, Z.shape[-2])
    zn, mu1, inv1 = ad._ln_forward(Z.data, g1.data, b1.data)
    saved: list[np.ndarray] = []
    za = _attention(zn, u, num_heads, Out, scale, attn_masks, out_mask, None, saved)
    del zn  # freed before the second layer norm allocates, which reuses its memory
    y, mu2, inv2 = ad._ln_forward(za, g2.data, b2.data)
    value, resid = _ista(y, dm, beta, lambda_sparsity, None)
    p = u.shape[-1] // num_heads
    stack_reader = U if variant in (CRATE_C, CRATE_N, CRATE_T) else W  # the parent whose term reads the stack
    ln1, ln2 = ad._ln_maps(g1.data, inv1, za.ndim), ad._ln_maps(g2.data, inv2, za.ndim)

    def give(parents, maps, c):
        for t, grad_map in zip(parents, maps):
            if t.requires_grad:
                t._accumulate(grad_map(c))

    def vjp(g, to_input=True):
        # ISTA: the cotangents of the ReLU input, beta * D^T resid, resid and D Y
        g_pre = g * (value > 0.0)
        g_m = g_pre * beta
        g_resid = dm @ g_m
        g_dy = np.negative(g_resid)
        xhat = ad._ln_xhat(za, mu2, inv2)
        if D.requires_grad:
            D._accumulate(ad._matmul_sum(g_m, resid.mT, dm.mT.shape).mT)
            D._accumulate(ad._matmul_sum(g_dy, ad._ln_output(xhat, g2.data, b2.data).mT, dm.shape))
        g_y = g_pre + g_resid  # the normalized input's terms
        g_y += dm.mT @ g_dy
        del g_pre, g_m, g_resid, g_dy
        g_a = ln2[0]((g_y, xhat))  # the attention output's cotangent
        give((g2, b2), ln2[1:], (g_y, xhat))
        del g_y
        # attention: the cotangents of the scaled output and the head stack
        g_out = g_a * scale
        if out_mask is not None:
            g_out *= out_mask
        g_stack = g_out if Out is None else Out.mT @ g_out
        xhat = ad._ln_xhat(Z.data, mu1, inv1)
        zn = ad._ln_output(xhat, g1.data, b1.data)
        stack = None
        if stack_reader is not None and stack_reader.requires_grad:
            stack = np.empty(za.shape[:-2] + (u.shape[-1], za.shape[-1]))
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
        del g_stack, S, g_AS, g_A, g_S, g_gram
        g_zn = g_a + u[:, :p] @ g_heads[0]  # the normalized input's terms: the residual's, then one per head
        del g_a
        for k in range(1, num_heads):
            g_zn += u[:, k * p : (k + 1) * p] @ g_heads[k]
        stack_term = None if stack is None else ad._matmul_sum(g_out, stack.mT, (za.shape[-2], u.shape[-1]))
        del g_out, stack
        if U.requires_grad:
            if variant in (CRATE_C, CRATE_N, CRATE_T):
                U._accumulate(stack_term.mT if variant == CRATE_T else stack_term)
            U._accumulate(_head_blocks(u, g_heads, zn))
        if variant in (CRATE, CRATE_FIX) and W.requires_grad:
            W._accumulate(stack_term)
        del stack_term, g_heads, zn
        first = 0 if to_input else 1
        give((Z, g1, b1)[first:], ln1[first:], (g_zn, xhat))

    parents = (Z, g1, b1, U) + (() if W is None else (W,)) + (g2, b2, D)
    return ad.Tensor(value, _parents=parents, _vjp=vjp)


def _weights_twin(node):
    """The weights-only twin of a ``_traced_layer`` node: a second node over
    the same output array whose parents are the layer's weights alone and
    whose VJP is the node's without the input's term.  It shares the node's
    saved state, so a term read off it moves only that layer's weights,
    within the one walk that also carries the node's own cotangent."""
    return ad.Tensor(node.data, _parents=node._parents[1:], _vjp=lambda g: node._vjp(g, to_input=False))


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
