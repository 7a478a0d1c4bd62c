"""Minimal reverse-mode automatic differentiation over float64 ndarrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates vector-Jacobian products into ``.grad`` of every tensor that
requires gradients.  Every walk releases each interior node's ``.grad``
once that node's VJP has run, so only leaves keep theirs.

Every op states its value and one map per parent, from the cotangent g of
its result to that parent's term, and ``_node`` routes them by one rule:
each parent that requires grad, in parent order, gets its map of g summed
back down to its shape (broadcasting follows numpy), and the map of a
parent that needs no gradient is never called.  A fused op may list a
parent once per term, and may give a ``prep`` that turns g into the
intermediates its maps share; they live for that one VJP call only.

Accumulation: within one walk a tensor's first term is borrowed as it is
(it may be another node's cotangent, or a view of one); its second term
makes one sum that the tensor owns, and later terms of that walk add into
it with ``+=``.  Ownership is the identity of that sum, forgotten when the
walk is done, so no walk writes into an array it did not allocate, nor
into a gradient left by an earlier walk.  The additions and their order
are those of a fresh ``grad + g`` per term.  A batched product summed down
to a shared weight (``_matmul_sum``) is formed at most ``_PRODUCT_BYTES``
of per-sample products at a time.

Only the operations the models actually use are implemented, several of
them fused (softmax over columns, layer norm over columns, the log-det Gram
volume, softmax cross-entropy; a whole layer in ``srr.layers``, the
subspace rate R_c in ``srr.model``) so their backward passes are both fast
and numerically tight.  Besides its output and its parents, which the tape
holds anyway, each keeps only what its VJP reads and cannot re-form from
them with the forward's own operations:

- layer norm: the (..., 1, N) mean and 1/std columns (x-hat is re-formed),
  from ``_ln_stats``, which also gives ``srr.layers.layer_norm`` its own;
- log-det Gram volume: nothing (I + scale * Gram is re-formed);
- a layer: both layer norms' columns, each A_k, the masks, the attention
  output, the ISTA residual (each normalized input and softmax S_k is
  re-formed, and the head stack where a weight's term reads it; the ReLU
  gate is read off the output), shared with its weights-only twin;
- R_c: each head's U_k^T Z.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .linalg import _softmax, cross_entropy_np

__all__ = [
    "Tensor",
    "as_tensor",
    "softmax_cols",
    "layer_norm_cols",
    "logdet_gram",
    "softmax_cross_entropy",
]

LN_EPS = 1e-6  # variance floor of both layer norms
_PRODUCT_BYTES = 2 << 20  # per-sample products one weight-gradient sum forms at once


def _ln_stats(x: np.ndarray, out: np.ndarray | None = None, sq: np.ndarray | None = None):
    """Both layer norms' (x - mu into ``out``, mean column mu, std column sqrt(var + LN_EPS)) over
    the features (axis -2) of x, with the squares in ``sq``; fresh arrays when None."""
    mu = x.mean(axis=-2, keepdims=True)
    xc = np.subtract(x, mu, out=out)
    var = np.multiply(xc, xc, out=sq).mean(axis=-2, keepdims=True)
    var[np.isinf(var)] = np.nan  # an overflowed variance would scale its column to zeros
    var += LN_EPS
    return xc, mu, np.sqrt(var, out=var)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _matmul_sum(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``_unbroadcast(a @ b, shape)``, bit for bit.  Two (B, ., .) stacks
    whose products sum to one matrix take at most ``_PRODUCT_BYTES`` of
    products at once: numpy sums axis 0 of a stack in order, so a reduce
    over the first products and ``+=`` of each later one add the same terms
    in the same order."""
    if not (a.ndim == b.ndim == 3 and len(a) == len(b) and shape == (a.shape[1], b.shape[2])):
        return _unbroadcast(a @ b, shape)
    n = max(1, _PRODUCT_BYTES // (8 * shape[0] * shape[1]))
    total = np.add.reduce(a[:n] @ b[:n], axis=0)
    for i in range(n, len(a)):
        total += a[i] @ b[i]
    return total


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_sum")

    # keep numpy from hijacking `ndarray op Tensor`
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # constants do not need a tape
        self._parents = _parents if self.requires_grad else ()
        self._vjp = _vjp if self.requires_grad else None
        self._sum = None  # the sum this walk made and owns, when .grad is it

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g
        elif self.grad is self._sum:
            self.grad += g
        else:
            self.grad = self._sum = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        self.grad = None
        _walk(self, np.ones_like(self.data))

    # ------------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = as_tensor(other)
        return _node(self.data + other.data, (self, other), (None, None))

    def __sub__(self, other):
        other = as_tensor(other)
        return _node(self.data - other.data, (self, other), (None, np.negative))

    def __mul__(self, other):
        other = as_tensor(other)
        return _node(self.data * other.data, (self, other), (lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        return _node(
            self.data @ other.data,
            (self, other),
            (
                lambda g: _matmul_sum(g, np.swapaxes(other.data, -1, -2), self.data.shape),
                lambda g: _matmul_sum(np.swapaxes(self.data, -1, -2), g, other.data.shape),
            ),
        )

    # ------------------------------------------------------------------ shape ops
    def __getitem__(self, idx) -> "Tensor":
        def scatter(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            return full

        return _node(self.data[idx], (self,), (scatter,))

    # ------------------------------------------------------------------ reductions
    def sum(self) -> "Tensor":
        return _node(self.data.sum(), (self,), (lambda g: np.broadcast_to(g, self.data.shape).copy(),))

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(value, parents: tuple, maps: tuple, prep=None) -> Tensor:
    """The tensor ``value`` computed from ``parents``.  Its VJP turns the
    cotangent g into ``c = prep(g)`` (g itself without ``prep``), then
    routes c into each parent that requires grad, in parent order, as
    ``map(c)`` summed down to that parent's shape (a map of None passes c
    on as it is); the map of a parent that needs no gradient is never
    called.  c is a local of the one VJP call, so no walk sees another's."""
    def vjp(g):
        c = g if prep is None else prep(g)
        for parent, grad_map in zip(parents, maps):
            if parent.requires_grad:
                parent._accumulate(_unbroadcast(c if grad_map is None else grad_map(c), parent.data.shape))

    return Tensor(value, _parents=parents, _vjp=vjp)


def _walk(root: Tensor, g: np.ndarray) -> None:
    """Accumulate ``g`` into ``root``, then run the VJP of every node behind
    it in reverse topological order.  The walk stops at nodes that need no
    gradient (constants).  Each interior node's ``.grad`` is dropped once
    its VJP has run, so a cotangent lives only until its node's parents
    have their terms; leaves keep theirs.  Every node forgets the sum it
    owns once all its terms are in.
    """
    root._accumulate(g)
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    for node in reversed(order):
        if node._vjp is not None:
            node._vjp(node.grad)
            node.grad = None
        node._sum = None


def softmax_cols(scores: Tensor) -> Tensor:
    """Softmax over axis -2 (column-normalized), fused forward/backward."""
    sm = _softmax(scores.data, -2)
    return _node(sm, (scores,), (lambda g: _softmax_cols_vjp(sm, g),))


def _softmax_cols_vjp(sm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The scores' cotangent of a column softmax ``sm``, given its cotangent g.
    Reads either layout, C-ordered stacks or the attention heads' views of
    (N, …, N) buffers; with g in sm's layout every temporary keeps it."""
    inner = (g * sm).sum(axis=-2, keepdims=True)
    return sm * (g - inner)


def layer_norm_cols(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-column layer normalization with learned gain/bias over features.

    Normalizes each column (axis -2 is the feature axis) to zero mean and
    unit variance, with ``LN_EPS`` added to the variance for stability.
    ``gain`` and ``bias`` are feature vectors of length d.  The node keeps
    the mean and 1/std columns; its VJP re-forms x-hat from the input.
    """
    gain, bias = as_tensor(gain), as_tensor(bias)
    out, mu, inv = _ln_forward(x.data, gain.data, bias.data)
    return _node(out, (x, gain, bias), _ln_maps(gain.data, inv, x.data.ndim), lambda g: (g, _ln_xhat(x.data, mu, inv)))


def _ln_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """The forward of every Tensor layer norm, on ndarrays: (output, mean column, 1/std column)."""
    xc, mu, std = _ln_stats(x)  # x - mu, then x-hat, then the output
    inv = np.divide(1.0, std, out=std)
    xc *= inv
    return _ln_output(xc, gain, bias, out=xc), mu, inv


def _ln_xhat(x: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x-hat of a layer norm's input x, re-formed from its mean and 1/std columns."""
    xhat = x - mu
    xhat *= inv
    return xhat


def _ln_output(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x-hat * gain + bias, per feature row: both layer norms' output, into ``out`` (fresh when None)."""
    d = xhat.shape[-2]
    out = np.multiply(xhat, gain.reshape((d, 1)), out=out)
    out += bias.reshape((d, 1))
    return out


def _ln_maps(gain: np.ndarray, inv: np.ndarray, ndim: int) -> tuple:
    """The VJP of every Tensor layer norm: its maps to (input, gain, bias),
    each reading the pair (g, x-hat) of the output's cotangent and x-hat."""
    gcol = gain.reshape((len(gain), 1))
    cols = (0, -1) if ndim == 3 else -1  # the batch and token axes

    def grad_x(c):
        g, xhat = c
        gx = g * gcol
        term1 = gx.mean(axis=-2, keepdims=True)
        tmp = gx * xhat
        term2 = tmp.mean(axis=-2, keepdims=True)
        gx -= term1
        gx -= np.multiply(xhat, term2, out=tmp)
        gx *= inv
        return gx

    return grad_x, lambda c: (c[0] * c[1]).sum(axis=cols), lambda c: c[0].sum(axis=cols)


def logdet_gram(z: Tensor, scale: float) -> Tensor:
    """1/2 logdet(I + scale * z^T z) per matrix in a stack, not finite past float64 range.

    ``z`` has shape (..., d, N); the result has the leading batch shape.
    """
    value, grad = _gram_volume(z.data, scale)
    return _node(value, (z,), (grad,))


def _gram_volume(z: np.ndarray, scale: float):
    """``logdet_gram`` of the ndarray ``z``: (value, map from its cotangent
    g to z's).  The Gram matrix is formed on the smaller side and factored
    by Cholesky.  The map re-forms I + scale * Gram from z and uses

      d/dz 1/2 logdet(I + s z^T z) = s * z (I + s z^T z)^{-1}
                                   = s * (I + s z z^T)^{-1} z,

    solved on whichever side is smaller.  A matrix past float64 range has a
    non-finite log-volume (NaN for a stack that Cholesky cannot factor).
    """
    use_cols = z.shape[-1] <= z.shape[-2]
    try:
        chol = np.linalg.cholesky(_volume_matrix(z, scale, use_cols))
        value = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    except np.linalg.LinAlgError:
        value = np.full(z.shape[:-2], np.nan)

    def grad(g):
        M = _volume_matrix(z, scale, use_cols)
        if use_cols:
            # z @ M^{-1}: solve M X = z^T then transpose
            sol = np.linalg.solve(M, np.swapaxes(z, -1, -2))
            dz = scale * np.swapaxes(sol, -1, -2)
        else:
            dz = scale * np.linalg.solve(M, z)
        return np.asarray(g)[..., None, None] * dz

    return value, grad


def _volume_matrix(z: np.ndarray, scale: float, use_cols: bool) -> np.ndarray:
    """I + scale * Gram of z, the Gram z^T z when ``use_cols``, else z z^T."""
    gram = np.swapaxes(z, -1, -2) @ z if use_cols else z @ np.swapaxes(z, -1, -2)
    gram *= scale
    gram += np.eye(gram.shape[-1])
    return gram


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels under row-wise softmax.

    ``logits`` is (B, C), checked by ``cross_entropy_np``; the fused backward is (softmax - onehot) / B.
    """

    def grad(g):
        probs = _softmax(logits.data, 1)
        probs[np.arange(len(probs)), labels] -= 1.0
        return float(g) * probs / len(probs)

    return _node(cross_entropy_np(logits.data, labels), (logits,), (grad,))
