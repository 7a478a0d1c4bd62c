"""Minimal reverse-mode automatic differentiation over float64 ndarrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates vector-Jacobian products into ``.grad`` of every tensor that
requires gradients.  Only the operations the models actually use are
implemented, several of them fused (softmax over columns, layer norm over
columns, the log-det Gram volume, softmax cross-entropy) so their backward
passes are both fast and numerically tight.

Broadcasting follows numpy; gradients flowing into a broadcast operand are
summed back down to its original shape.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .linalg import _softmax, cross_entropy_np

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "softmax_cols",
    "layer_norm_cols",
    "logdet_gram",
    "softmax_cross_entropy",
    "numeric_grad",
]

LN_EPS = 1e-6  # variance floor of both layer norms


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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    # keep numpy from hijacking `ndarray op Tensor`
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # constants do not need a tape
        self._parents = _parents if self.requires_grad else ()
        self._vjp = _vjp if self.requires_grad else None

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same values cut off from the tape (stop-gradient)."""
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is not None:
                node._vjp(node.grad)

    # ------------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = as_tensor(other)

        def vjp(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _vjp=vjp)

    __radd__ = __add__

    def __neg__(self):
        def vjp(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor(-self.data, _parents=(self,), _vjp=vjp)

    def __sub__(self, other):
        other = as_tensor(other)

        def vjp(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return Tensor(self.data - other.data, _parents=(self, other), _vjp=vjp)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)

        def vjp(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, _parents=(self, other), _vjp=vjp)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def vjp(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.data.shape))

        return Tensor(a.data @ b.data, _parents=(a, b), _vjp=vjp)

    def __rmatmul__(self, other):
        return as_tensor(other) @ self

    # ------------------------------------------------------------------ shape ops
    @property
    def mT(self) -> "Tensor":
        """Transpose of the last two axes."""
        def vjp(g):
            if self.requires_grad:
                self._accumulate(np.swapaxes(g, -1, -2))

        return Tensor(np.swapaxes(self.data, -1, -2), _parents=(self,), _vjp=vjp)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def vjp(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _vjp=vjp)

    def __getitem__(self, idx) -> "Tensor":
        def vjp(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[idx] = g
                self._accumulate(full)

        return Tensor(self.data[idx], _parents=(self,), _vjp=vjp)

    def broadcast_to(self, shape) -> "Tensor":
        def vjp(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))

        return Tensor(np.broadcast_to(self.data, shape), _parents=(self,), _vjp=vjp)

    # ------------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def vjp(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _vjp=vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ nonlinearities
    def relu(self) -> "Tensor":
        def vjp(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        return Tensor(np.maximum(self.data, 0.0), _parents=(self,), _vjp=vjp)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradients are split back by size."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), _parents=tuple(tensors), _vjp=vjp)


def softmax_cols(scores: Tensor) -> Tensor:
    """Softmax over axis -2 (column-normalized), fused forward/backward."""
    sm = _softmax(scores.data, -2)

    def vjp(g):
        if scores.requires_grad:
            inner = (g * sm).sum(axis=-2, keepdims=True)
            scores._accumulate(sm * (g - inner))

    return Tensor(sm, _parents=(scores,), _vjp=vjp)


def layer_norm_cols(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-column layer normalization with learned gain/bias over features.

    Normalizes each column (axis -2 is the feature axis) to zero mean and
    unit variance, with ``LN_EPS`` added to the variance for stability.
    ``gain`` and ``bias`` are feature vectors of length d.
    """
    gain = as_tensor(gain)
    bias = as_tensor(bias)
    d = x.data.shape[-2]
    gcol = gain.data.reshape((d, 1))
    mu = x.data.mean(axis=-2, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-2, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv

    def vjp(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=(0, -1)) if g.ndim == 3 else (g * xhat).sum(axis=-1))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, -1)) if g.ndim == 3 else g.sum(axis=-1))
        if x.requires_grad:
            gx = g * gcol
            term1 = gx.mean(axis=-2, keepdims=True)
            term2 = (gx * xhat).mean(axis=-2, keepdims=True)
            x._accumulate(inv * (gx - term1 - xhat * term2))

    return Tensor(gcol * xhat + bias.data.reshape((d, 1)), _parents=(x, gain, bias), _vjp=vjp)


def logdet_gram(z: Tensor, scale: float) -> Tensor:
    """1/2 logdet(I + scale * z^T z) per matrix in a stack.

    ``z`` has shape (..., d, N); the result has the leading batch shape.
    Internally the Gram matrix is formed on the smaller side and factored
    by Cholesky.  The backward pass uses

      d/dz 1/2 logdet(I + s z^T z) = s * z (I + s z^T z)^{-1}
                                   = s * (I + s z z^T)^{-1} z,

    solved on whichever side is smaller.
    """
    d, N = z.data.shape[-2], z.data.shape[-1]
    use_cols = N <= d
    if use_cols:
        gram = np.swapaxes(z.data, -1, -2) @ z.data
    else:
        gram = z.data @ np.swapaxes(z.data, -1, -2)
    m = gram.shape[-1]
    M = np.eye(m) + scale * gram
    try:
        chol = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError("Gram log-volume: matrix lost positive definiteness") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1)

    def vjp(g):
        if not z.requires_grad:
            return
        if use_cols:
            # z @ M^{-1}: solve M X = z^T then transpose
            sol = np.linalg.solve(M, np.swapaxes(z.data, -1, -2))
            dz = scale * np.swapaxes(sol, -1, -2)
        else:
            dz = scale * np.linalg.solve(M, z.data)
        z._accumulate(np.asarray(g)[..., None, None] * dz)

    return Tensor(np.log(diag).sum(axis=-1), _parents=(z,), _vjp=vjp)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels under row-wise softmax.

    ``logits`` is (B, C); the fused backward is (softmax - onehot) / B.
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross-entropy expects a (batch, classes) logit matrix")
    labels = np.asarray(labels)
    B = logits.data.shape[0]

    def vjp(g):
        if logits.requires_grad:
            probs = _softmax(logits.data, 1)
            probs[np.arange(B), labels] -= 1.0
            logits._accumulate(float(g) * probs / B)

    return Tensor(cross_entropy_np(logits.data, labels), _parents=(logits,), _vjp=vjp)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry.

    Slow; intended for verifying analytic gradients on small problems.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad
