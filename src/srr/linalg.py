"""Dense linear-algebra kernels used everywhere else in the package.

All routines operate on float64 ndarrays and are deterministic: given the
same inputs (and, where relevant, the same seed) they return bitwise
identical results on a fixed platform/numpy build.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError, DefinitenessError, NumericError, ShapeError

__all__ = [
    "logdet_psd",
    "softmax_columns",
    "spectral_norm",
    "orthonormal_basis",
    "rng_for",
    "stable_seed",
]


def logdet_psd(mat: np.ndarray) -> float:
    """log det of a symmetric positive definite matrix via Cholesky.

    Uses ``2 * sum(log(diag(L)))`` with ``L`` the lower Cholesky factor,
    which is far better conditioned than forming the determinant.

    Raises ShapeError for non-square input, DefinitenessError when the
    matrix is asymmetric beyond 1e-10 or the factorization fails.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError("matrix contains non-finite entries")
    asym = np.abs(mat - mat.T).max() if mat.size else 0.0
    if asym > 1e-10:
        raise DefinitenessError(f"matrix is not symmetric (max|M - M^T| = {asym:.3e})")
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Column-wise softmax (normalizes over axis -2).

    The column maximum is subtracted before exponentiation so large scores
    do not overflow.  Works on stacks of matrices: the last two axes are
    treated as the matrix.  Non-finite scores raise NumericError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 2:
        raise ShapeError("softmax_columns expects at least a 2-d array")
    if not np.isfinite(scores).all():
        raise NumericError("scores contain non-finite entries")
    return _softmax(scores, -2)


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along ``axis`` with the maximum subtracted first, into ``out``
    (a new array when None; may be ``x``), by numpy's own reductions.  No
    input checks: non-finite values pass through, for the reader to flag."""
    expd = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(expd, out=expd)
    expd /= np.add.reduce(expd, axis=axis, keepdims=True)
    return expd


def cross_entropy_np(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of one integer label in [0, C) per row (else a
    ShapeError or ConfigError) under row-wise softmax of a (B, C) logit
    matrix.  Never negative, which the PAC-Bayes early exit relies on: the
    shifted maximum is exactly 0, so each row's lse is >= 0."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ShapeError(f"expected one label per row of a (B, C) logit matrix, got {labels.shape}, {logits.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < logits.shape[1]:
        raise ConfigError(f"labels must lie in [0, {logits.shape[1]}), got {labels.min()} to {labels.max()}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


def spectral_norm(mat: np.ndarray) -> np.float64:
    """Largest singular value of a matrix (ShapeError for any other rank) by
    power iteration on its smaller Gram (500 steps at most, stopping once a
    step after the first moves it by <= 1e-12 relative).

    A matrix whose largest entry lies outside [2^-10, 2^200] is iterated on
    scaled by an exact power of two that brings that entry into [0.5, 1), so
    its Gram neither overflows nor underflows the stop test.  The start
    vector is a fixed seeded Gaussian, so repeated calls on the same matrix
    give the same value; should it lie in the Gram's null space, numpy's
    ``norm(mat, 2)`` gives the value.  A zero matrix returns 0.0.  The result
    is a numpy float64, so squaring a norm past 1e154 gives inf rather than
    OverflowError.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError("matrix contains non-finite entries")
    peak = np.abs(mat).max(initial=0.0)
    if peak == 0.0:
        return np.float64(0.0)
    exp = 0
    if not 2.0**-10 <= peak <= 2.0**200:
        exp = int(np.frexp(peak)[1])
        mat = np.ldexp(mat, -exp)
    # iterate on the smaller of M^T M / M M^T
    gram = mat.T @ mat if mat.shape[1] <= mat.shape[0] else mat @ mat.T
    n = gram.shape[0]
    vec = np.random.default_rng(0xC0FFEE).standard_normal(n)
    vec /= np.linalg.norm(vec)
    prev = np.nan  # the first step may only shed the start vector's null-space part
    for _ in range(500):
        vec = gram @ vec
        norm = np.linalg.norm(vec)
        if norm == 0.0:  # the start vector lies in the null space
            return np.ldexp(np.linalg.norm(mat, 2), exp)
        vec /= norm
        if abs(norm - prev) <= 1e-12 * max(1.0, norm):
            break
        prev = norm
    return np.ldexp(np.sqrt(float(vec @ (gram @ vec))), exp)


def orthonormal_basis(d: int, seed: int, cols: int | None = None) -> np.ndarray:
    """Deterministic random orthonormal matrix of shape (d, cols).

    QR of a seeded Gaussian with the sign of each R diagonal entry folded
    into Q, which makes the factorization unique and hence reproducible.
    """
    if d <= 0:
        raise ShapeError("dimension must be positive")
    cols = d if cols is None else cols
    if cols > d:
        raise ShapeError("cannot request more orthonormal columns than rows")
    gauss = rng_for(seed).standard_normal((d, cols))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def stable_seed(*parts) -> int:
    """Collapse a tuple of ints/strings into a stable 63-bit seed.

    Used to derive independent named streams (one per zoo cell, per layer,
    per epoch, ...) from a single global seed without collisions.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def rng_for(*parts) -> np.random.Generator:
    """A fresh Generator keyed by the given seed parts."""
    if len(parts) == 1 and isinstance(parts[0], (int, np.integer)):
        return np.random.default_rng(int(parts[0]))
    return np.random.default_rng(stable_seed(*parts))
