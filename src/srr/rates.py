"""Coding-rate functionals: the objective the unrolled layers optimize.

For a token matrix Z (d x N, tokens as columns):

  R(Z)        = 1/2 logdet(I + scale * Z^T Z)      (lossy coding rate)
  R_c(Z; U)   = sum_k R_gamma(U_k^T Z)             (rate against K subspaces)
  ||Z||_0     = number of entries with |z| > tol

The sparse-rate-reduction layer measure combines the three:

  mu(Z; U) = lambda * ||Z||_0 + R_c(Z; U) - R(Z)

Gradients and the two-term expansion of R_c are provided in closed form;
training does not go through these (it uses reverse-mode differentiation),
so they double as independent oracles.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .errors import COUNT, NONNEGATIVE, POSITIVE, ConfigError, NumericError, ShapeError, check_fields, check_value, rule
from .linalg import logdet_psd

__all__ = [
    "RateConfig",
    "L0_TOL",
    "split_heads",
    "coding_rate",
    "projected_coding_rate",
    "grad_projected_coding_rate",
    "taylor_terms",
    "grad_taylor_terms",
    "sparsity_l0",
    "srr_layer_measure",
]

# entries at or below this magnitude count as zero for the l0 pseudo-norm
L0_TOL = 1e-8


@dataclass(frozen=True)
class RateConfig:
    """Dimensional bookkeeping for rate computations.

    ``gamma`` (the per-subspace scale p / (N eps_sq)) and ``full_scale``
    (the ambient scale d / (N eps_sq)) are derived on access so they can
    never go stale when a field changes.
    """

    d: int = rule(MISSING, COUNT)
    N: int = rule(MISSING, COUNT)
    K: int = rule(MISSING, COUNT)
    eps_sq: float = rule(0.5, POSITIVE)
    lambda_sparsity: float = rule(0.1, NONNEGATIVE)

    def __post_init__(self):
        check_fields(self)
        if self.d % self.K != 0:
            raise ConfigError(f"d = {self.d} is not divisible by K = {self.K} heads")

    @property
    def p(self) -> int:
        return self.d // self.K

    @property
    def gamma(self) -> float:
        return self.p / (self.N * self.eps_sq)

    @property
    def full_scale(self) -> float:
        return self.d / (self.N * self.eps_sq)


def split_heads(U, num_heads: int) -> list:
    """Views of the K contiguous column blocks U_1..U_K of U (d x K*p), an
    ndarray or an autodiff Tensor."""
    num_heads = check_value("num_heads", num_heads, COUNT)
    if U.ndim != 2:
        raise ShapeError(f"subspace basis must be a matrix, got shape {U.shape}")
    if U.shape[1] % num_heads != 0:
        raise ShapeError(f"{U.shape[1]} basis columns do not split into {num_heads} heads")
    p = U.shape[1] // num_heads
    return [U[:, k * p : (k + 1) * p] for k in range(num_heads)]


def _check_tokens(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ShapeError(f"token matrix must be 2-d, got shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise NumericError("token matrix contains non-finite entries")
    return Z


def coding_rate(Z: np.ndarray, scale: float) -> float:
    """1/2 logdet(I + scale * Z^T Z).

    The Gram matrix is formed on the smaller side (Z^T Z or Z Z^T, whichever
    is smaller) — the two determinants are equal, and this keeps the
    factorization cheap for wide or tall matrices.
    """
    Z = _check_tokens(Z)
    if scale <= 0:
        raise ConfigError("scale must be positive")
    d, N = Z.shape
    gram = Z.T @ Z if N <= d else Z @ Z.T
    eye = np.eye(gram.shape[0])
    return 0.5 * logdet_psd(eye + scale * gram)


def projected_coding_rate(Z: np.ndarray, U: np.ndarray, num_heads: int, gamma: float) -> float:
    """R_c(Z; U) = sum over heads of the rate of the projected tokens U_k^T Z."""
    Z = _check_tokens(Z)
    total = 0.0
    for Uk in split_heads(U, num_heads):
        total += coding_rate(Uk.T @ Z, gamma)
    return total


def grad_projected_coding_rate(
    Z: np.ndarray, U: np.ndarray, num_heads: int, gamma: float
) -> np.ndarray:
    """Exact gradient of R_c with respect to Z.

    d/dZ sum_k 1/2 logdet(I + gamma A_k^T A_k)   with A_k = U_k^T Z
      = gamma * sum_k U_k A_k (I + gamma A_k^T A_k)^{-1}

    The inverse is applied through a linear solve on the smaller side of
    the push-through identity A (I + g A^T A)^{-1} = (I + g A A^T)^{-1} A.
    """
    Z = _check_tokens(Z)
    grad = np.zeros_like(Z)
    N = Z.shape[1]
    for Uk in split_heads(U, num_heads):
        A = Uk.T @ Z
        p = A.shape[0]
        if p <= N:
            M = np.eye(p) + gamma * (A @ A.T)
            X = np.linalg.solve(M, A)
        else:
            M = np.eye(N) + gamma * (A.T @ A)
            X = np.linalg.solve(M, A.T).T
        grad += gamma * (Uk @ X)
    return grad


def taylor_terms(Z: np.ndarray, U: np.ndarray, num_heads: int, gamma: float) -> tuple[float, float]:
    """First- and second-order terms of log det expanded around zero Gram.

    first  =  sum_k (gamma / 2)   ||U_k^T Z||_F^2
    second = -sum_k (gamma^2 / 4) ||(U_k^T Z)^T U_k^T Z||_F^2

    Their sum lower-bounds R_c(Z; U) for every Z because
    log(1 + x) >= x - x^2/2 for all x >= 0.
    """
    Z = _check_tokens(Z)
    first = 0.0
    second = 0.0
    for Uk in split_heads(U, num_heads):
        A = Uk.T @ Z
        first += 0.5 * gamma * float(np.sum(A * A))
        G = A.T @ A
        second -= 0.25 * gamma**2 * float(np.sum(G * G))
    return first, second


def grad_taylor_terms(
    Z: np.ndarray, U: np.ndarray, num_heads: int, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the two expansion terms with respect to Z.

    d(first)/dZ  =  gamma   * sum_k U_k U_k^T Z
    d(second)/dZ = -gamma^2 * sum_k U_k U_k^T Z (U_k^T Z)^T (U_k^T Z)
    """
    Z = _check_tokens(Z)
    blocks = split_heads(U, num_heads)
    return _grad_first_order(Z, blocks, gamma), _grad_second_order(Z, blocks, gamma)


def _grad_first_order(Z: np.ndarray, blocks, gamma: float) -> np.ndarray:
    """gamma * sum_k U_k U_k^T Z over the head bases ``blocks``, unchecked."""
    g1 = np.zeros_like(Z)
    for Uk in blocks:
        g1 += gamma * (Uk @ (Uk.T @ Z))
    return g1


def _grad_second_order(Z: np.ndarray, blocks, gamma: float) -> np.ndarray:
    """-gamma^2 * sum_k U_k A_k A_k^T A_k with A_k = U_k^T Z, unchecked."""
    g2 = np.zeros_like(Z)
    for Uk in blocks:
        A = Uk.T @ Z
        g2 -= gamma**2 * (Uk @ (A @ (A.T @ A)))
    return g2


def sparsity_l0(Z: np.ndarray) -> int:
    """Entries whose magnitude strictly exceeds ``L0_TOL``."""
    Z = np.asarray(Z, dtype=np.float64)
    if not np.isfinite(Z).all():
        raise NumericError("token matrix contains non-finite entries")
    return int(np.count_nonzero(np.abs(Z) > L0_TOL))


def srr_layer_measure(Z: np.ndarray, U: np.ndarray, cfg: RateConfig) -> float:
    """Sparse-rate-reduction measure of one representation against its basis.

    lambda * ||Z||_0 + R_c(Z; U) - R(Z), with the subspace rate at scale
    ``cfg.gamma`` and the ambient rate at scale ``cfg.full_scale``.
    Lower is better: a representation that is sparse, compresses well
    against the subspaces, and still spans a large ambient volume.
    """
    Z = _check_tokens(Z)
    if Z.shape[0] != cfg.d:
        raise ShapeError(f"token dimension {Z.shape[0]} does not match config d = {cfg.d}")
    rc = projected_coding_rate(Z, U, cfg.K, cfg.gamma)
    r = coding_rate(Z, cfg.full_scale)
    return cfg.lambda_sparsity * sparsity_l0(Z) + rc - r
