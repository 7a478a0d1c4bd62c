"""Layer-update dynamics on random Gaussian tokens.

Six update rules are iterated for L layers, each layer drawing a fresh
random orthonormal basis U^l, and the subspace coding rate R_c is recorded
against that same U^l before and after the update:

  a: exact gradient descent on R_c
  b: descent on the two-term expansion of R_c (first + second)
  c: descent on the first-order term alone
  d: descent on the second-order term alone (a cubic ascent in disguise)
  e: the softmax attention update (positive residual)
  n: the sign-flipped softmax update (negative residual)

Rules b/d cube the token magnitudes every layer, which leaves float64
range almost immediately.  The state is therefore carried as a normalized
matrix plus a log-scale (Z = exp(c) * Zhat), updates for b/d are formed
directly in the normalized variables, and R_c is evaluated from per-head
singular values in the log domain.  When even the *shape* of the spectrum
stops being representable (dynamic range beyond ~1e95, so the cubed
spectrum would underflow), the trace is truncated and flagged rather than
reporting silently wrong rates — growth is the expected phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .layers import mssa
from .linalg import orthonormal_basis, rng_for, stable_seed
from .rates import grad_projected_coding_rate, grad_taylor_terms, split_heads

__all__ = [
    "RULES",
    "DynamicsTrace",
    "LayerRates",
    "run_dynamics",
    "traces_to_csv",
]

# short tag -> canonical rule name
RULES = {
    "a": "A_exact_gd",
    "b": "B_taylor_gd",
    "c": "C_first_only",
    "d": "D_second_only",
    "e": "E_softmax",
    "n": "N_negative",
}

_RECON_LOG_LIMIT = 700.0  # exp() beyond this leaves float64 range
_SPREAD_FLOOR = 1e-95  # min/max singular-value ratio the cubic rules require


@dataclass
class LayerRates:
    layer: int
    rc_before: float
    rc_after: float


@dataclass
class DynamicsTrace:
    rule: str
    rows: list[LayerRates] = field(default_factory=list)
    truncated: bool = False


def _normalize(Z: np.ndarray) -> tuple[np.ndarray, float]:
    m = float(np.abs(Z).max())
    if m == 0.0:
        return np.zeros_like(Z), 0.0
    return Z / m, float(np.log(m))


def _rc_scaled(Zh: np.ndarray, c: float, blocks, gamma: float) -> float:
    """R_c of exp(c) * Zh: 1/2 sum log(1 + gamma s_i^2) per head, with the
    squared singular values kept in the log domain."""
    lg = float(np.log(gamma))
    total = 0.0
    for Uk in blocks:
        s = np.linalg.svd(Uk.T @ Zh, compute_uv=False)
        s = s[s > 0.0]
        if s.size:
            t = lg + 2.0 * (c + np.log(s))
            total += 0.5 * float(np.sum(np.logaddexp(0.0, t)))
    return total


def _spread_ok(Zh: np.ndarray) -> bool:
    s = np.linalg.svd(Zh, compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return True  # zero state stays zero; nothing to misrepresent
    smin = s[s > 0.0].min()
    if s.min() <= 0.0:
        return False  # underflowed directions already lost
    return smin / smax > _SPREAD_FLOOR


def run_dynamics(
    rule: str,
    N: int = 32,
    L: int = 12,
    d: int = 64,
    K: int = 4,
    alpha: float = 1.0,
    gamma: float = 1.0,
    seed: int = 0,
) -> DynamicsTrace:
    """Iterate one update rule for L layers and record R_c before/after
    each layer against that layer's own fresh orthonormal basis."""
    tag = rule.lower()
    if tag not in RULES:
        canon = {v.lower(): k for k, v in RULES.items()}
        if tag in canon:
            tag = canon[tag]
        else:
            raise ConfigError(f"unknown dynamics rule {rule!r}")
    if d % K != 0:
        raise ConfigError(f"d = {d} must be divisible by K = {K}")

    Z0 = rng_for(seed, "tokens").standard_normal((d, N))
    Zh, c = _normalize(Z0)
    trace = DynamicsTrace(rule=tag)

    for layer in range(1, L + 1):
        U = orthonormal_basis(d, stable_seed(seed, "basis", layer))
        blocks = split_heads(U, K)

        if tag in ("b", "d"):
            if not _spread_ok(Zh):
                trace.truncated = True
                break
            rc_before = _rc_scaled(Zh, c, blocks, gamma)
            # unit-scale Taylor gradients: g1 the head projection sum, -g2 the cubic sum
            g1, g2 = grad_taylor_terms(Zh, U, K, 1.0)
            damp = np.exp(-2.0 * c) if -2.0 * c < _RECON_LOG_LIMIT else np.inf
            if not np.isfinite(damp):
                trace.truncated = True
                break
            if tag == "b":
                bracket = -(alpha * gamma**2) * g2 + damp * (Zh - alpha * gamma * g1)
            else:
                bracket = -(alpha * gamma**2) * g2 + damp * Zh
            bh, blog = _normalize(bracket)
            Zh, c = bh, 3.0 * c + blog
            rc_after = _rc_scaled(Zh, c, blocks, gamma)
        else:
            if c > _RECON_LOG_LIMIT:
                trace.truncated = True
                break
            rc_before = _rc_scaled(Zh, c, blocks, gamma)
            Z = np.exp(c) * Zh
            if tag == "a":
                Z = Z - alpha * grad_projected_coding_rate(Z, U, K, gamma)
            elif tag == "c":
                g1, _ = grad_taylor_terms(Z, U, K, gamma)
                Z = Z - alpha * g1
            elif tag == "e":
                Z = Z + alpha * gamma**2 * mssa(Z, U, K)
            else:  # n
                Z = Z - alpha * gamma**2 * mssa(Z, U, K)
            Zh, c = _normalize(Z)
            rc_after = _rc_scaled(Zh, c, blocks, gamma)

        trace.rows.append(LayerRates(layer=layer, rc_before=rc_before, rc_after=rc_after))

    return trace


def traces_to_csv(traces) -> str:
    lines = ["rule,layer,rc_before,rc_after"]
    for tr in traces:
        for row in tr.rows:
            lines.append(f"{tr.rule},{row.layer},{row.rc_before!r},{row.rc_after!r}")
    return "\n".join(lines) + "\n"
