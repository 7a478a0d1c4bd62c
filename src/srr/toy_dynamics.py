"""Layer-update dynamics on random Gaussian tokens.

Six update rules (the tags of ``RULES``) are iterated for L layers, each
layer drawing a fresh random orthonormal basis U^l, and the subspace coding
rate R_c is recorded against that same U^l before and after the update:

  a: exact gradient descent on R_c
  b: descent on the two-term expansion of R_c (first + second)
  c: descent on the first-order term alone
  d: descent on the second-order term alone (a cubic ascent in disguise)
  e: the softmax attention update (positive residual)
  n: the sign-flipped softmax update (negative residual)

Rules b/d cube the token magnitudes every layer, which leaves float64
range almost immediately.  The state is therefore carried as a normalized
matrix plus a log-scale (Z = exp(c) * Zhat), and R_c is evaluated from
per-head singular values in the log domain.  Every layer checks that its
state is representable, then updates it: b/d in the normalized variables,
so a trace stops when the *shape* of the spectrum is lost (dynamic range
beyond ~1e95, so the cubed spectrum would underflow), and a/c/e/n at the
true scale, so a trace stops when exp(c) would overflow.  Either way, and
when an update leaves float64 range (gamma**2 included), the trace is
truncated and flagged, with the rows before it kept, rather than
reporting silently wrong rates — growth is the expected phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import COUNT, FINITE, INT, POSITIVE, ConfigError, check_value, one_of
from .layers import mssa
from .linalg import orthonormal_basis, rng_for, stable_seed
from .rates import _grad_first_order, _grad_second_order, grad_projected_coding_rate, split_heads

__all__ = [
    "RULES",
    "DynamicsTrace",
    "LayerRates",
    "run_dynamics",
    "traces_to_csv",
]

RULES = ("a", "b", "c", "d", "e", "n")

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
    """Iterate the rule tagged ``rule`` (one of ``RULES``) for L layers and
    record R_c before/after each layer against that layer's own fresh basis."""
    tag = check_value("rule", rule, one_of(*RULES))
    for name, value, r in (("N", N, COUNT), ("L", L, COUNT), ("d", d, COUNT), ("K", K, COUNT),
                           ("alpha", alpha, FINITE), ("gamma", gamma, POSITIVE), ("seed", seed, INT)):
        check_value(name, value, r)
    if d % K != 0:
        raise ConfigError(f"d = {d} must be divisible by K = {K}")

    try:
        step2 = alpha * gamma**2  # the step size of rules b, d, e and n
    except OverflowError:  # gamma**2 left float64 range: the first such update ends the trace
        step2 = alpha * np.inf

    Z0 = rng_for(seed, "tokens").standard_normal((d, N))
    Zh, c = _normalize(Z0)
    trace = DynamicsTrace(rule=tag)
    cubic = tag in ("b", "d")

    for layer in range(1, L + 1):
        U = orthonormal_basis(d, stable_seed(seed, "basis", layer))
        blocks = split_heads(U, K)
        if (not _spread_ok(Zh)) if cubic else c > _RECON_LOG_LIMIT:
            trace.truncated = True
            break
        rc_before = _rc_scaled(Zh, c, blocks, gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if cubic:  # formed in the normalized variables, from unit-scale Taylor gradients
                    damp = np.exp(-2.0 * c) if -2.0 * c < _RECON_LOG_LIMIT else np.inf
                    keep = Zh - alpha * gamma * _grad_first_order(Zh, blocks, 1.0) if tag == "b" else Zh
                    Z = -step2 * _grad_second_order(Zh, blocks, 1.0) + damp * keep
                else:
                    Z = np.exp(c) * Zh
                    if tag == "a":
                        Z = Z - alpha * grad_projected_coding_rate(Z, U, K, gamma)
                    elif tag == "c":
                        Z = Z - alpha * _grad_first_order(Z, blocks, gamma)
                    else:  # e, or n with its residual negated (Z + (-x) is Z - x, bit for bit)
                        Z = Z + (step2 if tag == "e" else -step2) * mssa(Z, U, K)
            except np.linalg.LinAlgError:
                Z = None  # rule a's solve met a Gram matrix out of float64 range
        if Z is None or not np.isfinite(Z).all():  # the update (or b/d's damping) left float64 range
            trace.truncated = True
            break
        Zh, log_scale = _normalize(Z)
        c = (3.0 * c if cubic else 0.0) + log_scale
        rc_after = _rc_scaled(Zh, c, blocks, gamma)
        trace.rows.append(LayerRates(layer=layer, rc_before=rc_before, rc_after=rc_after))

    return trace


def traces_to_csv(traces) -> str:
    lines = ["rule,layer,rc_before,rc_after"]
    for tr in traces:
        for row in tr.rows:
            lines.append(f"{tr.rule},{row.layer},{row.rc_before!r},{row.rc_after!r}")
    return "\n".join(lines) + "\n"
