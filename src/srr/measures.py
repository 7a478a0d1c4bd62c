"""Complexity measures of a trained model: norm, margin, spectral,
path-norm and PAC-Bayes families plus the layer-averaged SRR measure.

Layer normalization is bypassed (replaced by the identity) whenever the
network is evaluated for a measure — margins, PAC-Bayes perturbations,
path norm, and SRR probes alike.  Spectral/Frobenius families run over the
"tracked" weight matrices: embedding, each layer's U and D (plus W when
the variant has one), and the classification head.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import rates
from .errors import ConfigError
from .linalg import cross_entropy_np, rng_for, spectral_norm
from .model import Model

__all__ = [
    "MeasureVector",
    "FIELD_ORDER",
    "margin_quantile",
    "path_norm",
    "sigma_search",
    "pac_bayes_sigma",
    "measure_vector",
    "measures_csv_header",
    "measure_csv_row",
]


@dataclass
class MeasureVector:
    l2_norm: float = np.nan
    l2_norm_init: float = np.nan
    num_params: float = np.nan
    inv_margin: float = np.nan
    sum_of_spec: float = np.nan
    prod_of_spec: float = np.nan
    sum_of_spec_over_margin: float = np.nan
    prod_of_spec_over_margin: float = np.nan
    fro_over_spec: float = np.nan
    spec_init_main: float = np.nan
    spec_orig_main: float = np.nan
    sum_of_fro: float = np.nan
    prod_of_fro: float = np.nan
    sum_of_fro_over_margin: float = np.nan
    prod_of_fro_over_margin: float = np.nan
    fro_distance: float = np.nan
    spec_distance: float = np.nan
    param_norm: float = np.nan
    path_norm: float = np.nan
    pac_bayes_init: float = np.nan
    pac_bayes_orig: float = np.nan
    pac_bayes_flatness_inv_sigma: float = np.nan
    srr: float = np.nan

    def get(self, name: str) -> float:
        return getattr(self, name)


FIELD_ORDER = tuple(f.name for f in fields(MeasureVector))

PROBE_SAMPLES = 8  # training samples the layer-averaged SRR probe runs on


def margin_quantile(model: Model, dataset, q: float) -> float:
    """q-th percentile of correct-class margins f(x)_y - max_{j!=y} f(x)_j
    over the training set (LayerNorm bypassed, as for all measures)."""
    if not 0 < q < 100:
        raise ConfigError("percentile must be in (0, 100)")
    y = np.asarray(dataset.train_y)
    if len(y) == 0:
        raise ConfigError("empty dataset")
    logits = model.logits(dataset.train_x, ln_identity=True)
    picked = logits[np.arange(len(y)), y]
    masked = logits.copy()
    masked[np.arange(len(y)), y] = -np.inf
    margins = picked - masked.max(axis=1)
    return float(np.percentile(margins, q))


def path_norm(model: Model) -> float:
    """Forward the all-ones input through the network with every parameter
    squared (softmax left intact, LayerNorm bypassed) and sum the outputs."""
    originals = {name: t.data for name, t in model.params.items()}
    try:
        for name, t in model.params.items():
            t.data = originals[name] ** 2
        ones = np.ones((model.cfg.in_dim, model.cfg.grid_tokens))
        return float(np.sum(model.logits(ones[None], ln_identity=True)))
    finally:
        for name, t in model.params.items():
            t.data = originals[name]


def sigma_search(increase_fn, target: float, lo: float = 1e-5, hi: float = 10.0, iters: int = 20) -> tuple[float, str]:
    """Largest sigma in [lo, hi] with increase_fn(sigma) <= target, by
    bisection.  Returns (sigma, flag); flag is "ok", "upper_bracket" when
    even hi passes, or "lower_bracket_exceeded" when even lo fails."""
    if target <= 0:
        raise ConfigError("target increase must be positive")
    if increase_fn(hi) <= target:
        return hi, "upper_bracket"
    if increase_fn(lo) > target:
        return lo, "lower_bracket_exceeded"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if increase_fn(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo, "ok"


def pac_bayes_sigma(
    model: Model,
    dataset,
    target_increase: float = 0.1,
    mc_samples: int = 8,
    seed: int = 0,
    eval_cap: int = 512,
) -> tuple[float, str]:
    """Perturbation scale at which Gaussian parameter noise N(0, sigma^2 I)
    raises training CE by the target amount (Monte-Carlo estimate, unit
    noise drawn once and reused across the whole bisection)."""
    params = model.trainable_params()
    n_eval = min(len(dataset.train_y), eval_cap)
    x = dataset.train_x[:n_eval]
    y = np.asarray(dataset.train_y[:n_eval])
    base = {name: t.data.copy() for name, t in params.items()}
    noises = []
    for m in range(mc_samples):
        rng = rng_for(seed, "pac_bayes", m)
        noises.append({name: rng.standard_normal(t.data.shape) for name, t in params.items()})
    base_ce = cross_entropy_np(model.logits(x, ln_identity=True), y)

    def increase(sigma: float) -> float:
        total = 0.0
        try:
            for eps in noises:
                for name, t in params.items():
                    t.data = base[name] + sigma * eps[name]
                total += cross_entropy_np(model.logits(x, ln_identity=True), y) - base_ce
        finally:
            for name, t in params.items():
                t.data = base[name]
        return total / mc_samples

    return sigma_search(increase, target_increase)


def _geo_mean(vals: list[float]) -> float:
    if any(v <= 0 for v in vals):
        return 0.0
    return float(np.exp(np.mean(np.log(vals))))


def measure_vector(
    model: Model,
    init_snapshot: dict[str, np.ndarray] | None,
    dataset,
    rate_cfg: rates.RateConfig | None = None,
    seed: int = 0,
) -> tuple[MeasureVector, dict[str, str]]:
    """Every Table-style measure for one trained model.

    Init-relative fields need ``init_snapshot``; when it is missing they
    come back NaN with an explanation in the errors dict while everything
    else is still computed.
    """
    mv = MeasureVector()
    errors: dict[str, str] = {}
    params = model.trainable_params()
    mats = model.tracked_matrices()
    M = len(mats)

    mv.num_params = float(sum(t.data.size for t in params.values()))
    mv.l2_norm = float(sum(np.sum(t.data**2) for t in params.values()))

    margin = margin_quantile(model, dataset, 10.0)
    margin_sq = margin * margin
    if margin_sq == 0.0:
        errors["inv_margin"] = "zero margin"
    mv.inv_margin = 1.0 / margin_sq if margin_sq else np.nan

    spec_sq = [spectral_norm(w) ** 2 for _, w in mats]
    fro_sq = [float(np.sum(w**2)) for _, w in mats]
    mv.prod_of_spec = float(np.prod(spec_sq)) if all(v > 0 for v in spec_sq) else 0.0
    mv.sum_of_spec = M * _geo_mean(spec_sq)
    mv.prod_of_fro = float(np.prod(fro_sq)) if all(v > 0 for v in fro_sq) else 0.0
    mv.sum_of_fro = M * _geo_mean(fro_sq)
    if margin_sq:
        mv.sum_of_spec_over_margin = mv.sum_of_spec / margin_sq
        mv.prod_of_spec_over_margin = mv.prod_of_spec / margin_sq
        mv.sum_of_fro_over_margin = mv.sum_of_fro / margin_sq
        mv.prod_of_fro_over_margin = mv.prod_of_fro / margin_sq
    mv.fro_over_spec = float(sum(f / s for f, s in zip(fro_sq, spec_sq)))
    if margin_sq:
        mv.spec_orig_main = mv.prod_of_spec * mv.fro_over_spec / margin_sq
    mv.param_norm = float(sum(fro_sq))
    mv.path_norm = path_norm(model)

    sigma, flag = pac_bayes_sigma(model, dataset, seed=seed)
    mv.pac_bayes_flatness_inv_sigma = 1.0 / sigma
    mv.pac_bayes_orig = mv.l2_norm / (4.0 * sigma * sigma)
    if flag == "lower_bracket_exceeded":
        errors["pac_bayes_flatness_inv_sigma"] = "loss too sharp: sigma pinned at the lower bracket"

    x = dataset.train_x[:PROBE_SAMPLES]
    probes = model.probe(x) if rate_cfg is None else model.probe(x, rate_cfg.eps_sq, rate_cfg.lambda_sparsity)
    mv.srr = float(np.mean([p.srr for p in probes]))

    init_fields = ("l2_norm_init", "fro_distance", "spec_distance", "spec_init_main", "pac_bayes_init")
    if init_snapshot is None:
        for f in init_fields:
            errors[f] = "init snapshot missing"
    else:
        mv.l2_norm_init = float(
            sum(np.sum((t.data - init_snapshot[name]) ** 2) for name, t in params.items())
        )
        diff_fro = [float(np.sum((w - init_snapshot[name]) ** 2)) for name, w in mats]
        mv.fro_distance = float(sum(diff_fro))
        mv.spec_distance = float(
            sum(spectral_norm(w - init_snapshot[name]) ** 2 for name, w in mats)
        )
        if margin_sq:
            mv.spec_init_main = (
                mv.prod_of_spec * sum(df / s for df, s in zip(diff_fro, spec_sq)) / margin_sq
            )
        mv.pac_bayes_init = mv.l2_norm_init / (4.0 * sigma * sigma)
    return mv, errors


def measures_csv_header() -> str:
    return "cell," + ",".join(FIELD_ORDER)


def measure_csv_row(key: str, mv: MeasureVector) -> str:
    return key + "," + ",".join(repr(float(mv.get(f))) for f in FIELD_ORDER)
