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

from .autodiff import Tensor
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
MARGIN_PERCENTILE = 10.0  # percentile of the training margins the margin measures divide by
PAC_BAYES_SAMPLES = 512  # training samples the PAC-Bayes CE is estimated on
# the PAC-Bayes sharpness definition of Jiang et al. (2020): CE increase, draws, bracket, bisection steps
PAC_BAYES_TARGET, PAC_BAYES_DRAWS = 0.1, 8
SIGMA_LO, SIGMA_HI, SIGMA_STEPS = 1e-5, 10.0, 20
_SIGMA_NOTES = {  # measure note of each sigma_search flag but "ok"
    "upper_bracket": "loss too flat: sigma pinned at the upper bracket",
    "lower_bracket_exceeded": "loss too sharp: sigma pinned at the lower bracket",
    "non_finite": "a perturbed forward gave a non-finite CE increase",
}
_NOT_FINITE = "not finite: a weight or a forward of the model left float64 range"


def margin_quantile(model: Model, dataset) -> float:
    """MARGIN_PERCENTILE-th percentile of margins f(x)_y - max_{j!=y} f(x)_j
    over the training set (LayerNorm bypassed, as for all measures)."""
    y = np.asarray(dataset.train_y)
    if len(y) == 0:
        raise ConfigError("empty dataset")
    logits = model.logits(dataset.train_x, ln_identity=True)
    picked = logits[np.arange(len(y)), y]
    masked = logits.copy()
    masked[np.arange(len(y)), y] = -np.inf
    margins = picked - masked.max(axis=1)
    return float(np.percentile(margins, MARGIN_PERCENTILE))


def path_norm(model: Model) -> float:
    """Forward the all-ones input through the network with every parameter
    squared (softmax left intact, LayerNorm bypassed) and sum the outputs."""
    squared = Model(model.cfg, {name: Tensor(t.data**2) for name, t in model.params.items()}, None)
    ones = np.ones((model.cfg.in_dim, model.cfg.grid_tokens))
    return float(np.sum(squared.logits(ones[None], ln_identity=True)))


def sigma_search(increase_fn) -> tuple[float, str]:
    """Largest sigma in [SIGMA_LO, SIGMA_HI] with increase_fn(sigma) <= PAC_BAYES_TARGET,
    by SIGMA_STEPS bisection steps.  Returns (sigma, flag); flag is "ok", "upper_bracket"
    when even SIGMA_HI passes, "lower_bracket_exceeded" when even SIGMA_LO fails, or
    "non_finite" when any increase was NaN or inf (a NaN counts as too sharp)."""
    lo, hi = SIGMA_LO, SIGMA_HI
    increases = []

    def passes(sigma: float) -> bool:
        increases.append(increase_fn(sigma))
        return increases[-1] <= PAC_BAYES_TARGET

    if passes(hi):
        sigma, flag = hi, "upper_bracket"
    elif not passes(lo):
        sigma, flag = lo, "lower_bracket_exceeded"
    else:
        for _ in range(SIGMA_STEPS):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        sigma, flag = lo, "ok"
    return sigma, flag if np.isfinite(increases).all() else "non_finite"


def pac_bayes_sigma(model: Model, dataset, seed: int = 0) -> tuple[float, str]:
    """Perturbation scale at which Gaussian parameter noise N(0, sigma^2 I)
    raises training CE by PAC_BAYES_TARGET (mean of PAC_BAYES_DRAWS draws of unit
    noise, drawn once and reused across the whole bisection).  Every draw
    is written into the trainable weights of one model of the search's own,
    which runs in ``model``'s inference buffers; ``model``'s weights and
    the frozen ``crate_fix`` W are left unperturbed.

    A bisection step stops drawing once it is sure to fail: CE is never
    negative, so each remaining draw adds at least ``-base_ce``, and when
    that floor already exceeds the target the floor is returned.  Every
    pass/fail, and so the sigma, is that of running all draws.  The flag
    ``non_finite`` means that a draw that ran gave a NaN or inf CE; a draw
    skipped by the early exit is never seen."""
    params = model.trainable_params()
    x = dataset.train_x[:PAC_BAYES_SAMPLES]
    y = np.asarray(dataset.train_y[:PAC_BAYES_SAMPLES])
    noises = []
    for m in range(PAC_BAYES_DRAWS):
        rng = rng_for(seed, "pac_bayes", m)
        noises.append({name: rng.standard_normal(t.data.shape) for name, t in params.items()})
    base_ce = cross_entropy_np(model.logits(x, ln_identity=True), y)
    noisy = {name: Tensor(np.empty_like(t.data)) for name, t in params.items()}
    draw = Model(model.cfg, {**model.params, **noisy}, None)
    draw._workspace = model._workspace  # the same token shape, never two passes at once

    def increase(sigma: float) -> float:
        total = 0.0
        for m, eps in enumerate(noises, 1):
            for name, t in params.items():
                np.add(t.data, sigma * eps[name], out=noisy[name].data)
            total += cross_entropy_np(draw.logits(x, ln_identity=True), y) - base_ce
            floor = total  # the same += in the same order: rounding keeps it below the full sum
            for _ in range(PAC_BAYES_DRAWS - m):
                floor += -base_ce
            if floor / PAC_BAYES_DRAWS > PAC_BAYES_TARGET:  # false on NaN
                return floor / PAC_BAYES_DRAWS
        return total / PAC_BAYES_DRAWS

    return sigma_search(increase)


def _geo_mean(vals: list[float]) -> float:
    if any(v <= 0 for v in vals):
        return 0.0
    return float(np.exp(np.mean(np.log(vals))))


@np.errstate(over="ignore", invalid="ignore")  # every field left non-finite gets a note instead
def measure_vector(model: Model, dataset, seed: int = 0) -> tuple[MeasureVector, dict[str, str]]:
    """Every Table-style measure for one trained model.

    Init-relative fields need ``model.init_snapshot``; when it is missing
    they come back NaN with an explanation in the errors dict while
    everything else is still computed.  Every other NaN or inf field gets a
    note too: a zero margin or squared spectral norm, a pinned PAC-Bayes
    search, or a weight or forward past float64 range.
    """
    model.check_labels(dataset)
    init_snapshot = model.init_snapshot
    mv = MeasureVector()
    errors: dict[str, str] = {}
    params = model.trainable_params()
    mats = model.tracked_matrices()
    M = len(mats)

    mv.num_params = float(sum(t.data.size for t in params.values()))
    mv.l2_norm = float(sum(np.sum(t.data**2) for t in params.values()))

    margin = margin_quantile(model, dataset)
    margin_sq = margin * margin
    if margin_sq == 0.0:
        errors["inv_margin"] = "zero margin"
    mv.inv_margin = 1.0 / margin_sq if margin_sq else np.nan

    spec = [spectral_norm(w) for _, w in mats]
    spec_sq = [s**2 for s in spec]
    fro_sq = [float(np.sum(w**2)) for _, w in mats]
    mv.prod_of_spec = float(np.prod(spec_sq)) if all(v > 0 for v in spec_sq) else 0.0
    mv.sum_of_spec = M * _geo_mean(spec_sq)
    mv.prod_of_fro = float(np.prod(fro_sq)) if all(v > 0 for v in fro_sq) else 0.0
    mv.sum_of_fro = M * _geo_mean(fro_sq)
    # a fro/spec ratio is undefined where a squared spectral norm is 0.0
    spec_note = next((
        f"zero spectral norm of {name}" if s == 0.0 else f"spectral norm {s:.3g} of {name} underflows when squared"
        for (name, _), s, sq in zip(mats, spec, spec_sq) if sq == 0.0
    ), None)
    if spec_note:
        errors["fro_over_spec"] = errors["spec_orig_main"] = spec_note
    else:
        mv.fro_over_spec = float(sum(f / s for f, s in zip(fro_sq, spec_sq)))
    if margin_sq:
        mv.sum_of_spec_over_margin = mv.sum_of_spec / margin_sq
        mv.prod_of_spec_over_margin = mv.prod_of_spec / margin_sq
        mv.sum_of_fro_over_margin = mv.sum_of_fro / margin_sq
        mv.prod_of_fro_over_margin = mv.prod_of_fro / margin_sq
        mv.spec_orig_main = mv.prod_of_spec * mv.fro_over_spec / margin_sq
    mv.param_norm = float(sum(fro_sq))
    mv.path_norm = path_norm(model)

    sigma, flag = pac_bayes_sigma(model, dataset, seed=seed)
    mv.pac_bayes_flatness_inv_sigma = 1.0 / sigma
    mv.pac_bayes_orig = mv.l2_norm / (4.0 * sigma * sigma)
    if flag != "ok":
        errors["pac_bayes_flatness_inv_sigma"] = _SIGMA_NOTES[flag]

    probes = model.probe(dataset.train_x[:PROBE_SAMPLES])
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
        if spec_note:
            errors["spec_init_main"] = spec_note
        elif margin_sq:
            mv.spec_init_main = (
                mv.prod_of_spec * sum(df / s for df, s in zip(diff_fro, spec_sq)) / margin_sq
            )
        mv.pac_bayes_init = mv.l2_norm_init / (4.0 * sigma * sigma)
    for name in FIELD_ORDER:
        if name not in errors and not np.isfinite(mv.get(name)):
            margin_ratio = name.endswith("_over_margin") or name in ("spec_init_main", "spec_orig_main")
            errors[name] = "zero margin" if margin_ratio and margin_sq == 0.0 else _NOT_FINITE
    return mv, errors


def measures_csv_header() -> str:
    return "cell," + ",".join(FIELD_ORDER)


def measure_csv_row(key: str, mv: MeasureVector) -> str:
    return key + "," + ",".join(repr(float(mv.get(f))) for f in FIELD_ORDER)
