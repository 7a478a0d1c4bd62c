"""Sparse-rate-reduction transformers built on a small numpy autodiff core:
rate objectives, unrolled attention/ISTA layers, training, toy layer-wise
dynamics, complexity measures, and rank-correlation analysis.
"""

from .errors import ConfigError, DefinitenessError, FormatError, NumericError, ShapeError
from .linalg import logdet_psd, orthonormal_basis, rng_for, softmax_columns, spectral_norm, stable_seed
from .rates import (
    RateConfig,
    coding_rate,
    grad_projected_coding_rate,
    grad_taylor_terms,
    projected_coding_rate,
    split_heads,
    sparsity_l0,
    srr_layer_measure,
    taylor_terms,
)
from .layers import (
    CRATE,
    CRATE_C,
    CRATE_FIX,
    CRATE_IDENTITY,
    CRATE_N,
    CRATE_T,
    VARIANTS,
    LayerParams,
    attention_update,
    ista_step,
    layer_norm,
    mssa,
    patchify,
    stacked_attention_heads,
)
from .model import (
    Model,
    ModelConfig,
    ProbeRecord,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .training import TrainConfig, TrainingTrace, train, srr_regularized_loss, evaluate
from .toy_dynamics import RULES, DynamicsTrace, run_dynamics, traces_to_csv
from .data import DatasetSpec, build_dataset, load_cifar, parse_cifar_bytes, synth_dataset
from .measures import MeasureVector, margin_quantile, measure_vector, pac_bayes_sigma, path_norm
from .analysis import HyperPoint, ZooRecord, correlation_report, granulated_psi, kendall_tau
from .zoo import GridSpec, correlate_zoo, load_zoo_records, measure_zoo, run_zoo

__version__ = "0.1.0"
