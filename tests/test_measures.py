import math
from dataclasses import dataclass

import numpy as np
import pytest

from srr.data import DatasetSpec, synth_dataset
from srr.errors import ConfigError
from srr.linalg import spectral_norm
from srr.measures import (
    FIELD_ORDER,
    MeasureVector,
    margin_quantile,
    measure_csv_row,
    measure_vector,
    measures_csv_header,
    pac_bayes_sigma,
    path_norm,
    sigma_search,
)
from srr.model import ModelConfig, init_model
from srr.rates import RateConfig


@dataclass
class FakeDataset:
    train_x: np.ndarray
    train_y: np.ndarray


class TableModel:
    """Stand-in whose logits are read straight from a table."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def logits(self, x, **kw):
        return self.table[np.asarray(x).astype(int).ravel()]


def table_dataset(table, labels):
    return FakeDataset(np.arange(len(labels)), np.asarray(labels))


def tiny_setup(seed=0):
    cfg = ModelConfig(L=2, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=3, seed=seed)
    model = init_model(cfg)
    ds = synth_dataset(DatasetSpec(classes=3, tokens=4, feat_dim=6, subspace_dim=2,
                                   n_train=32, n_val=8, seed=1))
    return model, ds


class TestMeasureVector:
    def test_field_catalogue(self):
        assert len(FIELD_ORDER) == 23
        assert FIELD_ORDER[0] == "l2_norm"
        assert FIELD_ORDER[-1] == "srr"
        mv = MeasureVector()
        assert all(math.isnan(mv.get(f)) for f in FIELD_ORDER)
        mv.path_norm = 2.0
        assert mv.get("path_norm") == 2.0


class TestMargin:
    def test_two_point_fixture(self):
        model = TableModel([[3.0, 1.0], [0.0, 2.0]])
        ds = table_dataset(model.table, [0, 1])
        for q in (10.0, 50.0, 90.0):
            assert margin_quantile(model, ds, q) == 2.0

    def test_identical_logits_zero_margin(self):
        model = TableModel([[1.0, 1.0], [1.0, 1.0]])
        ds = table_dataset(model.table, [0, 1])
        assert margin_quantile(model, ds, 10.0) == 0.0

    def test_wrong_class_margin_is_negative(self):
        model = TableModel([[0.0, 4.0]])
        ds = table_dataset(model.table, [0])
        assert margin_quantile(model, ds, 50.0) == -4.0

    def test_percentile_against_numpy(self):
        margins = np.arange(1.0, 11.0)
        table = np.stack([margins, np.zeros(10)], axis=1)
        model = TableModel(table)
        ds = table_dataset(table, np.zeros(10, dtype=int))
        for q in (10.0, 25.0, 50.0, 77.0):
            want = float(np.percentile(margins, q))
            assert margin_quantile(model, ds, q) == pytest.approx(want, abs=1e-12)

    def test_quantile_domain(self):
        model = TableModel([[1.0, 0.0]])
        ds = table_dataset(model.table, [0])
        for q in (0.0, 100.0, -3.0):
            with pytest.raises(ConfigError):
                margin_quantile(model, ds, q)

    def test_empty_dataset(self):
        model = TableModel([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            margin_quantile(model, FakeDataset(np.zeros((0,)), np.zeros((0,), int)), 10.0)

    def test_real_model_matches_manual_formula(self):
        model, ds = tiny_setup()
        logits, _ = model.run(model.embed_inputs(ds.train_x), ln_identity=True)
        y = ds.train_y
        picked = logits[np.arange(len(y)), y]
        masked = logits.copy()
        masked[np.arange(len(y)), y] = -np.inf
        want = float(np.percentile(picked - masked.max(axis=1), 10.0))
        assert margin_quantile(model, ds, 10.0) == pytest.approx(want, abs=1e-12)


class TestPathNorm:
    def test_squared_network_oracle(self):
        # alpha = 0 makes attention the identity, beta = 0 reduces the
        # sparsifier to a plain ReLU, so with LayerNorm bypassed the whole
        # forward pass on the all-ones input is a single squared linear map
        cfg = ModelConfig(L=2, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=3,
                          alpha=0.0, beta=0.0, seed=4)
        model = init_model(cfg)
        cls = model.params["cls"].data
        pos = model.params["pos"].data
        hw = model.params["head.weight"].data
        hb = model.params["head.bias"].data
        col0 = cls.ravel() ** 2 + pos[:, 0] ** 2
        want = float(np.sum(hw**2 @ col0 + hb**2))
        assert path_norm(model) == pytest.approx(want, rel=1e-12)

    def test_parameters_are_restored(self):
        model, _ = tiny_setup()
        before = {n: t.data.copy() for n, t in model.params.items()}
        v1 = path_norm(model)
        v2 = path_norm(model)
        assert v1 == v2
        for n, t in model.params.items():
            assert np.array_equal(t.data, before[n])


class TestSigmaSearch:
    def test_quadratic_oracle(self):
        target = 0.1
        sigma, flag = sigma_search(lambda s: s * s, target)
        assert flag == "ok"
        assert sigma == pytest.approx(math.sqrt(0.1), abs=1e-5)
        assert sigma * sigma <= target

    def test_more_iterations_tighten(self):
        sigma, _ = sigma_search(lambda s: s * s, 0.1, iters=40)
        assert sigma == pytest.approx(math.sqrt(0.1), abs=1e-10)

    def test_brackets(self):
        assert sigma_search(lambda s: 0.0, 0.1) == (10.0, "upper_bracket")
        assert sigma_search(lambda s: 5.0, 0.1) == (1e-5, "lower_bracket_exceeded")

    def test_target_validation(self):
        with pytest.raises(ConfigError):
            sigma_search(lambda s: s, 0.0)


class TestPacBayes:
    def test_deterministic_and_restoring(self):
        model, ds = tiny_setup()
        before = {n: t.data.copy() for n, t in model.trainable_params().items()}
        s1, f1 = pac_bayes_sigma(model, ds, mc_samples=2)
        s2, f2 = pac_bayes_sigma(model, ds, mc_samples=2)
        assert (s1, f1) == (s2, f2)
        assert 1e-5 <= s1 <= 10.0
        for n, t in model.trainable_params().items():
            assert np.array_equal(t.data, before[n])

    def test_sharper_target_gives_smaller_sigma(self):
        model, ds = tiny_setup()
        loose, _ = pac_bayes_sigma(model, ds, target_increase=1.0, mc_samples=2)
        tight, _ = pac_bayes_sigma(model, ds, target_increase=0.01, mc_samples=2)
        assert tight <= loose


class TestMeasureVectorOfModel:
    def test_untrained_model_has_zero_distances(self):
        model, ds = tiny_setup()
        mv, errors = measure_vector(model, model.init_snapshot, ds)
        assert errors == {}
        assert mv.l2_norm_init == 0.0
        assert mv.fro_distance == 0.0
        assert mv.spec_distance == 0.0
        assert mv.spec_init_main == 0.0
        assert mv.pac_bayes_init == 0.0

    def test_norm_fields_match_manual_sums(self):
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, model.init_snapshot, ds)
        params = model.trainable_params()
        assert mv.num_params == sum(t.data.size for t in params.values())
        assert mv.l2_norm == pytest.approx(
            sum(float(np.sum(t.data**2)) for t in params.values()), rel=1e-12
        )
        mats = model.tracked_matrices()
        assert mv.param_norm == pytest.approx(
            sum(float(np.sum(w**2)) for _, w in mats), rel=1e-12
        )

    def test_margin_and_derived_identities(self):
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, model.init_snapshot, ds)
        margin = margin_quantile(model, ds, 10.0)
        assert mv.inv_margin == pytest.approx(1.0 / margin**2, rel=1e-12)
        assert mv.sum_of_spec_over_margin == pytest.approx(mv.sum_of_spec * mv.inv_margin, rel=1e-12)
        assert mv.prod_of_spec_over_margin == pytest.approx(mv.prod_of_spec * mv.inv_margin, rel=1e-12)
        assert mv.sum_of_fro_over_margin == pytest.approx(mv.sum_of_fro * mv.inv_margin, rel=1e-12)
        assert mv.prod_of_fro_over_margin == pytest.approx(mv.prod_of_fro * mv.inv_margin, rel=1e-12)
        assert mv.spec_orig_main == pytest.approx(
            mv.prod_of_spec * mv.fro_over_spec * mv.inv_margin, rel=1e-12
        )
        assert mv.pac_bayes_orig == pytest.approx(
            mv.l2_norm * mv.pac_bayes_flatness_inv_sigma**2 / 4.0, rel=1e-12
        )

    def test_mean_to_product_identity(self):
        # the "sum" variants are defined as M times the geometric mean, so
        # sum = M * prod**(1/M) holds by construction
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, model.init_snapshot, ds)
        M = len(model.tracked_matrices())
        assert mv.sum_of_spec == pytest.approx(M * mv.prod_of_spec ** (1 / M), rel=1e-10)
        assert mv.sum_of_fro == pytest.approx(M * mv.prod_of_fro ** (1 / M), rel=1e-10)

    def test_partial_identity_weights(self):
        model, ds = tiny_setup()
        for name in ("embed", "layers.0.U", "layers.0.D", "layers.1.U", "layers.1.D", "head.weight"):
            t = model.params[name]
            t.data = np.eye(*t.data.shape)
        mv, _ = measure_vector(model, None, ds)
        assert mv.prod_of_spec == pytest.approx(1.0, rel=1e-10)
        assert mv.sum_of_spec == pytest.approx(6.0, rel=1e-10)
        # embed is 8x6, U/D are 8x8, the head is 3x8
        assert mv.fro_over_spec == pytest.approx(6 + 8 + 8 + 8 + 8 + 3, rel=1e-10)
        assert mv.prod_of_fro == pytest.approx(6 * 8 * 8 * 8 * 8 * 3, rel=1e-10)

    def test_single_matrix_perturbation(self):
        model, ds = tiny_setup()
        snap = {n: a.copy() for n, a in model.init_snapshot.items()}
        bump = np.zeros_like(model.params["embed"].data)
        bump[0, 0] = 3.0
        model.params["embed"].data = model.params["embed"].data + bump
        mv, _ = measure_vector(model, snap, ds)
        assert mv.fro_distance == pytest.approx(9.0, rel=1e-12)
        assert mv.spec_distance == pytest.approx(spectral_norm(bump) ** 2, rel=1e-10)
        assert mv.l2_norm_init == pytest.approx(9.0, rel=1e-12)

    def test_missing_snapshot_is_reported_not_fatal(self):
        model, ds = tiny_setup()
        mv, errors = measure_vector(model, None, ds)
        init_fields = ("l2_norm_init", "fro_distance", "spec_distance",
                       "spec_init_main", "pac_bayes_init")
        for f in init_fields:
            assert math.isnan(mv.get(f))
            assert errors[f] == "init snapshot missing"
        assert math.isfinite(mv.l2_norm)
        assert math.isfinite(mv.srr)
        assert math.isfinite(mv.path_norm)

    def test_srr_is_mean_probe_value(self):
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, model.init_snapshot, ds)
        probes = model.probe(ds.train_x[:8])
        assert mv.srr == pytest.approx(float(np.mean([p.srr for p in probes])), rel=1e-12)

    def test_rate_config_override_changes_srr(self):
        model, ds = tiny_setup()
        mv_default, _ = measure_vector(model, model.init_snapshot, ds)
        other = RateConfig(d=model.cfg.d, N=5, K=model.cfg.K, eps_sq=0.05)
        mv_custom, _ = measure_vector(model, model.init_snapshot, ds, rate_cfg=other)
        assert mv_default.srr != mv_custom.srr

    def test_determinism(self):
        model, ds = tiny_setup()
        a, _ = measure_vector(model, model.init_snapshot, ds)
        b, _ = measure_vector(model, model.init_snapshot, ds)
        assert measure_csv_row("x", a) == measure_csv_row("x", b)


class TestCsv:
    def test_header(self):
        assert measures_csv_header() == "cell," + ",".join(FIELD_ORDER)

    def test_row_roundtrip(self):
        mv = MeasureVector()
        mv.l2_norm = 1.5
        mv.srr = 0.123456789012345678
        row = measure_csv_row("bs64-w384", mv)
        parts = row.split(",")
        assert parts[0] == "bs64-w384"
        assert len(parts) == 1 + len(FIELD_ORDER)
        assert float(parts[1]) == 1.5
        assert float(parts[-1]) == mv.srr  # repr() round-trips exactly
        assert parts[2] == "nan"
