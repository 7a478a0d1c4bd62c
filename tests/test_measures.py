import dataclasses
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import srr.measures
from srr.data import DatasetSpec, synth_dataset
from srr.errors import ConfigError
from srr.autodiff import Tensor
from srr.linalg import cross_entropy_np, rng_for, spectral_norm
from srr.measures import (
    FIELD_ORDER,
    PAC_BAYES_SAMPLES,
    MeasureVector,
    margin_quantile,
    measure_csv_row,
    measure_vector,
    measures_csv_header,
    pac_bayes_sigma,
    path_norm,
    sigma_search,
)
from srr.model import Model, ModelConfig, init_model


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


def untouched_check(model):
    """A callable asserting that every entry of ``model.params`` still holds
    the array object it holds now, with the same bits."""
    objects = {name: t.data for name, t in model.params.items()}
    bits = {name: t.data.copy() for name, t in model.params.items()}

    def check():
        assert list(model.params) == list(objects)
        for name, t in model.params.items():
            assert t.data is objects[name]
            assert np.array_equal(t.data, bits[name])

    return check


def overflowing_model():
    """An untrained L=24 model: its clean forward is finite (|logit| <= 6e5), a perturbed draw overflows."""
    return init_model(ModelConfig(L=24, d=64, K=4, feat_dim=16, num_tokens=8, num_classes=2))


def huge_weight_setup(name, scale):
    model, ds = tiny_setup()
    model.params[name].data *= scale
    return model, ds


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
    def test_two_point_fixture(self, monkeypatch):
        model = TableModel([[3.0, 1.0], [0.0, 2.0]])
        ds = table_dataset(model.table, [0, 1])
        for q in (10.0, 50.0, 90.0):
            monkeypatch.setattr(srr.measures, "MARGIN_PERCENTILE", q)
            assert margin_quantile(model, ds) == 2.0

    def test_identical_logits_zero_margin(self):
        model = TableModel([[1.0, 1.0], [1.0, 1.0]])
        ds = table_dataset(model.table, [0, 1])
        assert margin_quantile(model, ds) == 0.0

    def test_wrong_class_margin_is_negative(self):
        model = TableModel([[0.0, 4.0]])
        ds = table_dataset(model.table, [0])
        assert margin_quantile(model, ds) == -4.0

    def test_percentile_against_numpy(self, monkeypatch):
        margins = np.arange(1.0, 11.0)
        table = np.stack([margins, np.zeros(10)], axis=1)
        model = TableModel(table)
        ds = table_dataset(table, np.zeros(10, dtype=int))
        for q in (10.0, 25.0, 50.0, 77.0):
            monkeypatch.setattr(srr.measures, "MARGIN_PERCENTILE", q)
            want = float(np.percentile(margins, q))
            assert margin_quantile(model, ds) == pytest.approx(want, abs=1e-12)

    def test_empty_dataset(self):
        model = TableModel([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            margin_quantile(model, FakeDataset(np.zeros((0,)), np.zeros((0,), int)))

    def test_real_model_matches_manual_formula(self):
        model, ds = tiny_setup()
        logits, _ = model.run(model.embed_inputs(ds.train_x), ln_identity=True)
        y = ds.train_y
        picked = logits[np.arange(len(y)), y]
        masked = logits.copy()
        masked[np.arange(len(y)), y] = -np.inf
        want = float(np.percentile(picked - masked.max(axis=1), 10.0))
        assert margin_quantile(model, ds) == pytest.approx(want, abs=1e-12)


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

    def test_model_left_alone_during_the_forward(self, monkeypatch):
        model, _ = tiny_setup()
        check = untouched_check(model)
        original = Model.logits
        calls = []

        def checked_logits(self, *args, **kwargs):
            check()
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Model, "logits", checked_logits)
        path_norm(model)
        assert calls and all(m is not model for m in calls)
        check()


class TestSigmaSearch:
    def test_quadratic_oracle(self):
        sigma, flag = sigma_search(lambda s: s * s)
        assert flag == "ok"
        assert sigma == pytest.approx(math.sqrt(0.1), abs=1e-5)
        assert sigma * sigma <= 0.1

    def test_jiang_constants(self):
        assert (srr.measures.PAC_BAYES_TARGET, srr.measures.PAC_BAYES_DRAWS) == (0.1, 8)
        assert (srr.measures.SIGMA_LO, srr.measures.SIGMA_HI, srr.measures.SIGMA_STEPS) == (1e-5, 10.0, 20)
        assert srr.measures.MARGIN_PERCENTILE == 10.0

    def test_more_iterations_tighten(self, monkeypatch):
        monkeypatch.setattr(srr.measures, "SIGMA_STEPS", 40)
        sigma, _ = sigma_search(lambda s: s * s)
        assert sigma == pytest.approx(math.sqrt(0.1), abs=1e-10)

    def test_brackets(self):
        assert sigma_search(lambda s: 0.0) == (10.0, "upper_bracket")
        assert sigma_search(lambda s: 5.0) == (1e-5, "lower_bracket_exceeded")

    def test_nan_is_flagged(self):
        assert sigma_search(lambda s: float("nan")) == (1e-5, "non_finite")

    def test_partly_non_finite_search_keeps_its_bisection(self):
        # NaN above sigma = 1 still steers the search downwards, as "too sharp"
        sigma, flag = sigma_search(lambda s: s * s if s < 1.0 else float("nan"))
        assert flag == "non_finite"
        assert sigma == sigma_search(lambda s: s * s)[0]
        assert sigma_search(lambda s: -math.inf) == (10.0, "non_finite")


class TestPacBayes:
    def test_deterministic_and_restoring(self, monkeypatch):
        monkeypatch.setattr(srr.measures, "PAC_BAYES_DRAWS", 2)
        model, ds = tiny_setup()
        before = {n: t.data.copy() for n, t in model.trainable_params().items()}
        s1, f1 = pac_bayes_sigma(model, ds)
        s2, f2 = pac_bayes_sigma(model, ds)
        assert (s1, f1) == (s2, f2)
        assert 1e-5 <= s1 <= 10.0
        for n, t in model.trainable_params().items():
            assert np.array_equal(t.data, before[n])

    def test_model_left_alone_during_every_evaluation(self, monkeypatch):
        model, ds = tiny_setup()
        check = untouched_check(model)
        original = srr.measures.cross_entropy_np
        calls = []

        def checked_ce(logits, y):
            check()
            calls.append(1)
            return original(logits, y)

        monkeypatch.setattr(srr.measures, "cross_entropy_np", checked_ce)
        monkeypatch.setattr(srr.measures, "PAC_BAYES_DRAWS", 2)
        pac_bayes_sigma(model, ds)
        assert len(calls) > 2
        check()

    def test_frozen_w_is_not_perturbed(self, monkeypatch):
        cfg = ModelConfig(L=2, d=8, K=2, feat_dim=6, num_tokens=4, num_classes=3, variant="crate_fix")
        model = init_model(cfg)
        _, ds = tiny_setup()
        frozen = {n: t for n, t in model.params.items() if not t.requires_grad}
        assert frozen
        seen = []
        original = Model.logits

        def spy(self, *args, **kwargs):
            seen.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Model, "logits", spy)
        monkeypatch.setattr(srr.measures, "PAC_BAYES_DRAWS", 1)
        pac_bayes_sigma(model, ds)
        draws = [m for m in seen if m is not model]
        assert draws
        for draw in draws:
            assert all(draw.params[n] is t for n, t in frozen.items())
            assert not any(draw.params[n] is t for n, t in model.trainable_params().items())

    @pytest.mark.parametrize("variant", ["crate_c", "crate_fix"])
    def test_one_draw_model_gives_the_bits_of_a_model_per_draw(self, monkeypatch, variant):
        model, ds = tiny_setup()
        model = init_model(dataclasses.replace(model.cfg, variant=variant))
        check = untouched_check(model)
        sigma, flag, _ = all_draws_search(model, ds, srr.measures.PAC_BAYES_DRAWS)
        seen = []
        original = Model.logits

        def spy(self, *args, **kwargs):
            seen.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Model, "logits", spy)
        assert pac_bayes_sigma(model, ds) == (sigma, flag)
        check()
        draws = {id(m): m for m in seen if m is not model}
        assert len(draws) == 1
        assert next(iter(draws.values()))._workspace is model._workspace

    def test_sharper_target_gives_smaller_sigma(self, monkeypatch):
        model, ds = tiny_setup()
        monkeypatch.setattr(srr.measures, "PAC_BAYES_DRAWS", 2)
        monkeypatch.setattr(srr.measures, "PAC_BAYES_TARGET", 1.0)
        loose, _ = pac_bayes_sigma(model, ds)
        monkeypatch.setattr(srr.measures, "PAC_BAYES_TARGET", 0.01)
        tight, _ = pac_bayes_sigma(model, ds)
        assert tight <= loose


def all_draws_search(model, ds, mc_samples, seed=0, nan_first_draw_from=math.inf):
    """The bisection with every draw at every step, as it ran before the
    early exit: (sigma, flag, [(sigma, increase) per step]).  At each step
    with sigma >= ``nan_first_draw_from`` the first draw's CE is NaN."""
    params = model.trainable_params()
    x = ds.train_x[:PAC_BAYES_SAMPLES]
    y = np.asarray(ds.train_y[:PAC_BAYES_SAMPLES])
    noises = []
    for m in range(mc_samples):
        rng = rng_for(seed, "pac_bayes", m)
        noises.append({name: rng.standard_normal(t.data.shape) for name, t in params.items()})
    base_ce = cross_entropy_np(model.logits(x, ln_identity=True), y)
    steps = []

    def increase(sigma):
        total = 0.0
        for m, eps in enumerate(noises):
            noisy = {name: Tensor(t.data + sigma * eps[name]) for name, t in params.items()}
            draw = Model(model.cfg, {**model.params, **noisy}, None)
            ce = cross_entropy_np(draw.logits(x, ln_identity=True), y)
            total += (math.nan if m == 0 and sigma >= nan_first_draw_from else ce) - base_ce
        steps.append((sigma, total / mc_samples))
        return total / mc_samples

    sigma, flag = sigma_search(increase)
    return sigma, flag, steps


def recorded_steps(monkeypatch):
    """Record (sigma, increase) of every step ``pac_bayes_sigma`` bisects."""
    steps = []
    search = srr.measures.sigma_search

    def spy(increase_fn):
        def recorded(sigma):
            steps.append((sigma, increase_fn(sigma)))
            return steps[-1][1]

        return search(recorded)

    monkeypatch.setattr(srr.measures, "sigma_search", spy)
    return steps


class TestPacBayesEarlyExit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mc_samples", [1, 2, 8])
    def test_same_bisection_as_all_draws(self, monkeypatch, seed, mc_samples):
        model, ds = tiny_setup(seed)
        sigma, flag, oracle = all_draws_search(model, ds, mc_samples)
        steps = recorded_steps(monkeypatch)
        monkeypatch.setattr(srr.measures, "PAC_BAYES_DRAWS", mc_samples)
        assert pac_bayes_sigma(model, ds) == (sigma, flag)
        assert [s for s, _ in steps] == [s for s, _ in oracle]
        for (_, got), (_, full) in zip(steps, oracle):
            assert (got <= 0.1) == (full <= 0.1)
            if full <= 0.1:
                assert got == full  # a passing step ran every draw
            else:
                assert 0.1 < got <= full
        if mc_samples > 1:
            assert any(got < full for (_, got), (_, full) in zip(steps, oracle))

    def test_failing_steps_stop_drawing(self, monkeypatch):
        model, ds = tiny_setup()
        calls = []
        original = srr.measures.cross_entropy_np

        def counted_ce(logits, y):
            calls.append(1)
            return original(logits, y)

        monkeypatch.setattr(srr.measures, "cross_entropy_np", counted_ce)
        sigma, flag = pac_bayes_sigma(model, ds)
        assert flag == "ok"  # 22 steps: both brackets and 20 bisections
        draws = len(calls) - 1  # the first call is the unperturbed CE
        assert draws < 22 * 8

    @pytest.mark.parametrize("nan_from", [0.0, 1.0])
    def test_nan_first_draw_is_still_flagged(self, monkeypatch, nan_from):
        model, ds = tiny_setup()
        sigma, flag, _ = all_draws_search(model, ds, 8, nan_first_draw_from=nan_from)
        assert flag == "non_finite"
        search, original = srr.measures.sigma_search, srr.measures.cross_entropy_np
        starting = []  # the sigma of a step whose first draw has not run yet

        def marking_search(increase_fn):
            def marked(s):
                starting.append(s)
                return increase_fn(s)

            return search(marked)

        def nan_on_first_draw(logits, y):
            value = original(logits, y)
            return math.nan if starting and starting.pop() >= nan_from else value

        monkeypatch.setattr(srr.measures, "sigma_search", marking_search)
        monkeypatch.setattr(srr.measures, "cross_entropy_np", nan_on_first_draw)
        assert pac_bayes_sigma(model, ds) == (sigma, "non_finite")

    def test_overflowing_draw_is_flagged(self):
        model = overflowing_model()
        ds = synth_dataset(DatasetSpec(n_train=16, n_val=8))
        assert np.isfinite(model.logits(ds.train_x, ln_identity=True)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pac_bayes_sigma(model, ds) == (1e-5, "non_finite")


class TestMeasureVectorOfModel:
    def test_negative_label_rejected(self):
        model, ds = tiny_setup()
        ds.val_y = ds.val_y.copy()
        ds.val_y[-1] = -1
        with pytest.raises(ConfigError, match=re.escape("label -1 is outside [0, 3)")):
            measure_vector(model, ds)

    def test_untrained_model_has_zero_distances(self):
        model, ds = tiny_setup()
        mv, errors = measure_vector(model, ds)
        assert errors == {}
        assert mv.l2_norm_init == 0.0
        assert mv.fro_distance == 0.0
        assert mv.spec_distance == 0.0
        assert mv.spec_init_main == 0.0
        assert mv.pac_bayes_init == 0.0

    def test_norm_fields_match_manual_sums(self):
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, ds)
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
        mv, _ = measure_vector(model, ds)
        margin = margin_quantile(model, ds)
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
        mv, _ = measure_vector(model, ds)
        M = len(model.tracked_matrices())
        assert mv.sum_of_spec == pytest.approx(M * mv.prod_of_spec ** (1 / M), rel=1e-10)
        assert mv.sum_of_fro == pytest.approx(M * mv.prod_of_fro ** (1 / M), rel=1e-10)

    def test_partial_identity_weights(self):
        model, ds = tiny_setup()
        for name in ("embed", "layers.0.U", "layers.0.D", "layers.1.U", "layers.1.D", "head.weight"):
            t = model.params[name]
            t.data = np.eye(*t.data.shape)
        model.init_snapshot = None
        mv, _ = measure_vector(model, ds)
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
        model.init_snapshot = snap
        mv, _ = measure_vector(model, ds)
        assert mv.fro_distance == pytest.approx(9.0, rel=1e-12)
        assert mv.spec_distance == pytest.approx(spectral_norm(bump) ** 2, rel=1e-10)
        assert mv.l2_norm_init == pytest.approx(9.0, rel=1e-12)

    def test_missing_snapshot_is_reported_not_fatal(self):
        model, ds = tiny_setup()
        model.init_snapshot = None
        mv, errors = measure_vector(model, ds)
        init_fields = ("l2_norm_init", "fro_distance", "spec_distance",
                       "spec_init_main", "pac_bayes_init")
        for f in init_fields:
            assert math.isnan(mv.get(f))
            assert errors[f] == "init snapshot missing"
        assert math.isfinite(mv.l2_norm)
        assert math.isfinite(mv.srr)
        assert math.isfinite(mv.path_norm)

    def test_zero_matrix_gives_nan_ratios_with_a_note(self):
        model, ds = tiny_setup()
        model.params["head.weight"].data[:] = 0.0
        mv, errors = measure_vector(model, ds)
        for f in ("fro_over_spec", "spec_orig_main", "spec_init_main"):
            assert math.isnan(mv.get(f))
            assert errors[f] == "zero spectral norm of head.weight"
        assert mv.prod_of_spec == 0.0
        assert math.isfinite(mv.path_norm) and math.isfinite(mv.srr)

    def test_tiny_spectral_norm_is_not_called_zero(self):
        # 2e-200 is a norm; only its square underflows to 0.0
        model, ds = tiny_setup()
        model.params["embed"].data *= 1e-200
        mv, errors = measure_vector(model, ds)
        for f in ("fro_over_spec", "spec_orig_main", "spec_init_main"):
            assert math.isnan(mv.get(f))
            assert re.fullmatch(r"spectral norm \S+e-200 of embed underflows when squared", errors[f]), errors[f]
        assert not any("zero spectral norm" in why for why in errors.values())

    def test_non_finite_path_norm_has_a_note(self):
        # squared, a 1e80-scaled positional table overflows the path forward's
        # attention scores; the clean forward and every other measure stay finite
        model, ds = tiny_setup()
        model.params["pos"].data *= 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mv, errors = measure_vector(model, ds)
        assert math.isnan(mv.path_norm)
        assert errors == {"path_norm": "not finite: a weight or a forward of the model left float64 range"}

    @pytest.mark.parametrize("build, non_finite", [
        (lambda: huge_weight_setup("layers.1.U", 1e100), ["path_norm", "srr"]),
        (lambda: (overflowing_model(), synth_dataset(DatasetSpec(n_train=16, n_val=8))), []),
    ], ids=["U-times-1e100", "L24-overflowing-draw"])
    def test_every_non_finite_field_has_a_note(self, build, non_finite):
        model, ds = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mv, errors = measure_vector(model, ds)
        assert [f for f in FIELD_ORDER if not math.isfinite(mv.get(f))] == non_finite
        assert all(f in errors for f in non_finite)
        assert not any("zero spectral norm" in why for why in errors.values())

    @pytest.mark.parametrize("flag, words", [
        ("upper_bracket", "upper bracket"),
        ("lower_bracket_exceeded", "lower bracket"),
        ("non_finite", "non-finite"),
    ])
    def test_every_sigma_flag_has_a_note(self, monkeypatch, flag, words):
        model, ds = tiny_setup()
        monkeypatch.setattr(srr.measures, "pac_bayes_sigma", lambda *a, **k: (1e-5, flag))
        _, errors = measure_vector(model, ds)
        assert words in errors["pac_bayes_flatness_inv_sigma"]

    def test_srr_is_mean_probe_value(self):
        model, ds = tiny_setup()
        mv, _ = measure_vector(model, ds)
        probes = model.probe(ds.train_x[:8])
        assert mv.srr == pytest.approx(float(np.mean([p.srr for p in probes])), rel=1e-12)

    def test_determinism(self):
        model, ds = tiny_setup()
        a, _ = measure_vector(model, ds)
        b, _ = measure_vector(model, ds)
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
