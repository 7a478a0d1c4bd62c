import dataclasses
import gc
import json
import re
import weakref

import numpy as np
import pytest

from tracemem import traced

from srr import autodiff as ad
from srr import model as model_module
from srr import rates
from srr.autodiff import Tensor
from srr.errors import ConfigError, FormatError, NumericError, ShapeError
from srr.layers import CRATE, CRATE_C, CRATE_FIX, CRATE_N, CRATE_T, layer_norm, patchify
from srr.linalg import rng_for
from srr.model import (
    Model,
    ModelConfig,
    _layer_rates,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from srr.rates import RateConfig, split_heads


def tiny_cfg(**kw):
    base = dict(L=2, d=8, K=2, feat_dim=5, num_tokens=3, num_classes=4, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def tiny_batch(cfg, B=3, seed=1):
    return rng_for(seed).standard_normal((B, cfg.in_dim, cfg.grid_tokens))


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=10, K=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_cfg(dropout=1.0)

    def test_image_size_must_divide_by_patch(self):
        with pytest.raises(ConfigError, match="image size 30 not divisible by patch 4"):
            ModelConfig(image_size=30, patch=4)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", np.nan), ("alpha", np.inf), ("beta", np.nan), ("beta", -0.1), ("eps_sq", np.nan),
         ("eps_sq", np.inf), ("lambda_sparsity", np.inf), ("lambda_sparsity", -1.0)],
    )
    def test_scales_must_be_finite_and_in_range(self, field, value):
        # rejected up front, not at the first forward (or never)
        with pytest.raises(ConfigError, match=field):
            tiny_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("num_classes", 0), ("channels", 0), ("image_size", 0), ("patch", 0), ("feat_dim", 0), ("num_tokens", -1),
         ("L", "3"), ("d", 8.0), ("K", True), ("variant", 3), ("seed", 1.5), ("dropout", np.nan)],
    )
    def test_every_field_is_held_to_its_rule(self, field, value):
        # each passed unchecked before, or ended in a TypeError or ZeroDivisionError
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be ") + ".*" + re.escape(f", got {value!r}")):
            ModelConfig(**{field: value})

    def test_numpy_ints_are_stored_as_python_ints(self):
        cfg = tiny_cfg(L=np.int64(2), seed=np.int32(3))
        assert type(cfg.L) is int and type(cfg.seed) is int
        assert json.loads(json.dumps(dataclasses.asdict(cfg)))["L"] == 2

    def test_table_beyond_memory_is_refused_before_any_layer(self, monkeypatch):
        cfg = tiny_cfg(L=300)
        assert param_count(cfg) == sum(t.data.size for t in init_model(cfg).trainable_params().values())
        monkeypatch.setattr(model_module, "_MEMORY_BYTES", 8 * param_count(cfg) - 1)
        with pytest.raises(MemoryError, match="L = 300 layers at d = 8"):
            init_model(cfg)

    def test_feat_dim_needs_num_tokens(self):
        with pytest.raises(ConfigError):
            ModelConfig(feat_dim=5)

    def test_token_arithmetic_for_images(self):
        cfg = ModelConfig(d=384, K=6, patch=4, image_size=32)
        assert cfg.in_dim == 48
        assert cfg.grid_tokens == 64
        assert cfg.tokens == 65

    def test_gamma_defaults_to_one(self):
        cfg = tiny_cfg()
        assert cfg.attention_gamma(9) == 1.0
        cfg2 = tiny_cfg(eps_sq=0.5)
        assert cfg2.attention_gamma(4) == pytest.approx(cfg2.p / (4 * 0.5))


class TestParamCount:
    def test_untied_variants_share_count(self):
        counts = {v: param_count(tiny_cfg(variant=v)) for v in (CRATE_C, CRATE_N, CRATE_T)}
        assert len(set(counts.values())) == 1

    def test_learnable_w_gap_is_l_d_squared(self):
        cfg_c = tiny_cfg(variant=CRATE_C)
        cfg_w = tiny_cfg(variant=CRATE)
        assert param_count(cfg_w) - param_count(cfg_c) == cfg_c.L * cfg_c.d * cfg_c.d

    def test_frozen_w_not_counted(self):
        assert param_count(tiny_cfg(variant=CRATE_FIX)) == param_count(tiny_cfg(variant=CRATE_C))

    def test_hand_computed_total(self):
        cfg = tiny_cfg()
        # embed 8*5 + pos 8*4 + cls 8 + 2*(64+64+4*8) + head 4*8+4
        assert param_count(cfg) == 40 + 32 + 8 + 2 * 160 + 36

    @pytest.mark.parametrize("variant", [CRATE_C, CRATE_N, CRATE_T, CRATE, CRATE_FIX])
    def test_count_matches_allocated_trainables(self, variant):
        cfg = tiny_cfg(variant=variant)
        model = init_model(cfg)
        allocated = sum(t.data.size for t in model.trainable_params().values())
        assert allocated == param_count(cfg)

    def test_full_scale_totals_at_224px_patch16(self):
        # hand sum for 197 tokens: embed 384*768 + cls 384 + pos 384*197
        # + 12*(2*384^2 + 4*384) + head 10*384+10
        base = dict(L=12, d=384, K=6, num_classes=10, patch=16, image_size=224)
        c = param_count(ModelConfig(variant=CRATE_C, **base))
        w = param_count(ModelConfig(variant=CRATE, **base))
        assert c == 3_932_170
        assert w == 5_701_642
        assert abs(c - 3.94e6) / 3.94e6 < 0.002
        assert abs(w - 5.71e6) / 5.71e6 < 0.002


class TestInit:
    def test_seed_determinism(self):
        a = init_model(tiny_cfg(seed=7))
        b = init_model(tiny_cfg(seed=7))
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)

    def test_snapshot_matches_live_parameters(self):
        model = init_model(tiny_cfg())
        for name, t in model.params.items():
            assert np.array_equal(t.data, model.init_snapshot[name])

    def test_fixed_w_is_frozen(self):
        model = init_model(tiny_cfg(variant=CRATE_FIX))
        assert not model.params["layers.0.W"].requires_grad
        assert "layers.0.W" not in model.trainable_params()
        assert model.params["layers.0.U"].requires_grad
        # still included in the tracked matrices and the snapshot
        names = [n for n, _ in model.tracked_matrices()]
        assert "layers.0.W" in names
        assert "layers.0.W" in model.init_snapshot

    def test_tracked_matrices_exclude_vectors(self):
        model = init_model(tiny_cfg())
        names = [n for n, _ in model.tracked_matrices()]
        assert names == ["embed", "layers.0.U", "layers.0.D", "layers.1.U", "layers.1.D", "head.weight"]


class TestEmbedInputs:
    def test_shapes(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg)
        tok = model.embed_inputs(x)
        assert tok.shape == (3, cfg.d, cfg.tokens)
        single = model.embed_inputs(x[:1])[0]
        np.testing.assert_allclose(single, tok[0], atol=0)

    def test_matches_tokenize_for_images(self):
        cfg = ModelConfig(L=1, d=8, K=2, patch=2, image_size=4, channels=1, num_classes=3, seed=2)
        model = init_model(cfg)
        img = rng_for(5).random((4, 4, 1))
        via_model = model.embed_inputs(patchify(img[None], 2))[0]
        P = {k: t.data for k, t in model.params.items()}
        cols = patchify(img[None], 2)[0]
        via_hand = np.concatenate([P["cls"][:, None], P["embed"] @ cols], axis=1) + P["pos"]
        np.testing.assert_allclose(via_model, via_hand, atol=1e-15)

    def test_wrong_feature_dim(self):
        model = init_model(tiny_cfg())
        with pytest.raises(ShapeError):
            model.embed_inputs(np.zeros((2, 7, 3)))

    def test_training_dropout_needs_an_rng(self):
        cfg = tiny_cfg(dropout=0.1)
        with pytest.raises(ConfigError, match="needs an rng"):
            init_model(cfg).embed_inputs(tiny_batch(cfg), train_mode=True)


class TestForward:
    def test_probe_count_and_consistency(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=1)
        logits, _ = model.run(model.embed_inputs(x)[0])
        probes = model.probe(x)
        assert logits.shape == (cfg.num_classes,)
        assert [p.layer for p in probes] == [1, 2]
        for p in probes:
            assert p.srr == pytest.approx(0.1 * p.l0 + p.rc - p.r, abs=1e-10)

    def test_inference_deterministic(self):
        cfg = tiny_cfg(dropout=0.5)  # dropout configured but inactive at inference
        model = init_model(cfg)
        tok = model.embed_inputs(tiny_batch(cfg))
        a, _ = model.run(tok)
        b, _ = model.run(tok)
        assert np.array_equal(a, b)

    def test_batch_matches_per_sample(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=4)
        tok = model.embed_inputs(x)
        batch_logits, _ = model.run(tok)
        for b in range(4):
            single, _ = model.run(tok[b])
            np.testing.assert_allclose(batch_logits[b], single, atol=1e-12)

    def test_wrong_width_rejected(self):
        model = init_model(tiny_cfg())
        with pytest.raises(ShapeError):
            model.run(np.zeros((7, 4)))

    def test_dropout_needs_rng(self):
        cfg = tiny_cfg(dropout=0.2)
        model = init_model(cfg)
        tok = Tensor(model.embed_inputs(tiny_batch(cfg)))  # a Tensor input is the training forward
        with pytest.raises(ConfigError):
            model.run(tok)

    def test_traced_forward_refuses_ln_identity(self):
        # an inference option: the layer node always normalizes
        cfg = tiny_cfg()
        model = init_model(cfg)
        with pytest.raises(ConfigError, match="ln_identity"):
            model.run(model.embed_inputs(tiny_batch(cfg), train_mode=True), ln_identity=True)

    @pytest.mark.parametrize("variant", [CRATE_C, CRATE])
    def test_traced_forward_is_one_node_per_layer(self, variant):
        # each layer's output is the node on its input and its own parameters
        cfg = tiny_cfg(L=3, variant=variant)
        model = init_model(cfg)
        Z = model.embed_inputs(tiny_batch(cfg), train_mode=True)
        _, cache = model.run(Z, keep_cache=True)
        names = ("ln1_gain", "ln1_bias", "U") + (("W",) if variant == CRATE else ()) + ("ln2_gain", "ln2_bias", "D")
        for i, entry in enumerate(cache):
            assert entry["input"] is Z
            assert entry["output"]._parents == (Z,) + tuple(model.params[f"layers.{i}.{n}"] for n in names)
            Z = entry["output"]

    def test_ln_identity_composition(self):
        from srr.layers import attention_update, ista_step

        cfg = tiny_cfg(L=1)
        model = init_model(cfg)
        tok = model.embed_inputs(tiny_batch(cfg, B=1))[0]
        logits, _ = model.run(tok, ln_identity=True)
        P = {k: t.data for k, t in model.params.items()}
        Z = ista_step(
            attention_update(tok, P["layers.0.U"], cfg.K, cfg.variant, 1.0, cfg.alpha),
            P["layers.0.D"], cfg.beta, cfg.lambda_sparsity,
        )
        want = P["head.weight"] @ Z[:, 0] + P["head.bias"]
        np.testing.assert_allclose(logits, want, atol=1e-12)

    def test_layer_composition_order(self):
        # one layer by hand: LN1 -> attention -> LN2 -> ISTA
        from srr.layers import attention_update, ista_step

        cfg = tiny_cfg(L=1)
        model = init_model(cfg)
        tok = model.embed_inputs(tiny_batch(cfg, B=1))[0]
        P = {k: t.data for k, t in model.params.items()}
        Zn = layer_norm(tok, P["layers.0.ln1_gain"], P["layers.0.ln1_bias"])
        Za = attention_update(Zn, P["layers.0.U"], cfg.K, cfg.variant, 1.0, cfg.alpha)
        Ya = layer_norm(Za, P["layers.0.ln2_gain"], P["layers.0.ln2_bias"])
        Z1 = ista_step(Ya, P["layers.0.D"], cfg.beta, cfg.lambda_sparsity)
        want = P["head.weight"] @ Z1[:, 0] + P["head.bias"]
        got, _ = model.run(tok)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_probe_rate_override(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=1)
        probes_a = model.probe(x, eps_sq=2.0, lambda_sparsity=0.5)
        probes_b = model.probe(x)
        assert probes_a[0].srr != probes_b[0].srr

    def test_variant_sign_flip_on_shared_weights(self):
        cfg_c = tiny_cfg(variant=CRATE_C)
        model_c = init_model(cfg_c)
        model_n = Model(dataclasses.replace(cfg_c, variant=CRATE_N), model_c.params, model_c.init_snapshot)
        tok = model_c.embed_inputs(tiny_batch(cfg_c, B=1))[0]
        P = {k: t.data for k, t in model_c.params.items()}
        Zn = layer_norm(tok, P["layers.0.ln1_gain"], P["layers.0.ln1_bias"])
        from srr.layers import attention_update

        up_c = attention_update(Zn, P["layers.0.U"], cfg_c.K, CRATE_C, 1.0, cfg_c.alpha)
        up_n = attention_update(Zn, P["layers.0.U"], cfg_c.K, CRATE_N, 1.0, cfg_c.alpha)
        np.testing.assert_allclose(up_c + up_n, 2 * Zn, atol=1e-12)
        # and the two full models differ (sign actually reached the update)
        a, _ = model_c.run(tok)
        b, _ = model_n.run(tok)
        assert not np.allclose(a, b)


class TestInferenceEntries:
    def test_logits_independent_of_chunk_size(self, monkeypatch):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=5)
        for ln_identity in (False, True):
            monkeypatch.setattr(model_module, "INFERENCE_BATCH", 1)
            one = model.logits(x, ln_identity=ln_identity)
            monkeypatch.setattr(model_module, "INFERENCE_BATCH", len(x))
            whole = model.logits(x, ln_identity=ln_identity)
            np.testing.assert_allclose(one, whole, rtol=0, atol=1e-12)
            want, _ = model.run(model.embed_inputs(x), ln_identity=ln_identity)
            assert np.array_equal(whole, want)
            np.testing.assert_allclose(one, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("entry", ["logits", "probe"])
    def test_empty_batch_is_a_config_error(self, entry):
        cfg = tiny_cfg()
        with pytest.raises(ConfigError, match="at least one sample"):
            getattr(init_model(cfg), entry)(tiny_batch(cfg, B=0))

    @pytest.mark.parametrize("entry", ["embed_inputs", "logits", "probe"])
    def test_one_unbatched_sample_is_a_shape_error(self, entry):
        cfg = tiny_cfg()
        with pytest.raises(ShapeError, match=r"\(batch, features, tokens\)"):
            getattr(init_model(cfg), entry)(tiny_batch(cfg)[0])

    def test_probe_is_the_layer_measure_with_layer_norm_bypassed(self):
        cfg = tiny_cfg(L=3)
        model = init_model(cfg)
        x = tiny_batch(cfg, B=4)
        probes = model.probe(x, eps_sq=0.7, lambda_sparsity=0.3)
        assert [p.layer for p in probes] == [1, 2, 3]
        _, cache = model.run(model.embed_inputs(x), ln_identity=True, keep_cache=True)
        pc = RateConfig(d=cfg.d, N=cfg.tokens, K=cfg.K, eps_sq=0.7, lambda_sparsity=0.3)
        for p, entry in zip(probes, cache):
            U = model.params[f"layers.{p.layer - 1}.U"].data
            want = np.mean([rates.srr_layer_measure(z, U, pc) for z in entry["output"]])
            assert p.srr == pytest.approx(want, rel=1e-12, abs=0)
            assert p.srr == pytest.approx(0.3 * p.l0 + p.rc - p.r, rel=1e-12, abs=0)


class TestLayerRates:
    @pytest.mark.parametrize("scale", ["probe", "regularizer"])
    def test_batch_means_match_the_numpy_oracle(self, scale):
        B, d, N, K = 5, 12, 7, 3
        Z = np.maximum(rng_for(70).standard_normal((B, d, N)), 0.0)
        U = rng_for(71).standard_normal((d, d)) / np.sqrt(d)
        pc = RateConfig(d=d, N=N, K=K)
        if scale == "probe":
            gamma, full = pc.gamma, pc.full_scale
            r, rc, l0 = _layer_rates(Z, U, K, gamma, full)
        else:  # the regularizer's attention gamma, on the tape
            gamma = ModelConfig(d=d, K=K).attention_gamma(N)
            full = K * gamma
            r, rc, l0 = _layer_rates(Tensor(Z, requires_grad=True), Tensor(U, requires_grad=True), K, gamma, full)
        want_r = np.mean([rates.coding_rate(z, full) for z in Z])
        want_rc = np.mean([rates.projected_coding_rate(z, U, K, gamma) for z in Z])
        want_l0 = np.mean([rates.sparsity_l0(z) for z in Z])
        np.testing.assert_allclose(
            [r.data.mean(), rc.data.mean(), l0.mean()], [want_r, want_rc, want_l0], rtol=1e-12, atol=0
        )
        if scale == "probe":
            srr = pc.lambda_sparsity * l0 + rc.data - r.data
            want = [rates.srr_layer_measure(z, U, pc) for z in Z]
            np.testing.assert_allclose(srr, want, rtol=1e-12, atol=0)

    def test_non_finite_tokens_rejected(self):
        Z = np.ones((8, 3))
        Z[2, 1] = np.nan
        with pytest.raises(NumericError):
            _layer_rates(Z, np.eye(8), 2, 1.0, 2.0)


def composed_rates(z, U, num_heads, gamma, full_scale):
    """R and R_c as the composed graph of per-head slices, transposes,
    products and log-dets that the R_c node replaces."""
    rc = None
    for Uk in split_heads(U, num_heads):
        UkT = ad._node(np.swapaxes(Uk.data, -1, -2), (Uk,), (lambda g: np.swapaxes(g, -1, -2),))
        term = ad.logdet_gram(UkT @ z, gamma)
        rc = term if rc is None else rc + term
    return ad.logdet_gram(z, full_scale), rc


class TestSubspaceRateNode:
    @pytest.mark.parametrize("batch", [(3,), ()])
    @pytest.mark.parametrize("K", [1, 3])
    def test_node_is_the_composed_graph(self, batch, K):
        d, N, gamma = 12, 7, 0.9
        Z = np.maximum(rng_for(110).standard_normal(batch + (d, N)), 0.0)
        U = rng_for(111).standard_normal((d, d)) / np.sqrt(d)
        w, wu = rng_for(112).standard_normal(Z.shape), rng_for(113).standard_normal(U.shape)

        def run(rates_of):
            zl, ul = Tensor(Z, requires_grad=True), Tensor(U, requires_grad=True)
            z = zl * 1.5  # an interior node, as a layer's output is
            r, rc = rates_of(z, ul, K, gamma, K * gamma)[:2]
            diff = rc - r
            loss = (diff.mean() if diff.ndim else diff) + (z * w).sum() + (ul * wu).sum()
            loss.backward()
            return rc.data, zl.grad, ul.grad

        for got, want in zip(run(_layer_rates), run(composed_rates)):
            assert np.array_equal(got, want)

    def test_gradient_is_the_closed_form_oracle(self):
        d, N, K, gamma = 12, 7, 3, 0.7
        Z0 = rng_for(114).standard_normal((d, N))
        U = rng_for(115).standard_normal((d, d)) / np.sqrt(d)
        z = Tensor(Z0, requires_grad=True)
        rc = _layer_rates(z, U, K, gamma, K * gamma)[1]
        rc.backward()
        assert rc.item() == pytest.approx(rates.projected_coding_rate(Z0, U, K, gamma), rel=1e-12, abs=0)
        np.testing.assert_allclose(z.grad, rates.grad_projected_coding_rate(Z0, U, K, gamma), rtol=1e-10, atol=1e-13)


class TestMemory:
    def test_train_mode_forward_keeps_only_what_the_backward_reads(self):
        # bytes held per layer: one more layer's forward, minus the shorter one's
        B, d, K, N = 4, 48, 4, 25

        def held(L):
            model = init_model(ModelConfig(L=L, d=d, K=K, feat_dim=6, num_tokens=N - 1, num_classes=3))
            raw = rng_for(1).standard_normal((B, 6, N - 1))
            out, kept, _ = traced(lambda: model.run(model.embed_inputs(raw, train_mode=True)))
            return kept

        held(2)  # warm-up: one-time first-call allocations land here, not in the figure
        per_layer = held(3) - held(2)
        tokens, gram, column = B * d * N * 8, B * N * N * 8, B * N * 8
        # one node: both layer norms' mean and 1/std columns, the attention
        # output and every A_k (d rows in all), the layer output and the
        # residual Y - D Y; no softmax S_k, no normalized input
        arrays = 2 * (2 * tokens + 2 * column)
        assert arrays == 156_800
        # the rest is node and closure objects, far below one extra (B, N, N) array
        assert arrays <= per_layer < arrays + 16 * 1024, (per_layer, arrays)

    def test_regularized_forward_keeps_only_the_head_projections_more(self):
        # all_layers: bytes held per layer after srr_regularized_loss, L=3 minus L=2
        from srr.training import TrainConfig, srr_regularized_loss

        # R's Gram (B, N, N) and each R_c Gram (B, p, p) are over the slack below
        B, d, K, N = 8, 48, 2, 41
        cfg = TrainConfig(batch_size=B, reg_mode="all_layers", eta_reg=1e-3)

        def held(L):
            model = init_model(ModelConfig(L=L, d=d, K=K, feat_dim=6, num_tokens=N - 1, num_classes=3))
            batch = rng_for(1).standard_normal((B, 6, N - 1)), np.arange(B) % 3
            return traced(lambda: srr_regularized_loss(model, batch, cfg))[1]

        held(2)  # warm-up
        per_layer = held(3) - held(2)
        tokens, column = B * d * N * 8, B * N * 8
        # the layer's node as without the regularizer; its R_c term keeps
        # the K head projections U_k^T Z (d rows in all), and R keeps nothing
        # beyond its input, the layer output the tape holds anyway
        arrays = 2 * (2 * tokens + 2 * column) + tokens
        slack = 32 * 1024  # node and closure objects
        assert slack < min(B * N * N * 8, B * (d // K) ** 2 * 8)
        assert arrays <= per_layer < arrays + slack, (per_layer, arrays)

    def test_backward_sums_weight_gradients_without_a_batch_stack(self, monkeypatch):
        # B = 8 per-sample (d, d) products of each weight gradient; two tokens
        # keep every other array of the backward far smaller than their stack
        B, d = 8, 48
        model = init_model(ModelConfig(L=1, d=d, K=4, feat_dim=2, num_tokens=1, num_classes=2))
        raw, labels = rng_for(5).standard_normal((B, 2, 1)), np.arange(B) % 2
        stack = B * d * d * 8

        def peak(budget):
            monkeypatch.setattr(ad, "_PRODUCT_BYTES", budget)
            for t in model.params.values():
                t.grad = None
            logits, _ = model.run(model.embed_inputs(raw, train_mode=True))
            loss = ad.softmax_cross_entropy(logits, labels)
            return traced(loss.backward)[2]

        assert peak(ad._PRODUCT_BYTES) >= stack  # one reduce over the whole stack
        assert peak(d * d * 8) < stack  # one product at a time

    @pytest.mark.parametrize("reg_mode", ["none", "all_layers"])
    def test_backward_peak_is_the_two_node_tapes_and_one_token_array(self, reg_mode):
        # tracemalloc peak rise of gradients() at paper width, three layers,
        # after a warm-up walk.  The tape of two nodes a layer (attention and
        # ISTA, each with its layer norm folded in) peaked at these figures;
        # the layer node holds the layer output's cotangent through its whole
        # VJP, at most one (B, d, N) array more
        from srr.training import TrainConfig, gradients, srr_regularized_loss

        B, d, N = 8, 384, 65
        two_node_peak = {"none": 21_932_196, "all_layers": 23_347_428}[reg_mode]
        model = init_model(ModelConfig(L=3, d=d, K=6, feat_dim=6, num_tokens=N - 1, num_classes=3))
        cfg = TrainConfig(batch_size=B, reg_mode=reg_mode, eta_reg=0.0 if reg_mode == "none" else 1e-3)
        batch = rng_for(1).standard_normal((B, 6, N - 1)), np.arange(B) % 3
        for _ in range(2):
            loss, _ = srr_regularized_loss(model, batch, cfg)
            peak = traced(lambda: gradients(loss, model.trainable_params()))[2]
        assert peak <= two_node_peak + B * d * N * 8, peak

    def test_second_logits_call_allocates_no_large_array(self):
        # desk geometry: (256, 32, 9) tokens; every (B, ., N) temporary comes
        # from the workspace the first call filled, so only (B, 1, N)-sized
        # arrays are made
        cfg = ModelConfig(L=2, d=32, K=4, feat_dim=16, num_tokens=8, num_classes=4)
        model = init_model(cfg)
        raw = rng_for(2).standard_normal((256, 16, 8))
        first = model.logits(raw)
        second, _, peak = traced(lambda: model.logits(raw))
        assert np.array_equal(first, second)
        assert peak < 64 * 1024

    def test_no_reused_buffer_reaches_a_caller(self):
        model = init_model(tiny_cfg())
        raw, other = tiny_batch(model.cfg, B=5, seed=3), tiny_batch(model.cfg, B=5, seed=4)
        logits = model.logits(raw)
        tokens = model.embed_inputs(raw)
        _, cache = model.run(tokens, keep_cache=True)
        kept = [logits.copy(), tokens.copy()] + [entry["output"].copy() for entry in cache]
        model.logits(other)
        model.run(model.embed_inputs(other), keep_cache=True)
        model.run(model.embed_inputs(other))
        for got, want in zip([logits, tokens] + [entry["output"] for entry in cache], kept):
            assert np.array_equal(got, want)


class TestWorkspace:
    def test_models_of_one_shape_keep_their_own_bits(self):
        cfg = tiny_cfg()
        inputs = (tiny_batch(cfg, B=5, seed=3), tiny_batch(cfg, B=5, seed=4))
        cfgs = (cfg, dataclasses.replace(cfg, seed=1))
        solo = [[init_model(c).logits(x) for x in inputs] for c in cfgs]
        models = [init_model(c) for c in cfgs]
        for _ in range(2):
            for j, x in enumerate(inputs):
                for model, want in zip(models, solo):
                    assert np.array_equal(model.logits(x), want[j])

    def test_workspace_dies_with_its_model(self):
        model = init_model(tiny_cfg())
        model.logits(tiny_batch(model.cfg))
        assert model._workspace.buffers
        ref = weakref.ref(model._workspace)
        del model
        gc.collect()
        assert ref() is None

    def test_a_split_batch_between_calls_keeps_the_bits(self):
        # 3 + INFERENCE_BATCH samples: the last chunk of the middle call has
        # another token shape than every chunk around it
        cfg = tiny_cfg()
        model = init_model(cfg)
        raw = tiny_batch(cfg, B=model_module.INFERENCE_BATCH + 3)
        full = raw[: model_module.INFERENCE_BATCH]
        first = model.logits(full)
        split = model.logits(raw)
        assert np.array_equal(model.logits(full), first)
        assert np.array_equal(split, init_model(cfg).logits(raw))
        assert np.array_equal(split[: len(full)], first)


def _rewrite_checkpoint(path, edit):
    with np.load(path) as zf:
        entries = {key: zf[key] for key in zf.files}
    edit(entries)
    np.savez(path, **entries)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_cfg(variant=CRATE_FIX, seed=9)
        model = init_model(cfg)
        # perturb a parameter so live values differ from the snapshot
        model.params["embed"].data += 1.0
        path = tmp_path / "model.npz"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.cfg == cfg
        assert list(loaded.params) == list(model.params)
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data)
            assert loaded.params[name].requires_grad == t.requires_grad
        assert not loaded.params["layers.0.W"].requires_grad
        for name, arr in model.init_snapshot.items():
            assert np.array_equal(arr, loaded.init_snapshot[name])

    def test_roundtrip_inference_identical(self, tmp_path):
        cfg = tiny_cfg()
        model = init_model(cfg)
        tok = model.embed_inputs(tiny_batch(cfg))
        path = tmp_path / "m.npz"
        save_checkpoint(model, str(path))
        loaded = load_checkpoint(str(path))
        a, _ = model.run(tok)
        b, _ = loaded.run(tok)
        assert np.array_equal(a, b)

    def test_written_at_exactly_the_given_path(self, tmp_path):
        # np.savez appends ".npz" to any other name given as a path
        model = init_model(tiny_cfg())
        path = tmp_path / "x.bin"
        save_checkpoint(model, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
        loaded = load_checkpoint(str(path))
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data)

    def test_same_bytes_as_a_plain_savez(self, tmp_path):
        model = init_model(tiny_cfg(variant=CRATE_FIX))
        save_checkpoint(model, str(tmp_path / "a.npz"))
        with np.load(str(tmp_path / "a.npz")) as zf:
            entries = {key: zf[key] for key in zf.files}
        np.savez(str(tmp_path / "b.npz"), **entries)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "m.npz"
        save_checkpoint(init_model(tiny_cfg()), str(path))
        before = path.read_bytes()

        def broken_savez(fh, **entries):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_model(tiny_cfg(seed=1)), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]
        assert path.read_bytes() == before

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(str(path), **{"meta.version": np.array(999), "meta.config": np.array("{}")})
        with pytest.raises(FormatError):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(init_model(tiny_cfg()), str(path))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(FormatError, match="unreadable checkpoint"):
            load_checkpoint(str(path))

    def test_npy_file_rejected(self, tmp_path):
        path = tmp_path / "v.npy"
        np.save(str(path), np.zeros(3))
        with pytest.raises(FormatError, match="unreadable checkpoint: one .npy array"):
            load_checkpoint(str(path))

    def test_missing_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(init_model(tiny_cfg()), path)
        _rewrite_checkpoint(path, lambda e: e.pop("param.embed"))
        with pytest.raises(FormatError, match="'param.embed'"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(init_model(tiny_cfg()), path)
        _rewrite_checkpoint(path, lambda e: e.update({"param.layers.1.U": np.zeros((8, 6))}))
        with pytest.raises(FormatError, match="'param.layers.1.U'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change, named",
        [({"depth": 3}, "'depth'"), ({"L": "2"}, "L must be an int >= 1, got '2'")],
        ids=["unknown_key", "wrong_type"],
    )
    def test_bad_config_rejected(self, tmp_path, change, named):
        path = str(tmp_path / "m.npz")
        save_checkpoint(init_model(tiny_cfg()), path)

        def edit_config(entries):
            cfg = json.loads(str(entries["meta.config"]))
            entries["meta.config"] = np.array(json.dumps(dict(cfg, **change)))

        _rewrite_checkpoint(path, edit_config)
        with pytest.raises(FormatError, match=named):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda e: e.pop("meta.config"), "missing or malformed model config"),
            (lambda e: e.update({"meta.config": np.array('{"L": 2, "d": 8')}), "model config is not valid JSON"),
            (lambda e: e.update({"meta.config": np.array(json.dumps(
                {k: v for k, v in json.loads(str(e["meta.config"])).items() if k != "variant"}))}),
             "model config key 'variant' is missing"),
        ],
        ids=["no_config", "not_json", "key_removed"],
    )
    def test_unreadable_config_rejected(self, tmp_path, edit, named):
        path = str(tmp_path / "m.npz")
        save_checkpoint(init_model(tiny_cfg()), path)
        _rewrite_checkpoint(path, edit)
        with pytest.raises(FormatError, match=named) as info:
            load_checkpoint(path)
        assert path in str(info.value)
