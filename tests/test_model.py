import dataclasses
import json

import numpy as np
import pytest

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
from srr.rates import RateConfig


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
        single = model.embed_inputs(x[0])
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


class TestForward:
    def test_probe_count_and_consistency(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=1)[0]
        logits, _ = model.run(model.embed_inputs(x))
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
        tok = model.embed_inputs(tiny_batch(cfg))
        with pytest.raises(ConfigError):
            model.run(tok, train_mode=True)

    def test_ln_identity_composition(self):
        from srr.layers import attention_update, ista_step

        cfg = tiny_cfg(L=1)
        model = init_model(cfg)
        tok = model.embed_inputs(tiny_batch(cfg, B=1)[0])
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
        tok = model.embed_inputs(tiny_batch(cfg, B=1)[0])
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
        x = tiny_batch(cfg, B=1)[0]
        probes_a = model.probe(x, eps_sq=2.0, lambda_sparsity=0.5)
        probes_b = model.probe(x)
        assert probes_a[0].srr != probes_b[0].srr

    def test_variant_sign_flip_on_shared_weights(self):
        cfg_c = tiny_cfg(variant=CRATE_C)
        model_c = init_model(cfg_c)
        model_n = Model(dataclasses.replace(cfg_c, variant=CRATE_N), model_c.params, model_c.init_snapshot)
        tok = model_c.embed_inputs(tiny_batch(cfg_c, B=1)[0])
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
    def test_logits_independent_of_chunk_size(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        x = tiny_batch(cfg, B=5)
        for ln_identity in (False, True):
            one = model.logits(x, ln_identity=ln_identity, batch=1)
            whole = model.logits(x, ln_identity=ln_identity, batch=len(x))
            np.testing.assert_allclose(one, whole, rtol=0, atol=1e-12)
            want, _ = model.run(model.embed_inputs(x), ln_identity=ln_identity)
            assert np.array_equal(whole, want)
            np.testing.assert_allclose(one, want, rtol=0, atol=1e-12)

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

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(str(path), **{"meta.version": np.array(999), "meta.config": np.array("{}")})
        with pytest.raises(FormatError):
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
        "change, named", [({"depth": 3}, "'depth'"), ({"L": "2"}, "str")], ids=["unknown_key", "wrong_type"]
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
