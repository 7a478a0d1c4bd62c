import numpy as np
import pytest

import srr.autodiff as ad
from srr.autodiff import Tensor
from srr.data import DatasetSpec, synth_dataset
from srr.errors import ConfigError, NumericError
from srr.linalg import cross_entropy_np, orthonormal_basis, rng_for
from srr.model import ModelConfig, _layer_rates, init_model
from srr.rates import coding_rate, grad_projected_coding_rate, sparsity_l0
from srr.training import (
    Adam,
    TRACE_COLUMNS,
    TrainConfig,
    _layer_srr_term,
    cross_entropy_np,
    evaluate,
    gradients,
    schedule_lr,
    srr_regularized_loss,
    train,
)


def tiny_model(L=2, d=16, K=4, seed=0, **kw):
    cfg = ModelConfig(L=L, d=d, K=K, feat_dim=6, num_tokens=4, num_classes=3, seed=seed, **kw)
    return init_model(cfg)


def tiny_batch(model, B=5, seed=1):
    cfg = model.cfg
    x = rng_for(seed).standard_normal((B, cfg.in_dim, cfg.grid_tokens))
    y = rng_for(seed, "y").integers(0, cfg.num_classes, B)
    return x, y


def sep_dataset(seed=0, n_train=64, n_val=32):
    spec = DatasetSpec(
        source="synthetic", classes=2, tokens=4, feat_dim=6, subspace_dim=2,
        separation=5.0, noise=0.1, n_train=n_train, n_val=n_val, seed=seed,
    )
    return synth_dataset(spec)


class TestTrainConfig:
    def test_eta_iff_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(eta_reg=0.1, reg_mode="none")
        with pytest.raises(ConfigError):
            TrainConfig(eta_reg=0.0, reg_mode="all_layers")

    def test_fixed_layer_needs_index(self):
        with pytest.raises(ConfigError):
            TrainConfig(eta_reg=0.1, reg_mode="fixed_layer")

    @pytest.mark.parametrize("lr", [-0.5, 0.0, float("nan"), float("inf")])
    def test_lr_init_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="lr_init"):
            TrainConfig(lr_init=lr)

    def test_unknown_mode_and_schedule(self):
        with pytest.raises(ConfigError):
            TrainConfig(reg_mode="sometimes")
        with pytest.raises(ConfigError):
            TrainConfig(schedule="linear")


class TestSchedule:
    def test_cosine_endpoints(self):
        cfg = TrainConfig(lr_init=1e-3, epochs=10)
        assert schedule_lr(cfg, 0) == 1e-3
        assert schedule_lr(cfg, 9) == pytest.approx(0.0, abs=1e-19)

    def test_cosine_midpoint(self):
        cfg = TrainConfig(lr_init=2.0, epochs=11)
        assert schedule_lr(cfg, 5) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        cfg = TrainConfig(lr_init=1e-3, epochs=10, schedule="constant")
        assert schedule_lr(cfg, 7) == 1e-3

    def test_single_epoch(self):
        cfg = TrainConfig(lr_init=1e-3, epochs=1)
        assert schedule_lr(cfg, 0) == 1e-3


class TestGradients:
    def test_head_gradient_matches_finite_differences(self):
        model = tiny_model()
        x, y = tiny_batch(model)

        def np_loss(model):
            return cross_entropy_np(model.logits(x), y)

        loss, parts = srr_regularized_loss(model, (x, y), TrainConfig())
        grads = gradients(loss, model.trainable_params())
        hw = model.params["head.weight"]
        fd = np.zeros_like(hw.data)
        h = 1e-6
        for i in range(hw.data.shape[0]):
            for j in range(hw.data.shape[1]):
                orig = hw.data[i, j]
                hw.data[i, j] = orig + h
                up = np_loss(model)
                hw.data[i, j] = orig - h
                dn = np_loss(model)
                hw.data[i, j] = orig
                fd[i, j] = (up - dn) / (2 * h)
        rel = np.linalg.norm(grads["head.weight"] - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5

    def test_embed_gradient_matches_finite_differences(self):
        model = tiny_model(L=1, d=8, K=2)
        x, y = tiny_batch(model, B=3)

        loss, _ = srr_regularized_loss(model, (x, y), TrainConfig())
        grads = gradients(loss, model.trainable_params())

        emb = model.params["embed"]
        fd = np.zeros_like(emb.data)
        h = 1e-6
        for i in range(emb.data.shape[0]):
            for j in range(emb.data.shape[1]):
                orig = emb.data[i, j]
                emb.data[i, j] = orig + h
                up = cross_entropy_np(model.logits(x), y)
                emb.data[i, j] = orig - h
                dn = cross_entropy_np(model.logits(x), y)
                emb.data[i, j] = orig
                fd[i, j] = (up - dn) / (2 * h)
        rel = np.linalg.norm(grads["embed"] - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5

    def test_rc_gradient_matches_analytic(self):
        # the traced subspace-rate term against the closed-form gradient
        d, N, K, gamma = 8, 5, 2, 1.1
        Z0 = rng_for(9).standard_normal((d, N))
        U = orthonormal_basis(d, seed=10)
        z = Tensor(Z0, requires_grad=True)
        p = d // K
        rc = None
        for k in range(K):
            A = Tensor(U[:, k * p : (k + 1) * p].T) @ z
            t = ad.logdet_gram(A, gamma)
            rc = t if rc is None else rc + t
        rc.backward()
        analytic = grad_projected_coding_rate(Z0, U, K, gamma)
        rel = np.linalg.norm(z.grad - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-6

    def test_untouched_parameters_get_zeros(self):
        model = tiny_model()
        b = model.params["head.bias"]
        loss = ((b + 1.0) * (b + 1.0)).sum()
        grads = gradients(loss, model.trainable_params())
        assert grads["embed"].shape == model.params["embed"].data.shape
        assert not grads["embed"].any()
        assert grads["head.bias"].any()

    def test_constant_loss_all_zero(self):
        model = tiny_model(L=1, d=8, K=2)
        loss = (model.params["head.bias"] * 0.0).sum()
        grads = gradients(loss, model.trainable_params())
        assert all(not g.any() for g in grads.values())

    def test_non_finite_loss_raises(self):
        model = tiny_model(L=1, d=8, K=2)
        with pytest.raises(NumericError):
            gradients(Tensor(np.nan, requires_grad=True), model.trainable_params())


class TestRegularizedLoss:
    def test_eta_zero_is_plain_ce(self):
        model = tiny_model()
        x, y = tiny_batch(model)
        loss, parts = srr_regularized_loss(model, (x, y), TrainConfig())
        assert loss.item() == parts["ce"]
        assert parts["reg_value"] == 0.0
        assert parts["selected_layers"] == []
        assert loss.item() == cross_entropy_np(model.logits(x), y)

    def test_stop_gradient_blocks_earlier_layers(self):
        model = tiny_model(L=3, d=8, K=2)
        x, y = tiny_batch(model, B=4)
        plain, _ = srr_regularized_loss(model, (x, y), TrainConfig())
        g_ce = gradients(plain, model.trainable_params())
        cfg = TrainConfig(eta_reg=0.5, reg_mode="fixed_layer", reg_layer=3)
        full, parts = srr_regularized_loss(model, (x, y), cfg)
        g_full = gradients(full, model.trainable_params())
        assert parts["selected_layers"] == [3]
        # the layer-3 term's gradient reaches layer 3 only: everything else is
        # bitwise equal to the pure-CE gradients
        for name in g_ce:
            if name.startswith("layers.2."):
                continue
            assert np.array_equal(g_full[name], g_ce[name]), name
        assert not np.array_equal(g_full["layers.2.U"], g_ce["layers.2.U"])
        assert not np.array_equal(g_full["layers.2.D"], g_ce["layers.2.D"])

    def test_all_layers_recomposition(self):
        model = tiny_model(L=3, d=8, K=2)
        x, y = tiny_batch(model, B=4)
        cfg = TrainConfig(eta_reg=0.2, reg_mode="all_layers")
        loss, parts = srr_regularized_loss(model, (x, y), cfg)
        assert parts["selected_layers"] == [1, 2, 3]

        # recompute each term independently from the cached inputs
        mcfg = model.cfg
        gamma = 1.0
        terms = []
        for i, entry in enumerate(parts["cache"]):
            zin = entry["input"].data
            zout = model.apply_layer(i, Tensor(zin)).data
            U = model.params[f"layers.{i}.U"].data
            vals = []
            for b in range(zout.shape[0]):
                from srr.rates import projected_coding_rate

                rc = projected_coding_rate(zout[b], U, mcfg.K, gamma)
                r = coding_rate(zout[b], mcfg.K * gamma)
                vals.append(rc - r)
            l0 = np.mean([sparsity_l0(zout[b]) for b in range(zout.shape[0])])
            terms.append(np.mean(vals) + mcfg.lambda_sparsity * l0)
        want = parts["ce"] + 0.2 * np.mean(terms)
        assert loss.item() == pytest.approx(want, abs=1e-10)
        assert parts["reg_value"] == pytest.approx(np.mean(terms), abs=1e-10)

    def test_term_is_the_shared_measure_of_the_replayed_output(self):
        # the term is the shared measure of the forward's own cached output
        model = tiny_model(L=2, d=8, K=2)
        x, y = tiny_batch(model, B=3)
        _, parts = srr_regularized_loss(model, (x, y), TrainConfig(eta_reg=0.1, reg_mode="all_layers"))
        mcfg = model.cfg
        gamma = mcfg.attention_gamma(mcfg.tokens)
        for i, entry in enumerate(parts["cache"]):
            term = _layer_srr_term(model, i, entry["output"])
            U = model.params[f"layers.{i}.U"]
            l0 = np.mean(_layer_rates(entry["output"], U, mcfg.K, gamma, mcfg.K * gamma)[2])
            zout = entry["output"].data
            r, rc, l0s = _layer_rates(zout, model.params[f"layers.{i}.U"].data, mcfg.K, gamma, mcfg.K * gamma)
            assert l0 == np.mean(l0s)
            want = mcfg.lambda_sparsity * np.mean(l0s) + np.mean(rc.data) - np.mean(r.data)
            assert term.item() == pytest.approx(want, rel=1e-12, abs=0)

    def test_random_layer_selection(self):
        model = tiny_model(L=3, d=8, K=2)
        x, y = tiny_batch(model, B=4)
        cfg = TrainConfig(eta_reg=0.1, reg_mode="random_layer")
        seen = set()
        for s in range(8):
            _, parts = srr_regularized_loss(model, (x, y), cfg, rng=rng_for(s))
            (layer,) = parts["selected_layers"]
            assert 1 <= layer <= 3
            seen.add(layer)
        assert len(seen) > 1  # actually varies
        with pytest.raises(ConfigError):
            srr_regularized_loss(model, (x, y), cfg, rng=None)

    def test_fixed_layer_out_of_range(self):
        model = tiny_model(L=2, d=8, K=2)
        x, y = tiny_batch(model)
        cfg = TrainConfig(eta_reg=0.1, reg_mode="fixed_layer", reg_layer=5)
        with pytest.raises(ConfigError):
            srr_regularized_loss(model, (x, y), cfg)

    def test_dropout_masks_replayed_exactly(self):
        # with dropout active, the cache holds the masks the forward drew: a
        # layer rerun from its cached input with them rebuilds the cached
        # output node the regularizer reads, bit for bit
        model = tiny_model(L=2, d=8, K=2, dropout=0.3)
        x, y = tiny_batch(model, B=2)
        cfg = TrainConfig(eta_reg=0.1, reg_mode="all_layers")
        _, parts = srr_regularized_loss(model, (x, y), cfg, rng=rng_for(77))
        for i, entry in enumerate(parts["cache"]):
            replay = model.apply_layer(
                i, entry["input"].detach(), entry["attn_masks"], entry["out_mask"]
            )
            np.testing.assert_array_equal(replay.data, entry["output"].data)
            term = _layer_srr_term(model, i, entry["output"])
            again = _layer_srr_term(model, i, replay)
            assert term.item() == again.item()


def replay_loss(model, batch, train_cfg, rng):
    """The regularized loss as one tape whose regularizer replays each
    selected layer from a detached copy of its cached input, with the cached
    dropout masks: the bitwise oracle of the segmented backward."""
    x, y = batch
    tokens = model.embed_inputs(x, train_mode=True, rng=rng)
    logits, cache = model.run(tokens, train_mode=True, rng=rng, keep_cache=True)
    ce = ad.softmax_cross_entropy(logits, np.asarray(y))
    L = model.cfg.L
    if train_cfg.reg_mode == "all_layers":
        selected = list(range(1, L + 1))
    elif train_cfg.reg_mode == "fixed_layer":
        selected = [train_cfg.reg_layer]
    else:
        selected = [int(rng.integers(1, L + 1))]
    total = None
    for layer_no in selected:
        entry = cache[layer_no - 1]
        zout = model.apply_layer(layer_no - 1, entry["input"].detach(), entry["attn_masks"], entry["out_mask"])
        term = _layer_srr_term(model, layer_no - 1, zout)
        total = term if total is None else total + term
    return ce + train_cfg.eta_reg * (total * (1.0 / len(selected)))


class TestSegmentedGradient:
    @pytest.mark.parametrize(
        "variant, dropout, train_kw",
        [
            ("crate_c", 0.1, dict(reg_mode="all_layers", eta_reg=0.3)),
            ("crate", 0.2, dict(reg_mode="fixed_layer", reg_layer=2, eta_reg=0.5)),
            ("crate_fix", 0.15, dict(reg_mode="random_layer", eta_reg=0.4)),
            ("crate_c", 0.0, dict(reg_mode="fixed_layer", reg_layer=3, eta_reg=0.2)),
        ],
        ids=["crate_c-all", "crate-fixed", "crate_fix-random", "crate_c-fixed-nodrop"],
    )
    def test_bitwise_equal_to_the_replay(self, variant, dropout, train_kw):
        cfg = TrainConfig(**train_kw)
        seg, rep = (tiny_model(L=3, d=8, K=2, variant=variant, dropout=dropout) for _ in range(2))
        adam_seg, adam_rep = Adam(seg.trainable_params()), Adam(rep.trainable_params())
        for step in range(3):
            x, y = tiny_batch(seg, B=4, seed=step)
            loss, parts = srr_regularized_loss(seg, (x, y), cfg, rng=rng_for(5, step))
            g_seg = gradients(loss, seg.trainable_params())
            oracle = replay_loss(rep, (x, y), cfg, rng_for(5, step))
            g_rep = gradients(oracle, rep.trainable_params())
            assert np.array_equal(loss.data, oracle.data)
            assert g_seg.keys() == g_rep.keys()
            for name in g_seg:
                assert np.array_equal(g_seg[name], g_rep[name]), (step, name)
            # the walk leaves every cut open and no interior cotangent behind
            for entry in parts["cache"]:
                assert entry["input"].requires_grad
                assert entry["input"].grad is None and entry["output"].grad is None
            adam_seg.step(g_seg, 1e-2)
            adam_rep.step(g_rep, 1e-2)


class TestAdam:
    def test_single_step_by_hand(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        opt.step({"p": np.array([0.5])}, lr=0.1)
        # mhat = 0.5, vhat = 0.25 -> p -= 0.1 * 0.5 / (0.5 + 1e-8)
        want = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert p.data[0] == pytest.approx(want, abs=1e-15)

    def test_two_steps_match_reference_loop(self):
        rng = rng_for(50)
        p0 = rng.standard_normal(4)
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        p = Tensor(p0.copy(), requires_grad=True)
        opt = Adam({"p": p})
        opt.step({"p": g1}, lr=0.01)
        opt.step({"p": g2}, lr=0.02)

        m = v = np.zeros(4)
        ref = p0.copy()
        for t, (g, lr) in enumerate([(g1, 0.01), (g2, 0.02)], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, atol=1e-14)


class TestEvaluate:
    def test_chunking_invariance(self):
        model = tiny_model()
        ds = sep_dataset()
        chunked = model.logits(ds.val_x, batch=4)
        whole = model.logits(ds.val_x, batch=1000)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
        logits = model.logits(ds.val_x)
        assert evaluate(model, ds.val_x, ds.val_y) == (
            cross_entropy_np(logits, ds.val_y), np.mean(np.argmax(logits, axis=-1) == ds.val_y)
        )

    def test_empty_split_rejected(self):
        ds = sep_dataset()
        with pytest.raises(ConfigError):
            evaluate(tiny_model(), ds.val_x[:0], ds.val_y[:0])


class TestTrain:
    def test_smoke_convergence_on_separable_data(self):
        ds = sep_dataset()
        model = tiny_model(L=1, d=8, K=2, seed=3)
        cfg = TrainConfig(batch_size=16, lr_init=1e-2, epochs=50, stop_criterion=0.05)
        trace = train(model, ds, cfg)
        assert trace.converged
        assert trace.epochs[-1].train_ce <= 0.05
        assert not trace.diverged

    def test_trace_csv(self, tmp_path):
        ds = sep_dataset()
        model = tiny_model(L=1, d=8, K=2, seed=3)
        cfg = TrainConfig(batch_size=16, lr_init=1e-2, epochs=3, stop_criterion=1e-9)
        path = tmp_path / "trace.csv"
        trace = train(model, ds, cfg, trace_path=str(path))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + len(trace.epochs) == 4
        rows = [[str(e.epoch)] + [repr(getattr(e, c)) for c in TRACE_COLUMNS[1:]] for e in trace.epochs]
        assert text == "".join(",".join(cells) + "\n" for cells in [list(TRACE_COLUMNS), *rows])
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == trace.epochs[0].train_ce

    def test_determinism(self):
        ds = sep_dataset()
        cfgs = TrainConfig(batch_size=16, lr_init=5e-3, epochs=3, stop_criterion=1e-9)
        m1 = tiny_model(L=1, d=8, K=2, seed=4)
        m2 = tiny_model(L=1, d=8, K=2, seed=4)
        t1 = train(m1, ds, cfgs)
        t2 = train(m2, ds, cfgs)
        assert [e.train_ce for e in t1.epochs] == [e.train_ce for e in t2.epochs]
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data)

    @pytest.mark.parametrize("reg_mode", ["none", "all_layers", "fixed_layer"])
    def test_divergence_flagged_not_raised(self, reg_mode):
        ds = sep_dataset()
        model = tiny_model(L=2, d=8, K=2, seed=5)
        model.params["embed"].data[:] = np.inf
        reg = {} if reg_mode == "none" else {"eta_reg": 0.1, "reg_mode": reg_mode, "reg_layer": 2}
        cfg = TrainConfig(batch_size=16, lr_init=1e-3, epochs=3, **reg)
        trace = train(model, ds, cfg)
        assert trace.diverged
        assert not trace.converged
        assert trace.note == "training diverged (non-finite loss at layer 1) at epoch 0, step 0"

    def test_regularized_training_records_reg_value(self):
        ds = sep_dataset()
        model = tiny_model(L=2, d=8, K=2, seed=6)
        cfg = TrainConfig(
            batch_size=16, lr_init=5e-3, epochs=2, stop_criterion=1e-9,
            eta_reg=0.001, reg_mode="fixed_layer", reg_layer=2,
        )
        trace = train(model, ds, cfg)
        assert all(e.reg_value != 0.0 for e in trace.epochs)

    def test_reg_layer_beyond_depth_rejected_up_front(self):
        ds = sep_dataset()
        model = tiny_model(L=2, d=8, K=2)
        cfg = TrainConfig(eta_reg=0.1, reg_mode="fixed_layer", reg_layer=9)
        with pytest.raises(ConfigError):
            train(model, ds, cfg)
