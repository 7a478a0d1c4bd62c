import numpy as np
import pytest

import srr.autodiff as ad
from srr.errors import ConfigError, ShapeError
from srr.layers import (
    CRATE,
    CRATE_C,
    CRATE_FIX,
    CRATE_IDENTITY,
    CRATE_N,
    CRATE_T,
    VARIANTS,
    Workspace,
    _head_scores,
    _traced_layer,
    _weights_twin,
    attention_update,
    ista_step,
    layer_norm,
    mssa,
    patchify,
    stacked_attention_heads,
)
from srr.linalg import orthonormal_basis, rng_for, softmax_columns
from srr.model import ModelConfig, init_model
from srr.rates import split_heads


class TestMssa:
    def test_zero_input(self):
        U = orthonormal_basis(8, seed=1)
        out = mssa(np.zeros((8, 5)), U, num_heads=2)
        assert np.array_equal(out, np.zeros((8, 5)))

    def test_single_head_single_token(self):
        # softmax of a 1x1 matrix is 1, so output is U1 U1^T z
        U = orthonormal_basis(6, seed=2, cols=3)
        z = rng_for(3).standard_normal((6, 1))
        out = mssa(z, U, num_heads=1)
        np.testing.assert_allclose(out, U @ (U.T @ z), atol=1e-14)

    def test_two_form_equivalence(self):
        # summed-head form vs block-concatenated form
        rng = rng_for(4)
        for trial in range(20):
            d = 8 if trial % 2 == 0 else 12
            K = 2 if trial % 3 else 4
            Z = rng.standard_normal((d, 5))
            U = orthonormal_basis(d, seed=100 + trial)
            summed = mssa(Z, U, num_heads=K)
            block = U @ stacked_attention_heads(Z, U, num_heads=K)
            assert np.max(np.abs(summed - block)) <= 1e-12

    def test_explicit_softmax_path(self):
        Z = rng_for(5).standard_normal((6, 4))
        U = orthonormal_basis(6, seed=6)
        blocks = [U[:, :3], U[:, 3:]]
        want = sum(Uk @ (Uk.T @ Z) @ softmax_columns((Uk.T @ Z).T @ (Uk.T @ Z)) for Uk in blocks)
        np.testing.assert_allclose(mssa(Z, U, num_heads=2), want, atol=1e-14)

    def test_inf_score_passes_through_as_nan(self):
        # every forward runs the one unchecked softmax: the reader of the result flags it
        Z = np.ones((4, 3))
        Z[0, 0] = 1e200  # its Gram score overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            out = stacked_attention_heads(Z, orthonormal_basis(4, seed=9), num_heads=2)
        assert np.isnan(out).any()

    def test_tensor_path_matches_numpy(self):
        # on Tensors the per-head loop runs inside the layer node, whose
        # crate_c update at gamma = 1 is Zn + mssa(Zn)
        Z = rng_for(7).standard_normal((8, 5))
        U, D = orthonormal_basis(8, seed=8), rng_for(9).standard_normal((8, 8)) / np.sqrt(8)
        (g1, b1), (g2, b2) = norms = layer_norms(8, 6)
        zn = layer_norm(Z, g1, b1)
        want = ista_step(layer_norm(zn + mssa(zn, U, num_heads=2), g2, b2), D, 0.5, 0.1)
        got = traced_layer(ad.Tensor(Z, requires_grad=True), norms, U, D, 2, CRATE_C, gamma=1.0)
        np.testing.assert_allclose(got.data, want, atol=1e-14)


class TestAttentionUpdate:
    def test_conceptual_plus_negative_is_2z(self):
        Z = rng_for(10).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=11)
        total = attention_update(Z, U, 2, CRATE_C, gamma=1.0) + attention_update(Z, U, 2, CRATE_N, gamma=1.0)
        np.testing.assert_allclose(total, 2 * Z, rtol=0, atol=1e-12)

    def test_transpose_equals_conceptual_on_identity_basis(self):
        Z = rng_for(12).standard_normal((6, 4))
        U = np.eye(6)
        a = attention_update(Z, U, 1, CRATE_C, gamma=0.9)
        b = attention_update(Z, U, 1, CRATE_T, gamma=0.9)
        assert np.array_equal(a, b)

    def test_learnable_w_equal_to_basis_matches_conceptual_bitwise(self):
        Z = rng_for(14).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=15)
        a = attention_update(Z, U, 2, CRATE_C, gamma=1.3)
        b = attention_update(Z, U, 2, CRATE, gamma=1.3, W=U)
        assert np.array_equal(a, b)

    def test_missing_w_rejected(self):
        Z = np.zeros((4, 2))
        U = orthonormal_basis(4, seed=16)
        for variant in (CRATE, CRATE_FIX):
            with pytest.raises(ConfigError):
                attention_update(Z, U, 2, variant, gamma=1.0)

    def test_alpha_zero_is_identity_for_all_variants(self):
        Z = rng_for(17).standard_normal((8, 4))
        U = orthonormal_basis(8, seed=18)
        for variant in VARIANTS:
            W = rng_for(19).standard_normal((8, 8)) if variant in (CRATE, CRATE_FIX) else None
            out = attention_update(Z, U, 2, variant, gamma=2.0, alpha=0.0, W=W)
            np.testing.assert_allclose(out, Z, atol=0)

    def test_output_matrix_homogeneity(self):
        # scaling the output matrix by c scales the attention branch by c
        Z = rng_for(20).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=21)
        base = attention_update(Z, U, 2, CRATE_C, gamma=1.0) - Z
        scaled = attention_update(Z, U, 2, CRATE, gamma=1.0, W=2.5 * U) - Z
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)

    def test_identity_variant(self):
        Z = rng_for(22).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=23)
        out = attention_update(Z, U, 2, CRATE_IDENTITY, gamma=1.0)
        want = Z + stacked_attention_heads(Z, U, 2)
        np.testing.assert_allclose(out, want, atol=0)

    def test_identity_variant_needs_square_stack(self):
        Z = np.zeros((8, 3))
        U = orthonormal_basis(8, seed=24)[:, :6]  # Kp = 6 != d
        with pytest.raises(ConfigError):
            attention_update(Z, U, 2, CRATE_IDENTITY, gamma=1.0)

    def test_transpose_variant_needs_square_basis(self):
        Z = np.zeros((8, 3))
        U = orthonormal_basis(8, seed=25)[:, :6]
        with pytest.raises(ConfigError):
            attention_update(Z, U, 2, CRATE_T, gamma=1.0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            attention_update(np.zeros((2, 2)), orthonormal_basis(2, seed=0), 1, "bogus", gamma=1.0)

    def test_gamma_scaling_is_quadratic(self):
        Z = rng_for(26).standard_normal((8, 4))
        U = orthonormal_basis(8, seed=27)
        b1 = attention_update(Z, U, 2, CRATE_C, gamma=1.0) - Z
        b2 = attention_update(Z, U, 2, CRATE_C, gamma=2.0) - Z
        np.testing.assert_allclose(b2, 4.0 * b1, atol=1e-12)


class TestIstaStep:
    def test_identity_dictionary(self):
        Y = rng_for(30).standard_normal((5, 4))
        out = ista_step(Y, np.eye(5), beta=0.5, lambda_sparsity=0.2)
        np.testing.assert_allclose(out, np.maximum(Y - 0.1, 0.0), atol=0)

    def test_negative_input_gives_zero(self):
        Y = -1.0 - rng_for(31).random((4, 3))
        out = ista_step(Y, np.zeros((4, 4)), beta=0.5, lambda_sparsity=0.1)
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_formula_oracle_and_nonnegativity(self):
        Y = rng_for(32).standard_normal((6, 4))
        D = rng_for(33).standard_normal((6, 6)) / np.sqrt(6)
        beta, lam = 0.5, 0.1
        out = ista_step(Y, D, beta, lam)
        want = np.maximum(Y + beta * D.T @ (Y - D @ Y) - beta * lam, 0.0)
        np.testing.assert_allclose(out, want, atol=0)
        assert (out >= 0).all()

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            ista_step(np.zeros((2, 2)), np.eye(2), beta=-0.1, lambda_sparsity=0.1)

    def test_tensor_path(self):
        # on Tensors the step runs inside the layer node, on the second layer norm's output
        Z = rng_for(34).standard_normal((2, 6, 3))
        U, D = orthonormal_basis(6, seed=36), rng_for(35).standard_normal((6, 6))
        (g1, b1), (g2, b2) = norms = layer_norms(6, 37)
        za = attention_update(layer_norm(Z, g1, b1), U, 3, CRATE_T, 0.9)
        got = traced_layer(ad.Tensor(Z, requires_grad=True), norms, U, D, 3, CRATE_T, 0.9)
        np.testing.assert_allclose(got.data, ista_step(layer_norm(za, g2, b2), D, 0.5, 0.1), atol=1e-14)


class TestLayerNorm:
    def test_constant_column_maps_to_bias(self):
        Z = np.full((6, 3), 4.2)
        out = layer_norm(Z, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_normalized_statistics(self):
        Z = rng_for(40).standard_normal((64, 5)) * 3 + 1
        out = layer_norm(Z, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=5e-6)

    def test_idempotent_on_normalized_input(self):
        Z = rng_for(41).standard_normal((32, 4))
        Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
        out = layer_norm(Z, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(out, Z, atol=1e-5)

    def test_gain_and_bias(self):
        Z = rng_for(42).standard_normal((8, 3))
        gain = rng_for(43).standard_normal(8)
        bias = rng_for(44).standard_normal(8)
        plain = layer_norm(Z, np.ones(8), np.zeros(8))
        out = layer_norm(Z, gain, bias)
        np.testing.assert_allclose(out, gain[:, None] * plain + bias[:, None], atol=1e-12)

    def test_batched(self):
        Z = rng_for(45).standard_normal((2, 8, 3))
        out = layer_norm(Z, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out[0], layer_norm(Z[0], np.ones(8), np.zeros(8)), atol=1e-15)

    def test_overflowed_variance_reads_nan_not_zeros(self):
        # column 0's squares overflow; column 1 keeps the bits it has alone
        Z = np.zeros((4, 2))
        Z[:2, 0] = (1e200, -1e200)
        Z[:, 1] = rng_for(49).standard_normal(4)
        gain, bias = rng_for(50).standard_normal(4), rng_for(51).standard_normal(4)
        with np.errstate(over="ignore"):
            outs = [layer_norm(Z, gain, bias),
                    ad.layer_norm_cols(ad.Tensor(Z, requires_grad=True), ad.Tensor(gain), ad.Tensor(bias)).data]
        alone = [layer_norm(Z[:, 1:], gain, bias),
                 ad.layer_norm_cols(ad.Tensor(Z[:, 1:], requires_grad=True), ad.Tensor(gain), ad.Tensor(bias)).data]
        for out, ref in zip(outs, alone):
            assert np.isnan(out[:, 0]).all()
            assert np.array_equal(out[:, 1:], ref)

    @pytest.mark.parametrize("shape", [(256, 32, 9), (8, 384, 65)], ids=["desk", "paper"])
    def test_both_forwards_differ_only_in_dividing_by_std(self, shape):
        # one mean and one std column for both; the kernel divides by s, the node multiplies by 1/s
        Z = rng_for(52, *shape).standard_normal(shape) * 2 + 1.5
        d = shape[-2]
        gain, bias = rng_for(53).standard_normal(d), rng_for(54).standard_normal(d)
        g, b = gain.reshape((d, 1)), bias.reshape((d, 1))
        mu = Z.mean(axis=-2, keepdims=True)
        s = np.sqrt(((Z - mu) ** 2).mean(axis=-2, keepdims=True) + ad.LN_EPS)
        assert np.array_equal(layer_norm(Z, gain, bias), (Z - mu) / s * g + b)
        node = ad.layer_norm_cols(ad.Tensor(Z, requires_grad=True), ad.Tensor(gain), ad.Tensor(bias))
        assert np.array_equal(node.data, (Z - mu) * (1 / s) * g + b)

    def test_tensor_path_matches(self):
        Z = rng_for(46).standard_normal((8, 3))
        gain = rng_for(47).standard_normal(8)
        bias = rng_for(48).standard_normal(8)
        got = ad.layer_norm_cols(ad.Tensor(Z, requires_grad=True), ad.Tensor(gain), ad.Tensor(bias))
        np.testing.assert_allclose(got.data, layer_norm(Z, gain, bias), atol=1e-14)


def layer_norms(d, seed):
    """Two (gain, bias) pairs of length d, away from the unit gain and zero bias."""
    return [(1.0 + 0.3 * rng_for(seed, j).standard_normal(d), 0.5 * rng_for(seed, j + 2).standard_normal(d))
            for j in (0, 1)]


def traced_layer(Z, norms, U, D, num_heads, variant, gamma, W=None, beta=0.5, lam=0.1):
    """``_traced_layer`` with every ndarray weight as a constant Tensor, at alpha = 1."""
    (g1, b1), (g2, b2) = [[ad.as_tensor(v) for v in pair] for pair in norms]
    U, D = ad.as_tensor(U), ad.as_tensor(D)
    W = None if W is None else ad.as_tensor(W)
    return _traced_layer(Z, (g1, b1), U, W, (g2, b2), D, num_heads, variant, gamma, 1.0, beta, lam)


# Oracles: the plain ndarray expressions the in-place kernels replaced.  The
# kernels must reproduce them bit for bit and leave their inputs untouched.


def softmax_oracle(x):
    expd = np.exp(x - x.max(axis=-2, keepdims=True))
    return expd / expd.sum(axis=-2, keepdims=True)


def heads_oracle(Z, U, num_heads, attn_masks=None):
    parts = []
    for k, Uk in enumerate(split_heads(U, num_heads)):
        A = Uk.T @ Z
        S = softmax_oracle(np.swapaxes(A, -1, -2) @ A)
        if attn_masks is not None:
            S = S * attn_masks[k]
        parts.append(A @ S)
    return np.concatenate(parts, axis=-2)


def mssa_oracle(Z, U, num_heads):
    # the per-head loop mssa ran before it summed the head stack's row blocks
    total = None
    for Uk in split_heads(U, num_heads):
        A = np.swapaxes(Uk, -1, -2) @ Z
        S = softmax_columns(np.swapaxes(A, -1, -2) @ A)
        term = Uk @ (A @ S)
        total = term if total is None else total + term
    return total


def update_oracle(Z, U, num_heads, variant, gamma, alpha=1.0, W=None, attn_masks=None, out_mask=None):
    stack = heads_oracle(Z, U, num_heads, attn_masks)
    if variant in (CRATE, CRATE_FIX):
        out = W @ stack
    elif variant == CRATE_T:
        out = U.T @ stack
    elif variant == CRATE_IDENTITY:
        out = stack
    else:
        out = U @ stack
    if out_mask is not None:
        out = out * out_mask
    sign = -1.0 if variant == CRATE_N else 1.0
    return Z + (sign * alpha * gamma * gamma) * out


def ista_oracle(Y, D, beta, lam):
    resid = Y - D @ Y
    return np.maximum(Y + beta * (D.T @ resid) - beta * lam, 0.0)


def layer_norm_oracle(Z, gain, bias):
    d = Z.shape[-2]
    mu = Z.mean(axis=-2, keepdims=True)
    xc = Z - mu
    var = (xc * xc).mean(axis=-2, keepdims=True)
    xhat = xc / np.sqrt(var + ad.LN_EPS)
    return gain.reshape((d, 1)) * xhat + bias.reshape((d, 1))


def embed_oracle(model, raw):
    embed, cls, pos = (model.params[n].data for n in ("embed", "cls", "pos"))
    head_col = np.broadcast_to(cls.reshape(-1, 1), (raw.shape[0], len(cls), 1))
    return np.concatenate([head_col, embed @ raw], axis=-1) + pos


def assert_bitwise_and_untouched(kernel, oracle, *args, **kwargs):
    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    got = kernel(*args, **kwargs)
    assert np.array_equal(got, oracle(*args, **kwargs))
    for a, b in zip(args, before):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
    return got


# desk geometry (d=32, K=4, p=8, 9 tokens) at the batch of a PAC-Bayes draw,
# plus a single unbatched matrix
BATCHES = [(256,), ()]


def desk_tokens(batch, seed):
    return rng_for(seed).standard_normal(batch + (32, 9)) * 2


class TestKernelOracles:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_stacked_attention_heads(self, batch):
        Z, U = desk_tokens(batch, 70), orthonormal_basis(32, seed=71)
        masks = [(rng_for(72, k).random(batch + (9, 9)) < 0.9) / 0.9 for k in range(4)]
        assert_bitwise_and_untouched(stacked_attention_heads, heads_oracle, Z, U, 4)
        before = [m.copy() for m in masks]
        assert_bitwise_and_untouched(stacked_attention_heads, heads_oracle, Z, U, 4, masks)
        assert all(np.array_equal(m, b) for m, b in zip(masks, before))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_scores_stored_softmax_axis_first(self, batch):
        # each head's scores sit in an (N, ..., N) buffer, the softmax's axis outermost
        Z, U = desk_tokens(batch, 86), orthonormal_basis(32, seed=87)
        ws = Workspace()
        stacked_attention_heads(Z, U, 4, ws=ws)
        assert ws.buffers["heads.S"].shape == (9,) + batch + (9,)
        assert ws.buffers["heads.S"].flags.c_contiguous
        # the one helper that forms S in the forward and re-forms it in the layer node's VJP
        saved = []
        stacked_attention_heads(Z, U, 4, _saved=saved)
        assert len(saved) == 4
        for k, (A, Uk) in enumerate(zip(saved, split_heads(U, 4))):
            assert np.array_equal(A, Uk.T @ Z)
            S = _head_scores(A)
            assert S.shape == batch + (9, 9)
            assert S.base.shape == (9,) + batch + (9,) and S.base.flags.c_contiguous
            assert np.shares_memory(S, S.base) and np.array_equal(np.moveaxis(S.base, 0, -2), S)
            assert np.array_equal(S, softmax_oracle(A.mT @ A))

    @pytest.mark.parametrize(
        "shape, K", [((384, 196), 6), ((256, 32, 9), 4)], ids=["toy-paper", "desk-batch"]
    )
    def test_mssa(self, shape, K):
        Z, U = rng_for(84).standard_normal(shape), orthonormal_basis(shape[-2], seed=85)
        assert_bitwise_and_untouched(mssa, mssa_oracle, Z, U, K)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_update(self, batch, variant, masked):
        Z, U = desk_tokens(batch, 73), orthonormal_basis(32, seed=74)
        W = rng_for(75).standard_normal((32, 32)) / np.sqrt(32)
        out_mask = (rng_for(76).random(Z.shape) < 0.9) / 0.9 if masked else None
        assert_bitwise_and_untouched(
            attention_update, update_oracle, Z, U, 4, variant, 0.7, 0.8, W, None, out_mask
        )

    @pytest.mark.parametrize("batch", BATCHES)
    def test_ista_step(self, batch):
        Y = desk_tokens(batch, 77)
        D = rng_for(78).standard_normal((32, 32)) / np.sqrt(32)
        out = assert_bitwise_and_untouched(ista_step, ista_oracle, Y, D, 0.1, 0.3)
        assert (out == 0).any() and (out > 0).any()

    @pytest.mark.parametrize("batch", BATCHES)
    def test_layer_norm(self, batch):
        Z = desk_tokens(batch, 79) + 1.5
        gain, bias = rng_for(80).standard_normal(32), rng_for(81).standard_normal(32)
        assert_bitwise_and_untouched(layer_norm, layer_norm_oracle, Z, gain, bias)

    @pytest.mark.parametrize("B", [256, 3])
    def test_embed_inputs(self, B):
        model = init_model(ModelConfig(L=1, d=32, K=4, feat_dim=16, num_tokens=8, num_classes=2, seed=82))
        raw = rng_for(83).standard_normal((B, 16, 8))
        assert_bitwise_and_untouched(model.embed_inputs, lambda r: embed_oracle(model, r), raw)
        assert np.array_equal(model.embed_inputs(raw[:1])[0], embed_oracle(model, raw[:1])[0])


# Oracles of the layer node: the composed Tensor graph that a traced layer
# was built from (layer norms, the attention update, the ISTA step), with the
# ReLU and the row concatenation as the autodiff ops they were.  The node must
# give its value and every gradient bit for bit.


def relu_oracle(t):
    return ad._node(np.maximum(t.data, 0.0), (t,), (lambda g: g * (t.data > 0.0),))


def transpose_oracle(t):
    return ad._node(np.swapaxes(t.data, -1, -2), (t,), (lambda g: np.swapaxes(g, -1, -2),))


def concat_rows_oracle(parts):
    offsets = np.cumsum([0] + [t.shape[-2] for t in parts])
    lead = (slice(None),) * (parts[0].ndim - 2)
    maps = tuple(lambda g, rows=slice(lo, hi): g[lead + (rows,)] for lo, hi in zip(offsets[:-1], offsets[1:]))
    return ad._node(np.concatenate([t.data for t in parts], axis=-2), tuple(parts), maps)


def composed_attention(Z, U, num_heads, variant, gamma, alpha=1.0, W=None, attn_masks=None, out_mask=None):
    parts = []
    for k, Uk in enumerate(split_heads(U, num_heads)):
        A = transpose_oracle(Uk) @ Z
        S = ad.softmax_cols(transpose_oracle(A) @ A)
        if attn_masks is not None:
            S = S * attn_masks[k]
        parts.append(A @ S)
    stack = concat_rows_oracle(parts)
    if variant in (CRATE, CRATE_FIX):
        out = W @ stack
    elif variant == CRATE_T:
        out = transpose_oracle(U) @ stack
    elif variant == CRATE_IDENTITY:
        out = stack
    else:
        out = U @ stack
    scale = (-1.0 if variant == CRATE_N else 1.0) * alpha * gamma * gamma
    return Z + scale * (out if out_mask is None else out * out_mask)


def composed_ista(Y, D, beta, lam):
    resid = Y - D @ Y
    return relu_oracle(Y + beta * (transpose_oracle(D) @ resid) - beta * lam)


def composed_layer(Z, g1, b1, U, g2, b2, D, num_heads, variant, gamma, alpha, beta, lam, W=None, attn_masks=None,
                   out_mask=None):
    za = composed_attention(ad.layer_norm_cols(Z, g1, b1), U, num_heads, variant, gamma, alpha, W, attn_masks, out_mask)
    return composed_ista(ad.layer_norm_cols(za, g2, b2), D, beta, lam)


def _walk_both(build, leaves, first_w, second_w, twin_of=None):
    """Value of ``build`` on fresh leaves, and each leaf's gradient after a
    walk of <out, first_w>, plus <twin_of(x, out, weights), second_w> when
    ``twin_of`` is given, x being the op's input."""
    tensors = [ad.Tensor(a, requires_grad=grad) for a, grad in leaves]
    x = tensors[0] * 1.5  # an interior input, so the op's first parent gathers terms
    out = build(x, *tensors[1:])
    loss = (out * first_w).sum()
    if twin_of is not None:
        loss = loss + (twin_of(x, out, tensors[1:]) * second_w).sum()
    loss.backward()
    return out.data, [t.grad for t in tensors]


def layer_case(batch, variant, dropout, d=12, K=3, N=5):
    """A layer's input, weights and dropout masks: (Z, norms, U, D, W, masks, out_mask)."""
    Z = rng_for(90).standard_normal(batch + (d, N)) * 2.0 + 0.5
    U = orthonormal_basis(d, seed=92) * 1.7
    D = rng_for(93).standard_normal((d, d)) / np.sqrt(d)
    W = rng_for(94).standard_normal((d, d)) / np.sqrt(d) if variant in (CRATE, CRATE_FIX) else None
    masks = out_mask = None
    if dropout:
        masks = [(rng_for(95, k).random(batch + (N, N)) < 0.8) / 0.8 for k in range(K)]
        out_mask = (rng_for(96).random(batch + (d, N)) < 0.8) / 0.8
    return Z, layer_norms(d, 91), U, D, W, masks, out_mask


class TestLayerNode:
    @pytest.mark.parametrize("batch", [(3,), ()])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("twin", [False, True])
    def test_layer_node_is_the_composed_layer(self, batch, variant, dropout, twin):
        K = 3
        Z, ((g1, b1), (g2, b2)), U, D, W, masks, out_mask = layer_case(batch, variant, dropout)
        leaves = [(a, True) for a in (Z, g1, b1, U, g2, b2, D)] + ([] if W is None else [(W, variant == CRATE)])
        w1, w2 = rng_for(97).standard_normal(Z.shape), rng_for(98).standard_normal(Z.shape)

        def run(fused):
            def build(z, g1, b1, u, g2, b2, dm, w=None):
                if fused:
                    return _traced_layer(
                        z, (g1, b1), u, w, (g2, b2), dm, K, variant, 0.8, 0.9, 0.4, 0.3, masks, out_mask
                    )
                return composed_layer(z, g1, b1, u, g2, b2, dm, K, variant, 0.8, 0.9, 0.4, 0.3, w, masks, out_mask)

            def twin_of(x, out, weights):  # the fused node's twin, or the composed layer on a copy of x
                return _weights_twin(out) if fused else build(ad.Tensor(x.data), *weights)

            return _walk_both(build, leaves, w1, w2, twin_of if twin else None)

        (got, got_grads), (want, want_grads) = run(True), run(False)
        assert np.array_equal(got, want)
        assert (got == 0).any() and (got > 0).any()
        for g, h in zip(got_grads, want_grads):
            assert (g is None and h is None) or np.array_equal(g, h)
        assert all(g is not None for g in got_grads[:7])
        assert (variant != CRATE_FIX) or got_grads[7] is None

    @pytest.mark.parametrize("batch", [(3,), ()])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_layer_node_value_is_the_ndarray_layer(self, batch, variant, dropout):
        # the training forward against the inference one (layer norm,
        # attention update, layer norm, ISTA step on a workspace); the node
        # leaves every input untouched, in its forward and in its VJP
        Z, ((g1, b1), (g2, b2)), U, D, W, masks, out_mask = layer_case(batch, variant, dropout)
        ws = Workspace()
        za = attention_update(layer_norm(Z, g1, b1, ws), U, 3, variant, 0.8, 0.9, W, masks, out_mask, ws)
        want = ista_step(layer_norm(za, g2, b2, ws), D, 0.4, 0.3, ws).copy()
        inputs = [Z, g1, b1, U, g2, b2, D] + ([] if W is None else [W])
        copies = [a.copy() for a in inputs] + [m.copy() for m in (masks or [])]
        z = ad.Tensor(Z, requires_grad=True)
        w = None if W is None else ad.Tensor(W, requires_grad=True)
        got = _traced_layer(z, [ad.Tensor(g1), ad.Tensor(b1)], ad.Tensor(U, requires_grad=True), w,
                            [ad.Tensor(g2), ad.Tensor(b2)], ad.Tensor(D), 3, variant, 0.8, 0.9, 0.4, 0.3, masks,
                            out_mask)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)
        (got * rng_for(99).standard_normal(Z.shape)).sum().backward()
        for a, c in zip(inputs + (masks or []), copies):
            assert np.array_equal(a, c)

    @pytest.mark.parametrize("batch", [(3,), ()])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_layer_node_matches_finite_differences(self, batch, variant, dropout):
        # each trained leaf's gradient against a central difference of
        # <out, w> along a random direction: a check that reads no oracle
        Z, ((g1, b1), (g2, b2)), U, D, W, masks, out_mask = layer_case(batch, variant, dropout)
        arrays = [Z, g1, b1, U, g2, b2, D] + ([] if W is None else [W])
        trained = [True] * 7 + ([] if W is None else [variant == CRATE])
        w = rng_for(110).standard_normal(Z.shape)

        def loss(*values, grad=False):
            ts = [ad.Tensor(a, requires_grad=grad and t) for a, t in zip(values, trained)]
            z, g1, b1, u, g2, b2, dm, *rest = ts
            out = _traced_layer(z, (g1, b1), u, rest[0] if rest else None, (g2, b2), dm, 3, variant, 0.8, 0.9, 0.4,
                                0.3, masks, out_mask)
            return (out * w).sum(), out, ts

        total, out, leaves = loss(*arrays, grad=True)
        assert (out.data == 0).any() and (out.data > 0).any()
        total.backward()
        eps = 1e-6
        for i, (t, is_trained) in enumerate(zip(leaves, trained)):
            if not is_trained:
                assert t.grad is None
                continue
            v = rng_for(111, i).standard_normal(arrays[i].shape)
            shifted = [[a + s * eps * v if j == i else a for j, a in enumerate(arrays)] for s in (1.0, -1.0)]
            fd = (loss(*shifted[0])[0].item() - loss(*shifted[1])[0].item()) / (2 * eps)
            exact = float(np.sum(t.grad * v))
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dropout", [False, True])
    def test_each_walk_reads_its_own_cotangent(self, variant, dropout):
        # two walks over the same two layer nodes, the second with twice the
        # cotangent: doubling is exact, so any state kept from the first walk
        # (a re-formed softmax, head stack, x-hat or normalized input among
        # them) shows
        Z = ad.Tensor(rng_for(101).standard_normal((2, 12, 5)), requires_grad=True)
        U = ad.Tensor(orthonormal_basis(12, seed=102), requires_grad=True)
        D = ad.Tensor(rng_for(103).standard_normal((12, 12)) / np.sqrt(12), requires_grad=True)
        W = None
        if variant in (CRATE, CRATE_FIX):
            W = ad.Tensor(rng_for(105).standard_normal((12, 12)) / np.sqrt(12), requires_grad=variant == CRATE)
        masks = out_mask = None
        if dropout:
            masks = [(rng_for(106, k).random((2, 5, 5)) < 0.8) / 0.8 for k in range(3)]
            out_mask = (rng_for(107).random((2, 12, 5)) < 0.8) / 0.8
        gains_biases = [ad.Tensor(rng_for(120, i).standard_normal(12), requires_grad=True) for i in range(8)]
        out = Z * 1.0
        for j in (0, 4):  # both layers share U, W, D and the masks
            g1, b1, g2, b2 = gains_biases[j : j + 4]
            out = _traced_layer(out, (g1, b1), U, W, (g2, b2), D, 3, variant, 0.8, 1.0, 0.5, 0.1, masks, out_mask)
        leaves = [Z, U, D, *gains_biases] + ([W] if variant == CRATE else [])
        w = rng_for(104).standard_normal(out.shape)
        (out * w).sum().backward()
        first = [t.grad for t in leaves]
        for t in leaves:
            t.grad = None
        (out * (2.0 * w)).sum().backward()
        for t, g in zip(leaves, first):
            assert np.array_equal(t.grad, 2.0 * g)


def embed_image(image, patch, embed, pos, cls):
    """One H x W x C image through ``Model.embed_inputs(patchify(...))`` with
    the embedding, positional table and CLS token set by hand."""
    H, _, C = image.shape
    model = init_model(ModelConfig(L=1, d=len(cls), K=1, patch=patch, image_size=H, channels=C))
    for name, value in (("embed", embed), ("pos", pos), ("cls", cls)):
        model.params[name].data = np.asarray(value, dtype=np.float64)
    return model.embed_inputs(patchify(image, patch))[0]


class TestTokenize:
    def test_cifar_shape_arithmetic(self):
        image = rng_for(50).random((32, 32, 3))
        d, F = 16, 4 * 4 * 3
        embed = rng_for(51).standard_normal((d, F))
        pos = np.zeros((d, 65))
        cls = np.zeros(d)
        tok = embed_image(image, 4, embed, pos, cls)
        assert tok.shape == (16, 65)

    def test_zero_everything(self):
        tok = embed_image(np.zeros((8, 8, 3)), 4, np.zeros((5, 48)), np.zeros((5, 5)), np.zeros(5))
        assert np.array_equal(tok, np.zeros((5, 5)))

    def test_single_patch_hand_fixture(self):
        # 2x2 single-channel image, one patch, row-major flatten
        image = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        embed = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
        cls = np.array([10.0, 20.0])
        pos = np.array([[0.1, 0.2], [0.3, 0.4]])
        tok = embed_image(image, 2, embed, pos, cls)
        # patch flattens to (1,2,3,4); embed rows pick 1 and 2*4
        np.testing.assert_allclose(tok[:, 0], [10.1, 20.3], atol=0)
        np.testing.assert_allclose(tok[:, 1], [1.2, 8.4], atol=0)

    def test_cls_in_column_zero(self):
        image = np.zeros((4, 4, 1))
        embed = np.zeros((3, 4))
        pos = np.zeros((3, 5))
        cls = np.array([1.0, 2.0, 3.0])
        tok = embed_image(image, 2, embed, pos, cls)
        np.testing.assert_allclose(tok[:, 0], cls, atol=0)
        assert np.array_equal(tok[:, 1:], np.zeros((3, 4)))

    def test_indivisible_patch_rejected(self):
        model = init_model(ModelConfig(L=1, d=2, K=1, patch=2, image_size=4, channels=1))
        with pytest.raises(ShapeError):
            model.embed_inputs(patchify(np.zeros((5, 5, 1)), 2))


class TestPatchify:
    def test_row_major_patch_order(self):
        # 4x4 single-channel, patch 2: values encode (row, col)
        img = np.arange(16.0).reshape(4, 4, 1)
        cols = patchify(img, 2)[0]  # (4, 4): patch-dim x num-patches
        # first patch = rows 0-1, cols 0-1 flattened row-major
        np.testing.assert_allclose(cols[:, 0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[:, 1], [2, 3, 6, 7])  # top-right
        np.testing.assert_allclose(cols[:, 2], [8, 9, 12, 13])  # bottom-left
        np.testing.assert_allclose(cols[:, 3], [10, 11, 14, 15])

    def test_channel_fastest_flattening(self):
        img = np.zeros((2, 2, 2))
        img[0, 0] = [7.0, 9.0]
        cols = patchify(img, 2)[0]
        np.testing.assert_allclose(cols[:2, 0], [7.0, 9.0])

    def test_batch_axis(self):
        imgs = rng_for(52).random((3, 8, 8, 3))
        cols = patchify(imgs, 4)
        assert cols.shape == (3, 48, 4)
        np.testing.assert_allclose(cols[1], patchify(imgs[1][None], 4)[0], atol=0)
