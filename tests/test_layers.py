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
    attention_update,
    ista_step,
    layer_norm,
    mssa,
    patchify,
    stacked_attention_heads,
)
from srr.linalg import orthonormal_basis, rng_for, softmax_columns
from srr.model import ModelConfig, init_model


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

    def test_tensor_path_matches_numpy(self):
        Z = rng_for(7).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=8)
        t = mssa(ad.Tensor(Z, requires_grad=True), ad.Tensor(U), num_heads=2)
        np.testing.assert_allclose(t.data, mssa(Z, U, num_heads=2), atol=1e-14)


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
        Y = rng_for(34).standard_normal((5, 3))
        D = rng_for(35).standard_normal((5, 5))
        got = ista_step(ad.Tensor(Y, requires_grad=True), ad.Tensor(D), 0.5, 0.1)
        np.testing.assert_allclose(got.data, ista_step(Y, D, 0.5, 0.1), atol=1e-15)


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

    def test_tensor_path_matches(self):
        Z = rng_for(46).standard_normal((8, 3))
        gain = rng_for(47).standard_normal(8)
        bias = rng_for(48).standard_normal(8)
        got = layer_norm(ad.Tensor(Z, requires_grad=True), ad.Tensor(gain), ad.Tensor(bias))
        np.testing.assert_allclose(got.data, layer_norm(Z, gain, bias), atol=1e-14)


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
