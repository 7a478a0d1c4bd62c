import re

import numpy as np
import pytest

from srr.errors import ConfigError, NumericError, ShapeError
from srr.linalg import logdet_psd, orthonormal_basis, rng_for
from srr.rates import (
    L0_TOL,
    RateConfig,
    coding_rate,
    grad_projected_coding_rate,
    grad_taylor_terms,
    projected_coding_rate,
    sparsity_l0,
    split_heads,
    srr_layer_measure,
    taylor_terms,
)

LN2 = 0.6931471805599453


def central_diff(fn, Z, h=1e-5):
    """Entrywise central finite differences of a scalar function of Z."""
    g = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            zp = Z.copy()
            zp[i, j] += h
            zm = Z.copy()
            zm[i, j] -= h
            g[i, j] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


class TestRateConfig:
    def test_derived_quantities(self):
        cfg = RateConfig(d=384, N=196, K=6, eps_sq=0.5)
        assert cfg.p == 64
        assert cfg.gamma == pytest.approx(64 / (196 * 0.5))
        assert cfg.full_scale == pytest.approx(384 / (196 * 0.5))
        assert cfg.full_scale == pytest.approx(cfg.K * cfg.gamma)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            RateConfig(d=10, N=4, K=3)

    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigError):
            RateConfig(d=8, N=4, K=2, eps_sq=0.0)

    @pytest.mark.parametrize(
        "field, value", [("eps_sq", np.nan), ("eps_sq", np.inf), ("lambda_sparsity", np.nan), ("lambda_sparsity", np.inf)]
    )
    def test_non_finite_scales_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RateConfig(d=8, N=4, K=2, **{field: value})

    @pytest.mark.parametrize("field, value", [("d", 8.0), ("N", "4"), ("K", None), ("eps_sq", True)])
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be ") + ".*" + re.escape(f", got {value!r}")):
            RateConfig(**dict(dict(d=8, N=4, K=2), **{field: value}))


class TestCodingRate:
    def test_zero_tokens(self):
        assert coding_rate(np.zeros((4, 3)), scale=1.0) == 0.0

    def test_orthonormal_columns(self):
        # Z^T Z = I_2, scale 1 -> 1/2 logdet(2 I_2) = ln 2
        Z = orthonormal_basis(4, seed=0, cols=2)
        assert coding_rate(Z, scale=1.0) == pytest.approx(LN2, abs=1e-12)

    def test_gram_side_equivalence(self):
        Z = rng_for(1).standard_normal((8, 5))
        n_side = 0.5 * logdet_psd(np.eye(5) + 0.7 * Z.T @ Z)
        d_side = 0.5 * logdet_psd(np.eye(8) + 0.7 * Z @ Z.T)
        assert n_side == pytest.approx(d_side, abs=1e-9)
        assert coding_rate(Z, 0.7) == pytest.approx(n_side, abs=1e-9)

    def test_nonnegative_and_zero_only_at_zero(self):
        Z = rng_for(2).standard_normal((6, 4))
        assert coding_rate(Z, 1.0) > 0.0

    def test_monotone_in_scale(self):
        Z = rng_for(3).standard_normal((6, 4))
        assert coding_rate(Z, 2.0) > coding_rate(Z, 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            coding_rate(np.ones((2, 2)), 0.0)

    def test_token_stack_rejected(self):
        with pytest.raises(ShapeError, match="must be 2-d"):
            coding_rate(np.ones((2, 3, 3)), 1.0)

    def test_nan_tokens_rejected(self):
        with pytest.raises(NumericError):
            coding_rate(np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0)


class TestProjectedCodingRate:
    def test_zero_tokens(self):
        U = orthonormal_basis(8, seed=0)
        assert projected_coding_rate(np.zeros((8, 5)), U, num_heads=2, gamma=1.0) == 0.0

    def test_identity_projection_reduces_to_coding_rate(self):
        Z = rng_for(4).standard_normal((6, 4))
        got = projected_coding_rate(Z, np.eye(6), num_heads=1, gamma=0.9)
        assert got == pytest.approx(coding_rate(Z, 0.9), abs=1e-12)

    def test_per_head_eigen_oracle(self):
        Z = rng_for(5).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=7)
        gamma = 1.3
        expected = 0.0
        for Uk in split_heads(U, 2):
            A = Uk.T @ Z
            eig = np.linalg.eigvalsh(np.eye(5) + gamma * A.T @ A)
            expected += 0.5 * np.sum(np.log(eig))
        got = projected_coding_rate(Z, U, num_heads=2, gamma=gamma)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_head_split_shapes(self):
        U = np.arange(24.0).reshape(4, 6)
        heads = split_heads(U, 3)
        assert [h.shape for h in heads] == [(4, 2)] * 3
        assert np.array_equal(heads[1], U[:, 2:4])

    def test_head_split_mismatch(self):
        with pytest.raises(ShapeError):
            split_heads(np.ones((4, 5)), 2)

    def test_head_split_of_a_stack_rejected(self):
        with pytest.raises(ShapeError, match="must be a matrix"):
            split_heads(np.ones((2, 4, 6)), 3)

    @pytest.mark.parametrize("num_heads", [-2, -4, 0, 2.0, True, "2"])
    @pytest.mark.parametrize("fn", [projected_coding_rate, grad_projected_coding_rate, taylor_terms, grad_taylor_terms])
    def test_head_count_must_be_a_count(self, fn, num_heads):
        # unchecked, -2 and -4 would split into no heads (rate 0.0, zero gradients) and 0 would divide by zero
        Z = rng_for(6).standard_normal((8, 5))
        with pytest.raises(ConfigError, match=re.escape(f"num_heads must be an int >= 1, got {num_heads!r}")):
            fn(Z, orthonormal_basis(8, seed=0), num_heads, 1.0)


class TestExactGradient:
    def test_zero_input_zero_gradient(self):
        U = orthonormal_basis(8, seed=1)
        g = grad_projected_coding_rate(np.zeros((8, 3)), U, 2, 1.0)
        assert np.array_equal(g, np.zeros((8, 3)))

    def test_scalar_case_closed_form(self):
        # one head, p=1, N=1: gradient = gamma*s/(1+gamma*s^2) * u
        u = np.array([[0.6], [0.8]])
        z = np.array([[1.5], [-0.5]])
        s = float((u.T @ z)[0, 0])
        gamma = 0.7
        got = grad_projected_coding_rate(z, u, 1, gamma)
        np.testing.assert_allclose(got, gamma * s / (1 + gamma * s * s) * u, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = rng_for(100)
        for trial in range(5):
            Z = rng.standard_normal((6, 4))
            U = orthonormal_basis(6, seed=trial)
            fn = lambda z: projected_coding_rate(z, U, 2, 1.1)
            assert rel_err(grad_projected_coding_rate(Z, U, 2, 1.1), central_diff(fn, Z)) <= 1e-6


class TestTaylorTerms:
    def test_zero_input(self):
        U = orthonormal_basis(6, seed=2)
        assert taylor_terms(np.zeros((6, 4)), U, 2, 1.0) == (0.0, 0.0)
        g1, g2 = grad_taylor_terms(np.zeros((6, 4)), U, 2, 1.0)
        assert not g1.any() and not g2.any()

    def test_scalar_case(self):
        u = np.array([[1.0], [0.0]])
        z = np.array([[0.3], [9.9]])  # only the first row projects
        gamma = 2.0
        s = 0.3
        first, second = taylor_terms(z, u, 1, gamma)
        assert first == pytest.approx(gamma * s**2 / 2, abs=1e-15)
        assert second == pytest.approx(-(gamma**2) * s**4 / 4, abs=1e-15)

    def test_bound_on_small_instances(self):
        rng = rng_for(200)
        for trial in range(100):
            Z = 0.1 * rng.standard_normal((8, 5))
            U = orthonormal_basis(8, seed=trial)
            first, second = taylor_terms(Z, U, 2, 1.0)
            rc = projected_coding_rate(Z, U, 2, 1.0)
            assert first + second <= rc + 1e-12

    def test_gradients_match_finite_differences(self):
        rng = rng_for(300)
        for trial in range(5):
            Z = rng.standard_normal((6, 4))
            U = orthonormal_basis(6, seed=10 + trial)
            g1, g2 = grad_taylor_terms(Z, U, 2, 0.8)
            f1 = lambda z: taylor_terms(z, U, 2, 0.8)[0]
            f2 = lambda z: taylor_terms(z, U, 2, 0.8)[1]
            assert rel_err(g1, central_diff(f1, Z)) <= 1e-6
            assert rel_err(g2, central_diff(f2, Z)) <= 1e-6


class TestSparsity:
    def test_zero_matrix(self):
        assert sparsity_l0(np.zeros((3, 3))) == 0

    def test_hand_count(self):
        assert sparsity_l0(np.array([0.0, 0.5, -0.2, 0.0])) == 2

    def test_boundary_is_strict(self):
        assert sparsity_l0(np.array([L0_TOL, -L0_TOL])) == 0
        assert sparsity_l0(np.array([np.nextafter(L0_TOL, 1.0)])) == 1

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            sparsity_l0(np.array([0.0, np.nan]))


class TestLayerMeasure:
    def test_zero_tokens(self):
        cfg = RateConfig(d=8, N=5, K=2)
        U = orthonormal_basis(8, seed=0)
        assert srr_layer_measure(np.zeros((8, 5)), U, cfg) == 0.0

    def test_component_recomposition(self):
        cfg = RateConfig(d=8, N=5, K=2, eps_sq=0.5, lambda_sparsity=0.1)
        Z = rng_for(6).standard_normal((8, 5))
        U = orthonormal_basis(8, seed=3)
        expected = (
            0.1 * sparsity_l0(Z)
            + projected_coding_rate(Z, U, 2, cfg.gamma)
            - coding_rate(Z, cfg.full_scale)
        )
        assert srr_layer_measure(Z, U, cfg) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        cfg = RateConfig(d=8, N=5, K=2)
        with pytest.raises(ShapeError):
            srr_layer_measure(np.zeros((6, 5)), orthonormal_basis(6, 0), cfg)
