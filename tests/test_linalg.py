import numpy as np
import pytest

from srr.autodiff import LN_EPS, _ln_stats
from srr.errors import ConfigError, DefinitenessError, NumericError, ShapeError
from srr.linalg import (
    _softmax,
    cross_entropy_np,
    logdet_psd,
    orthonormal_basis,
    rng_for,
    softmax_columns,
    spectral_norm,
    stable_seed,
)

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


class TestLogdetPsd:
    def test_identity_is_zero(self):
        assert logdet_psd(np.eye(3)) == 0.0

    def test_diag_2_2(self):
        # eigenvalues (2, 2) -> log 4 = 2 ln 2
        assert logdet_psd(np.diag([2.0, 2.0])) == pytest.approx(2 * LN2, abs=1e-12)

    def test_2x2_by_hand(self):
        # det [[2,1],[1,2]] = 3
        assert logdet_psd(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(LN3, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = rng_for(11)
        for _ in range(10):
            A = rng.standard_normal((6, 6))
            M = np.eye(6) + A @ A.T
            expected = float(np.sum(np.log(np.linalg.eigvalsh(M))))
            assert logdet_psd(M) == pytest.approx(expected, abs=1e-9)

    def test_block_diagonal_additivity(self):
        rng = rng_for(12)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((3, 3))
        A = np.eye(4) + a @ a.T
        B = np.eye(3) + b @ b.T
        block = np.zeros((7, 7))
        block[:4, :4] = A
        block[4:, 4:] = B
        assert logdet_psd(block) == pytest.approx(logdet_psd(A) + logdet_psd(B), abs=1e-9)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            logdet_psd(np.ones((2, 3)))

    def test_asymmetric_raises(self):
        with pytest.raises(DefinitenessError):
            logdet_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_not_positive_definite_raises(self):
        with pytest.raises(DefinitenessError):
            logdet_psd(np.diag([1.0, -1.0]))

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            logdet_psd(np.array([[1.0, 0.0], [0.0, np.nan]]))


class TestSoftmaxColumns:
    def test_zero_matrix_uniform(self):
        out = softmax_columns(np.zeros((2, 2)))
        assert np.array_equal(out, np.full((2, 2), 0.5))

    def test_hand_column(self):
        out = softmax_columns(np.array([[0.0], [np.log(3.0)]]))
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], atol=1e-15)

    def test_columns_sum_to_one(self):
        scores = rng_for(3).standard_normal((5, 7)) * 50
        np.testing.assert_allclose(softmax_columns(scores).sum(axis=0), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        scores = rng_for(4).standard_normal((4, 3))
        shifted = scores.copy()
        shifted[:, 1] += 123.4
        np.testing.assert_allclose(softmax_columns(scores), softmax_columns(shifted), atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        out = softmax_columns(np.array([[1000.0, -1000.0], [999.0, -999.0]]))
        assert np.isfinite(out).all()

    def test_stacked_matrices(self):
        stack = rng_for(5).standard_normal((3, 4, 6))
        out = softmax_columns(stack)
        np.testing.assert_allclose(out.sum(axis=-2), 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], softmax_columns(stack[1]), atol=1e-15)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            softmax_columns(np.zeros(3))

    def test_nan_scores_rejected(self):
        with pytest.raises(NumericError):
            softmax_columns(np.array([[0.0, np.nan], [1.0, 2.0]]))


def softmax_oracle(x, axis):
    """The softmax expression the in-place kernel replaced."""
    expd = np.exp(x - x.max(axis=axis, keepdims=True))
    return expd / expd.sum(axis=axis, keepdims=True)


def with_nonfinite(x):
    x = x.copy()
    x.flat[::29] = np.nan
    x.flat[5::31] = np.inf
    x.flat[11::37] = -np.inf
    return x


class TestSoftmaxKernel:
    """``_softmax`` and layer norm's ``_ln_stats`` give the bits of the plain
    numpy expressions they replaced, on C-ordered stacks, on the attention
    heads' softmax-axis-first buffers and in place, and leave their input
    alone."""

    # C-ordered stacks, softmax over axis -2: many small matrices, paper-size
    # heads, single large Grams, a tiny stack and single-column stacks
    SHAPES = [(256, 4, 9, 9), (8, 6, 65, 65), (6, 196, 196), (196, 196), (2, 1, 9, 9), (4096, 9, 1)]
    # (N, ..., N) score buffers as the attention heads keep them, softmax over axis 0
    AXIS_FIRST = [(9, 256, 9), (65, 8, 65), (5, 2, 5), (196, 196)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_columns_bitwise(self, shape):
        x = rng_for(60, *shape).standard_normal(shape) * 4
        for arr in (x, np.swapaxes(x, -1, -2)):
            before = arr.copy()
            assert np.array_equal(_softmax(arr, -2), softmax_oracle(arr, -2))
            assert np.array_equal(softmax_columns(arr), softmax_oracle(arr, -2))
            assert np.array_equal(arr, before)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_columns_bitwise_with_nan_and_inf(self, shape):
        x = with_nonfinite(rng_for(61, *shape).standard_normal(shape))
        before = x.copy()
        with np.errstate(invalid="ignore"):
            got, want = _softmax(x, -2), softmax_oracle(x, -2)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(x, before, equal_nan=True)

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("shape", AXIS_FIRST)
    def test_axis_first_buffer_bitwise(self, shape, nonfinite):
        buf = rng_for(64, *shape).standard_normal(shape) * 4
        if nonfinite:
            buf = with_nonfinite(buf)
        before = buf.copy()
        with np.errstate(invalid="ignore"):
            want = softmax_oracle(np.ascontiguousarray(np.moveaxis(buf, 0, -2)), -2)
            got = _softmax(buf, 0)
            work = buf.copy()
            assert _softmax(work, 0, out=work) is work  # in place, as the heads run it
        for out in (got, work):
            assert np.array_equal(np.moveaxis(out, 0, -2), want, equal_nan=True)
        assert np.array_equal(buf, before, equal_nan=True)

    def test_rows_bitwise(self):
        x = rng_for(62).standard_normal((256, 10)) * 4
        before = x.copy()
        assert np.array_equal(_softmax(x, -1), softmax_oracle(x, -1))
        with np.errstate(invalid="ignore"):
            bad = with_nonfinite(x)
            assert np.array_equal(_softmax(bad, -1), softmax_oracle(bad, -1), equal_nan=True)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize(
        "shape", [(256, 9, 9), (2048, 9, 2), (64, 9, 9), (4096, 8, 3), (300, 16, 17), (1024, 16, 1), (4096, 9, 1)]
    )
    def test_ln_stats_bitwise(self, shape):
        """Layer norm's column statistics are numpy's mean and std over axis
        -2, on C-ordered stacks and reversed views, into given buffers or not."""
        x = rng_for(63, *shape).standard_normal(shape)
        for arr in (x, x[::-1]):
            before = arr.copy()
            mu = arr.mean(axis=-2, keepdims=True)
            want_std = np.sqrt(((arr - mu) ** 2).mean(axis=-2, keepdims=True) + LN_EPS)
            out, sq = np.empty(shape), np.empty(shape)
            for xc, got_mu, std in (_ln_stats(arr), _ln_stats(arr, out, sq)):
                assert np.array_equal(got_mu, mu)
                assert np.array_equal(std, want_std)
                assert np.array_equal(xc, arr - mu)
            assert np.array_equal(out, arr - mu) and np.array_equal(sq, (arr - mu) ** 2)
            assert np.array_equal(arr, before)


class TestCrossEntropy:
    """The PAC-Bayes early exit counts on a CE that is never negative."""

    @pytest.mark.parametrize(
        "logits, labels",
        [
            (np.zeros((4, 3)), [0, 1, 2, 0]),  # tied logits
            (np.full((2, 5), 7.25), [4, 0]),
            (np.array([[3.0], [-2.0]]), [0, 0]),  # a single class
            (np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]]), [0, 0, 1]),
            (np.array([[2.0, -np.inf, 0.5], [-np.inf, 1.0, -np.inf]]), [0, 1]),  # -inf away from the max
            (np.array([[2.0, -np.inf, 0.5]]), [1]),  # the label's own logit is -inf
            (np.random.default_rng(0).standard_normal((64, 10)) * 50, np.arange(64) % 10),
        ],
        ids=["tied", "tied-offset", "one-class", "huge", "neg-inf", "neg-inf-label", "random"],
    )
    def test_never_negative(self, logits, labels):
        with np.errstate(invalid="ignore", over="ignore"):
            assert cross_entropy_np(logits, np.asarray(labels)) >= 0.0

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 0, 1], [[0, 1, 2, 0]], 1])
    def test_one_label_per_row(self, labels):
        with pytest.raises(ShapeError, match="one label per row"):
            cross_entropy_np(np.zeros((4, 3)), labels)

    @pytest.mark.parametrize("labels", [[0, 1, 3, 0], [0, -1, 2, 0]])
    def test_label_outside_the_classes(self, labels):
        with pytest.raises(ConfigError, match=r"\[0, 3\)"):
            cross_entropy_np(np.zeros((4, 3)), labels)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 5))) == 0.0

    def test_matches_svd_oracle(self):
        rng = rng_for(21)
        for _ in range(10):
            M = rng.standard_normal((8, 5))
            assert spectral_norm(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], abs=1e-8)

    def test_scaling_homogeneity(self):
        M = rng_for(22).standard_normal((6, 6))
        assert spectral_norm(-2.5 * M) == pytest.approx(2.5 * spectral_norm(M), abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-100, 1e-7, 1e77, 1e100, 1e200])
    def test_extreme_scales(self, scale):
        # past 1e77 the Gram overflowed to a 0.0 norm; below 1e-7 the absolute stop test ended the iteration early
        for shape in ((8, 8), (5, 9)):
            M = rng_for(24).standard_normal(shape)
            assert spectral_norm(M * scale) == pytest.approx(spectral_norm(M) * scale, rel=1e-12, abs=0.0)

    def test_huge_norm_squares_to_inf(self):
        with np.errstate(over="ignore"):
            assert spectral_norm(1e200 * np.eye(3)) ** 2 == np.inf

    def test_vector_input(self):
        v = np.array([[3.0, 4.0]])  # a 1 x n matrix
        assert spectral_norm(v) == pytest.approx(5.0, abs=1e-10)

    def test_deterministic(self):
        M = rng_for(23).standard_normal((7, 7))
        assert spectral_norm(M) == spectral_norm(M)

    def test_stack_rejected(self):
        with pytest.raises(ShapeError, match="expected a matrix"):
            spectral_norm(np.ones((2, 3, 3)))

    def test_vector_rejected(self):
        with pytest.raises(ShapeError, match="expected a matrix"):
            spectral_norm(np.array([3.0, 4.0]))

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestOrthonormalBasis:
    def test_orthonormality(self):
        U = orthonormal_basis(16, seed=0)
        assert np.linalg.norm(U.T @ U - np.eye(16)) <= 1e-10

    def test_unit_columns(self):
        U = orthonormal_basis(9, seed=5)
        np.testing.assert_allclose(np.linalg.norm(U, axis=0), 1.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(orthonormal_basis(8, seed=42), orthonormal_basis(8, seed=42))

    def test_seed_changes_output(self):
        assert not np.array_equal(orthonormal_basis(8, seed=1), orthonormal_basis(8, seed=2))

    def test_partial_columns(self):
        U = orthonormal_basis(10, seed=3, cols=4)
        assert U.shape == (10, 4)
        assert np.linalg.norm(U.T @ U - np.eye(4)) <= 1e-10

    def test_too_many_columns(self):
        with pytest.raises(ShapeError):
            orthonormal_basis(3, seed=0, cols=4)

    def test_zero_dimension(self):
        with pytest.raises(ShapeError, match="must be positive"):
            orthonormal_basis(0, 0)


class TestSeeding:
    def test_stable_seed_deterministic(self):
        assert stable_seed(1, "init") == stable_seed(1, "init")

    def test_stable_seed_distinguishes_parts(self):
        assert stable_seed(1, "init") != stable_seed(1, "tokens")
        assert stable_seed(12, 3) != stable_seed(1, 23)
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_stable_seed_range(self):
        for parts in [(0,), ("x", 1, 2), (999, "epoch", 7)]:
            s = stable_seed(*parts)
            assert 0 <= s < 2**63

    def test_rng_for_reproducible(self):
        a = rng_for(7, "stream").standard_normal(5)
        b = rng_for(7, "stream").standard_normal(5)
        assert np.array_equal(a, b)

    def test_rng_for_plain_int(self):
        a = rng_for(123).standard_normal(3)
        b = np.random.default_rng(123).standard_normal(3)
        assert np.array_equal(a, b)
