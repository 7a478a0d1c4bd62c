import numpy as np
import pytest

import srr.autodiff as ad
from srr.errors import ShapeError
from srr.linalg import logdet_psd, rng_for, softmax_columns


def grad_of(build, x0):
    """Backprop gradient of a scalar-valued graph builder at x0."""
    x = ad.Tensor(x0, requires_grad=True)
    build(x).backward()
    return x.grad


class TestBasicOps:
    def test_add_mul_values(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 4.0])
        assert np.array_equal((a + b).data, [4.0, 6.0])
        assert np.array_equal((a * b).data, [3.0, 8.0])
        assert np.array_equal((a - b).data, [-2.0, -2.0])
        assert np.array_equal((-a).data, [-1.0, -2.0])
        assert np.array_equal((a / 2).data, [0.5, 1.0])
        assert np.array_equal((5.0 - a).data, [4.0, 3.0])

    def test_constant_drops_tape(self):
        a = ad.Tensor([1.0]) + ad.Tensor([2.0])
        assert not a.requires_grad and a._parents == ()

    def test_constant_chain_keeps_no_vjp(self):
        # every op on constants drops its VJP closure, and with it the
        # intermediate arrays the closure would keep alive
        a = ad.Tensor(rng_for(3).standard_normal((2, 4, 4)))
        col = ad.concat([a[:, :, :1].mT.reshape(2, 4, 1), -a.sum(axis=-1, keepdims=True)], axis=-1)
        outs = [
            ad.logdet_gram(ad.softmax_cols(a @ a), 1.0),
            ad.layer_norm_cols(a, np.ones(4), np.zeros(4)),
            ad.softmax_cross_entropy(a[:, 0, :], np.array([0, 1])),
            (a * 2.0 - 1.0).relu().broadcast_to((3, 2, 4, 4)),
            col.mean(),
        ]
        for out in outs:
            assert out._vjp is None and out._parents == () and not out.requires_grad

    def test_requires_grad_propagates(self):
        a = ad.Tensor([1.0], requires_grad=True)
        assert (a + 1.0).requires_grad
        assert (a.detach() + 1.0).requires_grad is False

    def test_diamond_accumulation(self):
        # y = x*x + x -> dy/dx = 2x + 1
        x0 = np.array([3.0])
        g = grad_of(lambda x: (x * x + x).sum(), x0)
        np.testing.assert_allclose(g, [7.0])

    def test_backward_needs_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_tensor_division_by_tensor_rejected(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with pytest.raises(TypeError):
            x / x

    def test_broadcast_add_gradient(self):
        x0 = rng_for(1).standard_normal((4, 1))
        other = rng_for(2).standard_normal((4, 5))
        build = lambda x: ((x + other) * (x + other)).sum()
        got = grad_of(build, x0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matmul_gradients(self):
        A0 = rng_for(3).standard_normal((3, 4))
        B = rng_for(4).standard_normal((4, 2))
        build = lambda a: ((a @ B) * (a @ B)).sum()
        got = grad_of(build, A0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), A0)
        np.testing.assert_allclose(got, want, atol=1e-6)
        # right operand too
        buildb = lambda b: ((ad.Tensor(A0) @ b) * (ad.Tensor(A0) @ b)).sum()
        gotb = grad_of(buildb, B)
        wantb = ad.numeric_grad(lambda b: buildb(ad.Tensor(b, requires_grad=True)).item(), B)
        np.testing.assert_allclose(gotb, wantb, atol=1e-6)

    def test_batched_matmul(self):
        A0 = rng_for(5).standard_normal((2, 3, 4))
        B = rng_for(6).standard_normal((2, 4, 3))
        build = lambda a: (a @ B).sum()
        got = grad_of(build, A0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), A0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_getitem_and_reshape(self):
        x0 = rng_for(7).standard_normal((3, 4))
        build = lambda x: (x[1:, :2].reshape(4) * np.arange(4.0)).sum()
        got = grad_of(build, x0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_transpose_last_axes(self):
        x0 = rng_for(8).standard_normal((2, 3, 4))
        t = ad.Tensor(x0, requires_grad=True)
        y = t.mT
        assert y.shape == (2, 4, 3)
        (y * np.ones((2, 4, 3))).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))

    def test_sum_axes_and_mean(self):
        x0 = rng_for(9).standard_normal((3, 4))
        for build in (
            lambda x: x.sum(),
            lambda x: (x.sum(axis=0) * np.arange(4.0)).sum(),
            lambda x: (x.sum(axis=1, keepdims=True) * 2.0).sum(),
            lambda x: (x.mean(axis=0) * np.arange(4.0)).sum(),
            lambda x: x.mean(),
        ):
            got = grad_of(build, x0)
            want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_relu(self):
        x0 = np.array([-1.0, 0.0, 2.0])
        t = ad.Tensor(x0, requires_grad=True)
        y = t.relu()
        np.testing.assert_allclose(y.data, [0.0, 0.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0, 1.0])

    def test_concat_gradient_split(self):
        a0 = rng_for(10).standard_normal((2, 3))
        b0 = rng_for(11).standard_normal((4, 3))
        a = ad.Tensor(a0, requires_grad=True)
        b = ad.Tensor(b0, requires_grad=True)
        w = np.arange(18.0).reshape(6, 3)
        (ad.concat([a, b], axis=0) * w).sum().backward()
        np.testing.assert_allclose(a.grad, w[:2])
        np.testing.assert_allclose(b.grad, w[2:])

    def test_detach_blocks_gradient(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = (x.detach() * x).sum()  # d/dx treating first factor constant -> 2.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])


class TestFusedOps:
    def test_softmax_cols_forward_matches_plain(self):
        scores = rng_for(20).standard_normal((5, 3))
        out = ad.softmax_cols(ad.Tensor(scores))
        np.testing.assert_allclose(out.data, softmax_columns(scores), atol=1e-15)

    def test_softmax_cols_gradient(self):
        x0 = rng_for(21).standard_normal((4, 3))
        w = rng_for(22).standard_normal((4, 3))
        build = lambda x: (ad.softmax_cols(x) * w).sum()
        got = grad_of(build, x0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_softmax_cols_batched_gradient(self):
        x0 = rng_for(23).standard_normal((2, 4, 3))
        w = rng_for(24).standard_normal((2, 4, 3))
        build = lambda x: (ad.softmax_cols(x) * w).sum()
        got = grad_of(build, x0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_layer_norm_forward(self):
        x = rng_for(25).standard_normal((6, 4))
        gain = np.full(6, 1.5)
        bias = np.full(6, 0.25)
        out = ad.layer_norm_cols(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)).data
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        want = 1.5 * (x - mu) / np.sqrt(var + 1e-6) + 0.25
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_layer_norm_gradients(self):
        x0 = rng_for(26).standard_normal((5, 3))
        gain0 = rng_for(27).standard_normal(5)
        bias0 = rng_for(28).standard_normal(5)
        w = rng_for(29).standard_normal((5, 3))

        x = ad.Tensor(x0, requires_grad=True)
        gain = ad.Tensor(gain0, requires_grad=True)
        bias = ad.Tensor(bias0, requires_grad=True)
        (ad.layer_norm_cols(x, gain, bias) * w).sum().backward()

        fx = lambda a: (ad.layer_norm_cols(ad.Tensor(a), ad.Tensor(gain0), ad.Tensor(bias0)) * w).sum().item()
        fg = lambda a: (ad.layer_norm_cols(ad.Tensor(x0), ad.Tensor(a), ad.Tensor(bias0)) * w).sum().item()
        fb = lambda a: (ad.layer_norm_cols(ad.Tensor(x0), ad.Tensor(gain0), ad.Tensor(a)) * w).sum().item()
        np.testing.assert_allclose(x.grad, ad.numeric_grad(fx, x0), atol=1e-6)
        np.testing.assert_allclose(gain.grad, ad.numeric_grad(fg, gain0), atol=1e-6)
        np.testing.assert_allclose(bias.grad, ad.numeric_grad(fb, bias0), atol=1e-6)

    def test_layer_norm_batched_gradients(self):
        x0 = rng_for(30).standard_normal((2, 5, 3))
        gain0 = rng_for(31).standard_normal(5)
        bias0 = np.zeros(5)
        w = rng_for(32).standard_normal((2, 5, 3))
        x = ad.Tensor(x0, requires_grad=True)
        gain = ad.Tensor(gain0, requires_grad=True)
        bias = ad.Tensor(bias0, requires_grad=True)
        (ad.layer_norm_cols(x, gain, bias) * w).sum().backward()
        fx = lambda a: (ad.layer_norm_cols(ad.Tensor(a), ad.Tensor(gain0), ad.Tensor(bias0)) * w).sum().item()
        fg = lambda a: (ad.layer_norm_cols(ad.Tensor(x0), ad.Tensor(a), ad.Tensor(bias0)) * w).sum().item()
        np.testing.assert_allclose(x.grad, ad.numeric_grad(fx, x0), atol=1e-6)
        np.testing.assert_allclose(gain.grad, ad.numeric_grad(fg, gain0), atol=1e-6)
        assert bias.grad.shape == (5,)

    def test_logdet_gram_forward_matches_dense(self):
        z = rng_for(33).standard_normal((6, 4))
        got = ad.logdet_gram(ad.Tensor(z), scale=0.8).item()
        want = 0.5 * logdet_psd(np.eye(4) + 0.8 * z.T @ z)
        assert got == pytest.approx(want, abs=1e-10)

    def test_logdet_gram_wide_matrix(self):
        z = rng_for(34).standard_normal((3, 7))  # d < N: Gram on the d side
        got = ad.logdet_gram(ad.Tensor(z), scale=1.2).item()
        want = 0.5 * logdet_psd(np.eye(7) + 1.2 * z.T @ z)
        assert got == pytest.approx(want, abs=1e-10)

    def test_logdet_gram_gradient_both_sides(self):
        for shape, seed in [((6, 4), 35), ((3, 7), 36)]:
            z0 = rng_for(seed).standard_normal(shape)
            build = lambda z: ad.logdet_gram(z, scale=0.9)
            got = grad_of(build, z0)
            want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), z0)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_logdet_gram_batched(self):
        z0 = rng_for(37).standard_normal((3, 5, 4))
        out = ad.logdet_gram(ad.Tensor(z0), scale=1.0)
        assert out.shape == (3,)
        for b in range(3):
            want = 0.5 * logdet_psd(np.eye(4) + z0[b].T @ z0[b])
            assert out.data[b] == pytest.approx(want, abs=1e-10)
        build = lambda z: ad.logdet_gram(z, scale=1.0).sum()
        got = grad_of(build, z0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), z0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
        labels = np.array([0, 2])
        got = ad.softmax_cross_entropy(ad.Tensor(logits), labels).item()
        want = -(np.log(0.7) + np.log(0.8)) / 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_cross_entropy_gradient(self):
        logits0 = rng_for(38).standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        build = lambda x: ad.softmax_cross_entropy(x, labels)
        got = grad_of(build, logits0)
        want = ad.numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), logits0)
        np.testing.assert_allclose(got, want, atol=1e-7)
        # fused form: (softmax - onehot)/B
        sm = np.exp(logits0) / np.exp(logits0).sum(axis=1, keepdims=True)
        sm[np.arange(4), labels] -= 1
        np.testing.assert_allclose(got, sm / 4, atol=1e-12)
