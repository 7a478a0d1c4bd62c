import numpy as np
import pytest

import srr.autodiff as ad
from srr import layers
from srr.errors import ShapeError
from srr.linalg import logdet_psd, rng_for, softmax_columns
from srr.model import Model, ModelConfig, init_model


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, entry by entry.

    Slow; intended for verifying analytic gradients on small problems.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def grad_of(build, x0):
    """Backprop gradient of a scalar-valued graph builder at x0."""
    x = ad.Tensor(x0, requires_grad=True)
    build(x).backward()
    return x.grad


def layer_norm_ones(d):
    return ad.Tensor(np.ones(d)), ad.Tensor(np.zeros(d))


def layer_node(z, U, D, num_heads, variant, norm2=None, lam=0.1):
    """A traced layer at gamma = alpha = 1, beta = 0.5, its first layer norm
    plain (unit gain, zero bias), the second ``norm2`` (plain when None)."""
    d = z.shape[-2]
    norm2 = layer_norm_ones(d) if norm2 is None else tuple(ad.as_tensor(v) for v in norm2)
    U, D = ad.as_tensor(U), ad.as_tensor(D)
    return layers._traced_layer(z, layer_norm_ones(d), U, None, norm2, D, num_heads, variant, 1.0, 1.0, 0.5, lam)


def twin_case(detach=lambda h: h):
    """A crate_c layer node on the interior input h = 1.5 x (or on
    ``detach(h)``) with trainable layer norms, U and D: (x, h, weights, node)."""
    x = ad.Tensor(rng_for(20).standard_normal((2, 4, 3)), requires_grad=True)
    h = x * 1.5
    norms = [ad.Tensor(1.0 + 0.2 * rng_for(21, j).standard_normal(4), requires_grad=True) for j in range(4)]
    U = ad.Tensor(rng_for(22).standard_normal((4, 4)), requires_grad=True)
    D = ad.Tensor(rng_for(23).standard_normal((4, 4)) / 2.0, requires_grad=True)
    node = layers._traced_layer(detach(h), norms[:2], U, None, norms[2:], D, 2, layers.CRATE_C, 1.0, 1.0, 0.5, 0.1)
    return x, h, norms + [U, D], node


class TestBasicOps:
    def test_add_mul_values(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 4.0])
        assert np.array_equal((a + b).data, [4.0, 6.0])
        assert np.array_equal((a * b).data, [3.0, 8.0])
        assert np.array_equal((a - b).data, [-2.0, -2.0])
        assert np.array_equal((a * 0.5).data, [0.5, 1.0])

    def test_constant_drops_tape(self):
        a = ad.Tensor([1.0]) + ad.Tensor([2.0])
        assert not a.requires_grad and a._parents == ()

    def test_constant_chain_keeps_no_vjp(self):
        # every op on constants drops its VJP closure, and with it the
        # intermediate arrays the closure would keep alive
        a = ad.Tensor(rng_for(3).standard_normal((2, 4, 4)))
        outs = [
            ad.logdet_gram(ad.softmax_cols(a @ a), 1.0),
            ad.layer_norm_cols(a, np.ones(4), np.zeros(4)),
            ad.softmax_cross_entropy(a[:, 0, :], np.array([0, 1])),
            layer_node(a * 2.0 - 1.0, np.eye(4), np.eye(4), 2, layers.CRATE_C) + np.zeros((3, 2, 4, 4)),
            layer_node(ad.Tensor(a.data.mT), np.eye(4), np.eye(4), 2, layers.CRATE_IDENTITY).mean(),
        ]
        for out in outs:
            assert out._vjp is None and out._parents == () and not out.requires_grad

    def test_requires_grad_propagates(self):
        a = ad.Tensor([1.0], requires_grad=True)
        assert (a + 1.0).requires_grad
        assert (ad.Tensor(a.data) + 1.0).requires_grad is False

    def test_diamond_accumulation(self):
        # y = x*x + x -> dy/dx = 2x + 1
        x0 = np.array([3.0])
        g = grad_of(lambda x: (x * x + x).sum(), x0)
        np.testing.assert_allclose(g, [7.0])

    def test_backward_needs_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_broadcast_add_gradient(self):
        x0 = rng_for(1).standard_normal((4, 1))
        other = rng_for(2).standard_normal((4, 5))
        build = lambda x: ((x + other) * (x + other)).sum()
        got = grad_of(build, x0)
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matmul_gradients(self):
        A0 = rng_for(3).standard_normal((3, 4))
        B = rng_for(4).standard_normal((4, 2))
        build = lambda a: ((a @ B) * (a @ B)).sum()
        got = grad_of(build, A0)
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), A0)
        np.testing.assert_allclose(got, want, atol=1e-6)
        # right operand too
        buildb = lambda b: ((ad.Tensor(A0) @ b) * (ad.Tensor(A0) @ b)).sum()
        gotb = grad_of(buildb, B)
        wantb = numeric_grad(lambda b: buildb(ad.Tensor(b, requires_grad=True)).item(), B)
        np.testing.assert_allclose(gotb, wantb, atol=1e-6)

    def test_batched_matmul(self):
        A0 = rng_for(5).standard_normal((2, 3, 4))
        B = rng_for(6).standard_normal((2, 4, 3))
        build = lambda a: (a @ B).sum()
        got = grad_of(build, A0)
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), A0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_getitem_gradient(self):
        x0 = rng_for(7).standard_normal((3, 4))
        # overlapping reads of one entry add up
        build = lambda x: (x[1:, :2] * np.arange(4.0).reshape(2, 2)).sum() + (x[::2, 1] * x[2, 1:3]).sum()
        got = grad_of(build, x0)
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_sum_and_mean(self):
        x0 = rng_for(9).standard_normal((3, 4))
        w = np.arange(12.0).reshape(3, 4)
        for build in (
            lambda x: x.sum(),
            lambda x: (x * w).sum(),
            lambda x: x.mean(),
            lambda x: (x * w).mean() * 2.0,
        ):
            got = grad_of(build, x0)
            want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_relu(self):
        # the ReLU lives in the layer node: with the second layer norm's gain
        # 0, D = 0 and no threshold, a one-token layer is the ReLU of that
        # layer norm's bias, one entry per feature
        z = ad.Tensor(rng_for(10).standard_normal((3, 1)), requires_grad=True)
        bias = ad.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        y = layer_node(z, np.eye(3), np.zeros((3, 3)), 1, layers.CRATE_C, norm2=(np.zeros(3), bias), lam=0.0)
        np.testing.assert_allclose(y.data, [[0.0], [0.0], [2.0]])
        y.sum().backward()
        np.testing.assert_allclose(bias.grad, [0.0, 0.0, 1.0])
        assert not z.grad.any()  # a zero gain passes no cotangent on

    def test_concat_gradient_split(self):
        # the layer node splits the head stack's cotangent by rows, one block
        # of the basis per head: with the identity output, U's gradient is
        # the ndarray layer's by finite differences
        z0 = rng_for(11).standard_normal((4, 3))
        u = ad.Tensor(rng_for(12).standard_normal((4, 4)), requires_grad=True)
        d = rng_for(13).standard_normal((4, 4)) / 2.0
        w = rng_for(14).standard_normal((4, 3))
        (layer_node(ad.Tensor(z0), u, d, 2, layers.CRATE_IDENTITY) * w).sum().backward()

        def loss(a):
            plain = np.ones(4), np.zeros(4)
            za = layers.attention_update(layers.layer_norm(z0, *plain), a, 2, layers.CRATE_IDENTITY, 1.0)
            return float(np.sum(layers.ista_step(layers.layer_norm(za, *plain), d, 0.5, 0.1) * w))

        np.testing.assert_allclose(u.grad, numeric_grad(loss, u.data.copy()), atol=1e-6)

    def test_node_calls_only_the_maps_of_parents_with_grad(self):
        a = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        b = ad.Tensor(np.ones(3), requires_grad=True)
        const = ad.Tensor(np.ones(3))
        calls = []

        def scaled(name, factor):
            def grad_map(g):
                calls.append(name)
                return factor * g

            return grad_map

        maps = (scaled("a", 2.0), scaled("const", 1.0), scaled("b", 3.0))
        ad._node(a.data + const.data + b.data, (a, const, b), maps).sum().backward()
        assert calls == ["a", "b"]  # parent order, the constant's map never runs
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.full(3, 6.0))  # summed down over the broadcast axis

    def test_constant_copy_blocks_gradient(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = (ad.Tensor(x.data) * x).sum()  # d/dx treating first factor constant -> 2.0
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
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_softmax_cols_batched_gradient(self):
        x0 = rng_for(23).standard_normal((2, 4, 3))
        w = rng_for(24).standard_normal((2, 4, 3))
        build = lambda x: (ad.softmax_cols(x) * w).sum()
        got = grad_of(build, x0)
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(got, want, atol=1e-7)

    @pytest.mark.parametrize("B, N", [(8, 65), (256, 9)])
    def test_softmax_cols_vjp_reads_the_heads_layout(self, B, N):
        # the attention heads hand it (B, N, N) views of (N, B, N) buffers
        sm_buf, g_buf = (rng_for(25, i, B).random((N, B, N)) for i in (0, 1))
        sm, g = np.moveaxis(sm_buf, 0, -2), np.moveaxis(g_buf, 0, -2)
        got = ad._softmax_cols_vjp(sm, g)
        assert np.array_equal(got, ad._softmax_cols_vjp(np.ascontiguousarray(sm), np.ascontiguousarray(g)))

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
        np.testing.assert_allclose(x.grad, numeric_grad(fx, x0), atol=1e-6)
        np.testing.assert_allclose(gain.grad, numeric_grad(fg, gain0), atol=1e-6)
        np.testing.assert_allclose(bias.grad, numeric_grad(fb, bias0), atol=1e-6)

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
        np.testing.assert_allclose(x.grad, numeric_grad(fx, x0), atol=1e-6)
        np.testing.assert_allclose(gain.grad, numeric_grad(fg, gain0), atol=1e-6)
        assert bias.grad.shape == (5,)

    @pytest.mark.parametrize("batch", [(3,), ()])
    def test_layer_norm_is_the_node_that_keeps_x_hat(self, batch):
        # the node that kept x-hat, test-side: re-forming it in the VJP keeps every bit
        def kept_xhat(x, gain, bias):
            d = x.data.shape[-2]
            gcol = gain.data.reshape((d, 1))
            mu = x.data.mean(axis=-2, keepdims=True)
            xc = x.data - mu
            inv = 1.0 / np.sqrt((xc * xc).mean(axis=-2, keepdims=True) + ad.LN_EPS)
            xhat = xc * inv
            cols = (0, -1) if x.data.ndim == 3 else -1

            def grad_x(g):
                gx = g * gcol
                term1 = gx.mean(axis=-2, keepdims=True)
                term2 = (gx * xhat).mean(axis=-2, keepdims=True)
                return inv * (gx - term1 - xhat * term2)

            maps = (grad_x, lambda g: (g * xhat).sum(axis=cols), lambda g: g.sum(axis=cols))
            return ad._node(gcol * xhat + bias.data.reshape((d, 1)), (x, gain, bias), maps)

        x0 = rng_for(33).standard_normal(batch + (9, 4)) * 3.0 + 1.0
        params0 = [rng_for(34).standard_normal(9), rng_for(35).standard_normal(9)]
        w = rng_for(36).standard_normal(x0.shape)

        def run(op):
            leaves = [ad.Tensor(a, requires_grad=True) for a in [x0] + params0]
            out = op(leaves[0] * 1.0, *leaves[1:])
            (out * w).sum().backward()
            return [out.data] + [t.grad for t in leaves]

        for got, want in zip(run(ad.layer_norm_cols), run(kept_xhat)):
            assert np.array_equal(got, want)

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
            want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), z0)
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
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), z0)
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
        want = numeric_grad(lambda a: build(ad.Tensor(a, requires_grad=True)).item(), logits0)
        np.testing.assert_allclose(got, want, atol=1e-7)
        # fused form: (softmax - onehot)/B
        sm = np.exp(logits0) / np.exp(logits0).sum(axis=1, keepdims=True)
        sm[np.arange(4), labels] -= 1
        np.testing.assert_allclose(got, sm / 4, atol=1e-12)

    def test_cross_entropy_of_a_logit_vector_rejected(self):
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(ad.Tensor(np.zeros(3)), np.array([0]))


class TestTape:
    def test_plain_backward_releases_interior_grads(self):
        x = ad.Tensor(rng_for(15).standard_normal((3, 4)), requires_grad=True)
        w = ad.Tensor(rng_for(16).standard_normal((4, 4)), requires_grad=True)
        h = ad.softmax_cols(x @ w)
        y = ad.layer_norm_cols(h, np.ones(3), np.zeros(3))
        loss = (y * y).sum()
        loss.backward()
        assert all(t.grad is None for t in (h, y, loss))
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 4)

    def test_twin_walk_leaves_the_input_grad_none(self):
        # the twin's parents are the layer's weights: a walk from it reaches
        # each of them and stops short of the layer's input
        x, h, weights, node = twin_case()
        twin = layers._weights_twin(node)
        assert twin.data is node.data
        (twin * rng_for(24).standard_normal(node.shape)).sum().backward()
        assert x.grad is None and h.grad is None and node.grad is None
        assert all(t.grad is not None and t.grad.any() for t in weights)

    def test_twin_weight_grads_are_the_detached_layers(self):
        # the twin's VJP is the node's without the input's term: each weight
        # gets the bits of the same layer built on a constant copy of its input
        w = rng_for(25).standard_normal((2, 4, 3))
        _, _, weights, node = twin_case()
        (layers._weights_twin(node) * w).sum().backward()
        got = [t.grad for t in weights]
        _, _, weights, copy = twin_case(lambda h: ad.Tensor(h.data))
        (copy * w).sum().backward()
        for g, t in zip(got, weights):
            assert np.array_equal(g, t.grad)

    def test_node_and_twin_walk_releases_interior_grads(self):
        # one walk through a node and its twin leaves only leaf gradients,
        # and the input's is the node's term alone
        w1, w2 = rng_for(26).standard_normal((2, 4, 3)), rng_for(27).standard_normal((2, 4, 3))
        x, _, _, node = twin_case()
        (node * w1).sum().backward()
        alone = x.grad
        x, h, weights, node = twin_case()
        twin = layers._weights_twin(node)
        first, second = (node * w1).sum(), (twin * w2).sum()
        loss = first + second
        loss.backward()
        assert all(t.grad is None for t in (h, node, twin, first, second, loss))
        assert np.array_equal(x.grad, alone)
        assert all(t.grad is not None for t in weights)


class TestAccumulation:
    def test_no_borrowed_array_is_written(self):
        # s = a + b hands one cotangent array to both leaves by None maps; a
        # then gets a second and a third term, b keeps the array as its grad
        a0, b0 = rng_for(40).standard_normal((3, 4)), rng_for(41).standard_normal((3, 4))
        w, v, u = (rng_for(42, i).standard_normal((3, 4)) for i in range(3))
        a, b = ad.Tensor(a0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
        s = a + b
        loss = (s * w).sum() + (a * v).sum() + (a * u).sum()
        loss.backward()
        assert np.array_equal(b.grad, w)
        np.testing.assert_allclose(a.grad, w + v + u, rtol=1e-15)
        # a later walk leaves the sums of this one as they are
        kept = [a.grad, a.grad.copy(), b.grad, b.grad.copy()]
        loss.backward()
        assert np.array_equal(kept[0], kept[1]) and np.array_equal(kept[2], kept[3])
        np.testing.assert_allclose(a.grad, 2 * (w + v + u), rtol=1e-15)

    def test_terms_add_in_order_into_one_owned_sum(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        terms = [np.array([1e16, 1.0]), np.array([1.0, 1e16]), np.array([-1e16, -1e16])]
        for t in terms:
            x._accumulate(t)
        assert np.array_equal(x.grad, (terms[0] + terms[1]) + terms[2])
        assert x.grad is x._sum and all(x.grad is not t for t in terms)
        assert np.array_equal(terms[0], [1e16, 1.0])  # the borrowed first term is untouched

    @pytest.mark.parametrize(
        "B, m, n, k", [(1, 12, 5, 12), (8, 384, 65, 384), (32, 32, 9, 32), (16, 8, 9, 32)],
        ids=["B1", "paper", "desk", "desk-head"],
    )
    @pytest.mark.parametrize("budget", ["below-one-product", "three-products", "whole-stack"])
    def test_chunked_weight_sum_is_the_stack_sum(self, B, m, n, k, budget, monkeypatch):
        a, z = rng_for(43).standard_normal((B, m, n + 1)), rng_for(44).standard_normal((B, k, n))
        a = a[..., 1:]  # strided, as the embedding's g[..., 1:] is
        product = 8 * m * k
        bytes_ = {"below-one-product": product - 8, "three-products": 3 * product, "whole-stack": B * product}
        monkeypatch.setattr(ad, "_PRODUCT_BYTES", bytes_[budget])
        assert np.array_equal(ad._matmul_sum(a, z.mT, (m, k)), (a @ z.mT).sum(axis=0))

    def test_one_sample_chunks_add_the_products_in_sample_order(self, monkeypatch):
        # one product per chunk at paper geometry: every product after the first
        # is added into the running sum in sample order
        a, z = rng_for(45).standard_normal((8, 384, 65)), rng_for(46).standard_normal((8, 384, 65))
        monkeypatch.setattr(ad, "_PRODUCT_BYTES", 8 * 384 * 384)
        want = a[0] @ z[0].T
        for i in range(1, 8):
            want += a[i] @ z[i].T
        assert np.array_equal(ad._matmul_sum(a, z.mT, (384, 384)), want)


class TestEmbedNode:
    def test_train_mode_embedding_is_the_kernel_with_exact_gradients(self):
        cfg = ModelConfig(L=1, d=4, K=2, feat_dim=3, num_tokens=2, num_classes=2, seed=5)
        model = init_model(cfg)
        raw = rng_for(30).standard_normal((2, cfg.in_dim, cfg.grid_tokens))
        w = rng_for(31).standard_normal((2, cfg.d, cfg.tokens))
        tok = model.embed_inputs(raw, train_mode=True)
        assert np.array_equal(tok.data, model.embed_inputs(raw))
        (tok * w).sum().backward()
        for name in ("embed", "cls", "pos"):
            def loss(a, name=name):
                other = Model(cfg, {**model.params, name: ad.Tensor(a)}, None)
                return float(np.sum(other.embed_inputs(raw) * w))

            want = numeric_grad(loss, model.params[name].data.copy())
            np.testing.assert_allclose(model.params[name].grad, want, atol=1e-7, err_msg=name)
