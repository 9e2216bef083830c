import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import tsadv.autodiff as ad
from tsadv.autodiff import Tensor
from tsadv.nn import (
    Adam,
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    GlobalAvgPool1d,
    MaxPool1d,
    Network,
    ReLU,
    TrainingDivergedError,
    cross_entropy,
    fit,
    input_gradient_with_probs,
    l2,
    load_model,
    predict,
    save_model,
)

EPS = 1e-4
TOL = 1e-4


def numeric_gradient(f, x):
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = f()
        flat[i] = orig - EPS
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * EPS)
    return g


def max_rel_error(a, b):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / denom).max())


def check_gradients(make_output, tensors):
    """Backprop vs central differences for every tracked tensor.

    ``make_output`` rebuilds the graph from the tensors' current .data and
    returns the output Tensor; the check contracts it to a scalar with a
    fixed random projection so the full Jacobian action is exercised.
    """
    rng = np.random.default_rng(1234)
    out0 = make_output()
    proj = rng.normal(size=out0.data.shape)

    def scalar():
        out = make_output()
        return ad.tsum(out * Tensor(proj))

    loss = scalar()
    for t in tensors:
        t.grad = None
    loss.backward()
    for t in tensors:
        analytic = t.grad.copy()
        numeric = numeric_gradient(lambda: float(scalar().data), t.data)
        err = max_rel_error(analytic, numeric)
        assert err < TOL, f"gradient mismatch {err:.3e} for tensor of shape {t.data.shape}"


def tracked(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float64), requires_grad=True)


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add_broadcast(self):
        a = tracked(self.rng, 4, 3)
        b = tracked(self.rng, 3)
        check_gradients(lambda: a + b, [a, b])

    def test_mul_broadcast(self):
        a = tracked(self.rng, 2, 5)
        b = tracked(self.rng, 2, 1)
        check_gradients(lambda: a * b, [a, b])

    def test_matmul(self):
        a = tracked(self.rng, 4, 6)
        b = tracked(self.rng, 6, 3)
        check_gradients(lambda: ad.matmul(a, b), [a, b])

    def test_relu_away_from_kink(self):
        a = Tensor(self.rng.choice([-1.0, 1.0], size=(5, 5)) * self.rng.uniform(0.5, 2.0, (5, 5)),
                   requires_grad=True)
        check_gradients(lambda: ad.relu(a), [a])

    def test_relu_gradient_at_zero_is_zero(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        out = ad.tsum(ad.relu(a))
        out.backward()
        assert np.array_equal(a.grad, np.zeros((2, 2)))

    def test_relu_propagates_nan_and_maps_negative_zero_to_zero(self):
        a = Tensor(np.array([np.nan, -0.0, 0.0, -2.0, 3.0]), requires_grad=True)
        out = ad.relu(a)
        assert np.isnan(out.data[0])
        assert np.array_equal(out.data[1:], [0.0, 0.0, 0.0, 3.0])
        assert not np.signbit(out.data[1:]).any()
        ad.tsum(out * Tensor(np.ones(5))).backward()
        assert np.array_equal(a.grad, [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_log(self):
        a = Tensor(self.rng.uniform(0.5, 3.0, (4, 4)), requires_grad=True)
        check_gradients(lambda: ad.log(a), [a])

    def test_pow_const(self):
        a = Tensor(self.rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        check_gradients(lambda: ad.pow_const(a, -0.5), [a])

    def test_clamp_min(self):
        a = Tensor(self.rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        check_gradients(lambda: ad.clamp_min(a, 1e-3), [a])

    def test_sum_axis(self):
        a = tracked(self.rng, 3, 4, 5)
        check_gradients(lambda: ad.tsum(a, axis=(0, 2)), [a])

    def test_mean_keepdims(self):
        a = tracked(self.rng, 3, 4, 5)
        check_gradients(lambda: ad.tmean(a, axis=(0, 2), keepdims=True), [a])

    def test_reshape(self):
        a = tracked(self.rng, 2, 6)
        check_gradients(lambda: ad.reshape(a, (3, 4)), [a])

    def test_concat(self):
        a = tracked(self.rng, 2, 3)
        b = tracked(self.rng, 2, 5)
        check_gradients(lambda: ad.concat([a, b], axis=1), [a, b])

    def test_softmax(self):
        a = tracked(self.rng, 4, 5)
        check_gradients(lambda: ad.softmax(a, axis=1), [a])

    def test_softmax_with_temperature(self):
        a = tracked(self.rng, 3, 4)
        check_gradients(lambda: ad.softmax(a, axis=1, temperature=7.0), [a])

    def test_backward_requires_scalar(self):
        a = tracked(self.rng, 2, 2)
        with pytest.raises(ValueError, match="scalar"):
            (a * a).backward()

    def test_untracked_tensors_untouched(self):
        a = tracked(self.rng, 3)
        c = Tensor(np.ones(3))
        out = ad.tsum(a * c)
        out.backward()
        assert c.grad is None
        assert a.grad is not None


class TestLayerGradients:
    """Every layer kind against central differences (20 random instances each)."""

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_conv1d(self, padding):
        rng = np.random.default_rng(10)
        for _ in range(20):
            b, cin, cout = (int(rng.integers(1, 4)) for _ in range(3))
            k = int(rng.integers(1, 5))
            length = int(rng.integers(k, k + 6))
            x = tracked(rng, b, cin, length)
            w = tracked(rng, cout, cin, k)
            bias = tracked(rng, cout)
            check_gradients(lambda: ad.conv1d(x, w, bias, padding), [x, w, bias])

    def test_maxpool1d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = tracked(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                        int(rng.integers(2, 12)))
            check_gradients(lambda: ad.maxpool1d(x, 2), [x])

    def test_globalavgpool(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = tracked(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                        int(rng.integers(1, 9)))
            check_gradients(lambda: ad.tmean(x, axis=2), [x])

    def test_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            b, fin, fout = (int(rng.integers(1, 6)) for _ in range(3))
            x = tracked(rng, b, fin)
            w = tracked(rng, fin, fout)
            bias = tracked(rng, fout)
            check_gradients(lambda: ad.matmul(x, w) + bias, [x, w, bias])

    def test_batchnorm_train_mode(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            b = int(rng.integers(2, 5))
            c = int(rng.integers(1, 4))
            length = int(rng.integers(2, 7))
            layer = BatchNorm1d(c, dtype=np.float64)
            layer.gamma.data = rng.uniform(0.5, 1.5, c)
            layer.beta.data = rng.normal(size=c)
            x = tracked(rng, b, c, length)

            def make():
                layer.running_mean = np.zeros(c)
                layer.running_var = np.ones(c)
                return layer.forward(x, training=True)

            check_gradients(make, [x, layer.gamma, layer.beta])

    def test_batchnorm_eval_mode(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            b = int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            length = int(rng.integers(1, 7))
            layer = BatchNorm1d(c, dtype=np.float64)
            layer.gamma.data = rng.uniform(0.5, 1.5, c)
            layer.beta.data = rng.normal(size=c)
            layer.running_mean = rng.normal(size=c)
            layer.running_var = rng.uniform(0.5, 2.0, c)
            x = tracked(rng, b, c, length)
            check_gradients(lambda: layer.forward(x, training=False), [x, layer.gamma, layer.beta])

    def test_batchnorm_train_statistics(self):
        rng = np.random.default_rng(15)
        layer = BatchNorm1d(4, dtype=np.float64)
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 16)))
        out = layer.forward(x, training=True)
        per_channel = out.data.transpose(1, 0, 2).reshape(4, -1)
        assert np.abs(per_channel.mean(axis=1)).max() < 1e-6
        assert np.abs(per_channel.var(axis=1) - 1.0).max() < 1e-4

    def test_batchnorm_eval_uses_running_stats(self):
        layer = BatchNorm1d(2, dtype=np.float64)
        layer.running_mean = np.array([1.0, -1.0])
        layer.running_var = np.array([4.0, 0.25])
        x = Tensor(np.ones((1, 2, 3)))
        out = layer.forward(x, training=False)
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-3)
        assert out.data[0, 1] == pytest.approx(4.0, abs=1e-2)


def composite_batchnorm_inference(layer, x):
    """Inference-mode BatchNorm1d as the ad primitives it was built from."""
    mu = Tensor(layer.running_mean.reshape(1, -1, 1))
    var = Tensor(layer.running_var.reshape(1, -1, 1))
    x_hat = (x - mu) * ad.pow_const(var + layer.eps, -0.5)
    gamma = ad.reshape(layer.gamma, (1, -1, 1))
    beta = ad.reshape(layer.beta, (1, -1, 1))
    return gamma * x_hat + beta


def composite_batchnorm_training(layer, x):
    """Training-mode BatchNorm1d as the ad composite it was built from, with
    its running-statistics update."""
    mu = ad.tmean(x, axis=(0, 2), keepdims=True)
    centered = x - mu
    var = ad.tmean(centered * centered, axis=(0, 2), keepdims=True)
    m = layer.momentum
    layer.running_mean = (m * layer.running_mean
                          + (1 - m) * mu.data.reshape(-1)).astype(layer.running_mean.dtype)
    layer.running_var = (m * layer.running_var
                         + (1 - m) * var.data.reshape(-1)).astype(layer.running_var.dtype)
    x_hat = centered * ad.pow_const(var + layer.eps, -0.5)
    gamma = ad.reshape(layer.gamma, (1, -1, 1))
    beta = ad.reshape(layer.beta, (1, -1, 1))
    return gamma * x_hat + beta


def einsum_conv1d_input_gradient(x, w, g, padding):
    """conv1d's input gradient as an einsum and a scatter over [B, Cin, Lp]."""
    _, _, length = x.shape
    k_size = w.shape[2]
    left = (k_size - 1) // 2 if padding == "same" else 0
    right = k_size - 1 - left if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (0, 0), (left, right)))
    l_out = xp.shape[2] - k_size + 1
    d_windows = np.einsum("bol,ock->bclk", g, w, optimize=True)
    gxp = np.zeros_like(xp)
    for k in range(k_size):
        gxp[:, :, k : k + l_out] += d_windows[:, :, :, k]
    return gxp[:, :, left : left + length]


class TestFusedKernelParity:
    """The one-pass kernels equal, bit for bit, the formulas they replaced."""

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu(self, dtype):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(3, 4, 9)).astype(dtype)
        a[0, 0, :3] = [0.0, -0.0, 0.0]
        g = rng.normal(size=a.shape).astype(dtype)
        t = Tensor(a.copy(), requires_grad=True)
        out = ad.relu(t)
        out._backward(g)
        old = np.where(a > 0, a, 0)
        assert np.array_equal(out.data, old) and out.data.dtype == old.dtype
        assert np.array_equal(np.signbit(out.data), np.signbit(old))
        assert np.array_equal(t.grad, g * (a > 0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("b, c, length", [(5, 3, 7), (1, 4, 6), (6, 1, 5)])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_batchnorm_inference(self, dtype, b, c, length, frozen):
        rng = np.random.default_rng(31)
        layer = BatchNorm1d(c, dtype=dtype)
        layer.gamma.data = rng.uniform(0.5, 1.5, c).astype(dtype)
        layer.beta.data = rng.normal(size=c).astype(dtype)
        layer.running_mean = rng.normal(size=c).astype(dtype)
        layer.running_var = rng.uniform(0.1, 3.0, c).astype(dtype)
        layer.gamma.requires_grad = layer.beta.requires_grad = not frozen
        x_data = rng.normal(size=(b, c, length)).astype(dtype)
        proj = Tensor(rng.normal(size=(b, c, length)).astype(dtype))
        grads = []
        for build in (lambda x: layer.forward(x, training=False),
                      lambda x: composite_batchnorm_inference(layer, x)):
            layer.gamma.grad = layer.beta.grad = None
            x = Tensor(x_data.copy(), requires_grad=True)
            out = build(x)
            ad.tsum(out * proj).backward()
            grads.append((out.data, x.grad, layer.gamma.grad, layer.beta.grad))
        for new, old in zip(*grads):
            if old is None:
                assert new is None
            else:
                assert new.dtype == old.dtype and np.array_equal(new, old)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("b, c, length",
                             [(5, 3, 7), (1, 4, 1), (1, 2, 9), (6, 1, 1), (16, 256, 17)])
    @pytest.mark.parametrize("from_conv", [False, True])
    def test_batchnorm_training(self, dtype, b, c, length, from_conv):
        """The batch-statistics node and the composite give the same bits and
        the same running statistics, and hand x a gradient of the same memory
        layout, which conv1d's bias gradient sums in. As in the FCN, x may be
        a conv1d output, and the gradient reaches the layer through a conv1d,
        so both have conv1d's [C, B, L] memory order. The widest shape is
        above the 256 KiB at which numpy reuses a temporary operand as the
        output of an addition, in the operand's layout."""
        rng = np.random.default_rng(34)
        first, head = (Conv1d(cin, cout, 3, rng=rng, dtype=dtype) for cin, cout in ((2, c), (c, 2)))
        if from_conv:
            x_data = first.forward(Tensor(rng.normal(size=(b, 2, length)).astype(dtype)),
                                   training=True).data
        else:
            x_data = rng.normal(1.0, 2.0, size=(b, c, length)).astype(dtype)
        layer = BatchNorm1d(c, dtype=dtype)
        layer.gamma.data = rng.uniform(0.5, 1.5, c).astype(dtype)
        layer.beta.data = rng.normal(size=c).astype(dtype)
        stats = (rng.normal(size=c).astype(dtype), rng.uniform(0.1, 3.0, c).astype(dtype))
        proj = Tensor(rng.normal(size=(b, 2, length)).astype(dtype))
        results = []
        for build in (lambda x: layer.forward(x, training=True),
                      lambda x: composite_batchnorm_training(layer, x)):
            layer.gamma.grad = layer.beta.grad = None
            layer.running_mean, layer.running_var = (s.copy() for s in stats)
            x = Tensor(x_data.copy(order="K"), requires_grad=True)
            out = build(x)
            ad.tsum(head.forward(out, training=True) * proj).backward()
            results.append((out.data, layer.running_mean, layer.running_var, x.grad,
                            layer.gamma.grad, layer.beta.grad))
        for new, old in zip(*results):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        assert results[0][3].strides == results[1][3].strides

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("b, cin, cout, k, length",
                             [(4, 3, 5, 3, 11), (3, 2, 6, 4, 9), (1, 3, 4, 5, 12), (5, 1, 8, 8, 24)])
    def test_conv1d(self, dtype, padding, b, cin, cout, k, length):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(b, cin, length)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(cout, cin, k)).astype(dtype), requires_grad=True)
        bias = Tensor(rng.normal(size=cout).astype(dtype), requires_grad=True)
        out = ad.conv1d(x, w, bias, padding)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.pad(x.data, ((0, 0), (0, 0), ((k - 1) // 2, k // 2))) if padding == "same"
            else x.data, k, axis=2)
        old = np.einsum("bclk,ock->bol", windows, w.data, optimize=True) + bias.data[None, :, None]
        assert np.array_equal(out.data, old)
        g = rng.normal(size=out.shape).astype(dtype)
        out._backward(g)
        old_dx = einsum_conv1d_input_gradient(x.data, w.data, g, padding)
        assert x.grad.dtype == old_dx.dtype and np.array_equal(x.grad, old_dx)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pool_size, length", [(2, 12), (2, 11), (3, 12), (3, 13), (1, 5)])
    def test_maxpool1d(self, dtype, pool_size, length):
        """Values and gradient routing are argmax's: a tie, -0.0 against 0.0
        included, goes to the first position, and so does the first NaN."""
        rng = np.random.default_rng(33)
        pool = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf]),
                          size=(40, 3, length)).astype(dtype)
        pool[0, 0, :4] = [-0.0, 0.0, 0.0, -0.0]
        pool[0, 1, :4] = [1.0, np.nan, np.nan, 1.0]
        a = np.concatenate([pool, rng.normal(size=(6, 3, length)).astype(dtype)])
        x = Tensor(a.copy(), requires_grad=True)
        out = ad.maxpool1d(x, pool_size)
        b, c, l_out = a.shape[0], a.shape[1], length // pool_size
        xc = a[:, :, : l_out * pool_size].reshape(b, c, l_out, pool_size)
        idx = xc.argmax(axis=3)[..., None]
        old = np.take_along_axis(xc, idx, axis=3)[..., 0]
        assert out.data.dtype == old.dtype
        assert np.array_equal(out.data, old, equal_nan=True)
        assert np.array_equal(np.signbit(out.data), np.signbit(old))
        g = rng.normal(size=out.shape).astype(dtype)
        g[0, 0, 0] = -0.0
        out._backward(g)
        gxc = np.zeros_like(xc)
        np.put_along_axis(gxc, idx, g[..., None], axis=3)
        old_dx = np.zeros_like(a)
        old_dx[:, :, : l_out * pool_size] = gxc.reshape(b, c, l_out * pool_size)
        assert x.grad.dtype == old_dx.dtype and np.array_equal(x.grad, old_dx)
        assert np.array_equal(np.signbit(x.grad), np.signbit(old_dx))


class TestConvBlocks:
    """conv1d's GEMMs run over blocks of rows and of channels whose size its
    byte budget sets; no budget changes a bit of its output or gradients."""

    @staticmethod
    def conv_results(x_data, w_data, b_data, g, padding):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x_data, w_data, b_data))
        out = ad.conv1d(x, w, b, padding)
        out._backward(g)
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("b, cin, cout, k, length", [
        (150, 32, 64, 5, 48), (151, 50, 48, 3, 37), (101, 40, 48, 4, 40), (400, 1, 64, 8, 64),
        (67, 128, 256, 5, 24)])
    @pytest.mark.parametrize("g_order", ["bol", "obl"])
    def test_results_unchanged_across_block_budgets(self, monkeypatch, dtype, padding, b, cin,
                                                    cout, k, length, g_order):
        """A 1-byte budget makes the narrowest blocks the floors allow, and
        B is no multiple of their rows; the gradient reaches the layer in the
        [B, O, L] memory order or in conv1d's own [O, B, L] one. The last
        shape's valid output has 67 * 20 columns, 12 past a whole column tile,
        which OpenBLAS's dgemm rounds otherwise in a narrow block."""
        rng = np.random.default_rng(35)
        x_data = rng.normal(size=(b, cin, length)).astype(dtype)
        w_data = rng.normal(size=(cout, cin, k)).astype(dtype)
        b_data = rng.normal(size=cout).astype(dtype)
        l_out = length if padding == "same" else length - k + 1
        g = rng.normal(size=(b, cout, l_out)).astype(dtype)
        if g_order == "obl":
            g = np.ascontiguousarray(g.transpose(1, 0, 2)).transpose(1, 0, 2)
        blocks = ad._blocks
        counts = []  # blocks per call: rows (forward and input gradient), then channels
        monkeypatch.setattr(ad, "_blocks", lambda *args: counts.append(len(blocks(*args)))
                            or blocks(*args))
        default = self.conv_results(x_data, w_data, b_data, g, padding)
        for budget in (1, 10**12):
            counts.clear()
            monkeypatch.setattr(ad, "_BLOCK_BYTES", budget)
            results = self.conv_results(x_data, w_data, b_data, g, padding)
            for new, old in zip(results, default):
                assert new.dtype == old.dtype and new.strides == old.strides
                assert np.array_equal(new, old)
            if budget == 1:
                assert counts[0] > 1 and (counts[1] > 1 or cin == 1), counts
            else:
                assert counts == [1, 1]
        assert default[0].strides[:2] == (l_out * default[0].itemsize,
                                          b * l_out * default[0].itemsize)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_gemms_are_not_split(self, monkeypatch, dtype):
        """A weight gradient of 1.2 * 10**6 multiply-adds stays one GEMM at a
        1-byte budget: split into two channel blocks below 10**6 each,
        OpenBLAS would sum its elements in another order."""
        rng = np.random.default_rng(36)
        x_data = rng.normal(size=(25, 32, 24)).astype(dtype)
        w_data = rng.normal(size=(16, 32, 4)).astype(dtype)
        b_data = rng.normal(size=16).astype(dtype)
        g = rng.normal(size=(25, 16, 24)).astype(dtype)
        default = self.conv_results(x_data, w_data, b_data, g, "same")
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)
        for new, old in zip(self.conv_results(x_data, w_data, b_data, g, "same"), default):
            assert np.array_equal(new, old)


class TestLosses:
    def test_cross_entropy_fixed_value(self):
        loss = cross_entropy(np.array([1.0, 0.0]), Tensor(np.array([0.9, 0.1])))
        assert float(loss.data) == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_cross_entropy_self_is_entropy_and_minimal(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            self_ce = float(cross_entropy(p, Tensor(p)).data)
            entropy = -(p * np.log(p)).sum()
            assert self_ce == pytest.approx(entropy, rel=1e-9)
            q = rng.dirichlet(np.ones(4))
            assert float(cross_entropy(p, Tensor(q)).data) >= self_ce - 1e-12

    def test_cross_entropy_gradient(self):
        # q bounded away from 0: near the log singularity the finite-difference
        # oracle itself loses accuracy at eps=1e-4
        rng = np.random.default_rng(21)
        q = Tensor((rng.dirichlet(np.ones(5), size=3) + 0.25) / 2.25, requires_grad=True)
        p = rng.dirichlet(np.ones(5), size=3)
        check_gradients(lambda: cross_entropy(p, q), [q])

    def test_softmax_cross_entropy_gradient_identity(self):
        # composed softmax + CE against one-hot must give p - y on the logits
        rng = np.random.default_rng(22)
        z = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        y = np.zeros((1, 4))
        y[0, 2] = 1.0
        loss = cross_entropy(y, ad.softmax(z, axis=1))
        loss.backward()
        p = np.exp(z.data) / np.exp(z.data).sum()
        assert np.abs(z.grad - (p - y)).max() < 1e-12

    def test_l2_zero_on_equal(self):
        x = np.arange(6.0).reshape(2, 3)
        assert float(l2(Tensor(x), x).data) == 0.0

    def test_l2_is_mean_squared(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 3.0]])
        assert float(l2(Tensor(a), b).data) == pytest.approx(5.0)

    def test_l2_gradient(self):
        rng = np.random.default_rng(23)
        a = tracked(rng, 3, 4)
        b = tracked(rng, 3, 4)
        check_gradients(lambda: l2(a, b), [a, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            l2(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shapes"):
            cross_entropy(np.zeros((1, 2)), Tensor(np.zeros((1, 3))))


class TestScaledSoftmax:
    def test_symmetric_logits(self):
        for temp in (0.5, 1.0, 10.0):
            s = ad.softmax(Tensor(np.array([[0.0, 0.0]])), axis=1, temperature=temp)
            assert s.data[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_fixed_values(self):
        s1 = ad.softmax(Tensor(np.array([[2.0, 0.0]])), axis=1, temperature=1.0)
        assert s1.data[0] == pytest.approx([0.8807970779778823, 0.11920292202211755], abs=1e-12)
        s10 = ad.softmax(Tensor(np.array([[2.0, 0.0]])), axis=1, temperature=10.0)
        assert s10.data[0] == pytest.approx([0.549833997312478, 0.450166002687522], abs=1e-12)

    def test_invariances(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            z = rng.normal(size=(1, int(rng.integers(2, 6))))
            temp = float(rng.uniform(0.2, 20.0))
            base = ad.softmax(Tensor(z), axis=1, temperature=temp).data
            shifted = ad.softmax(Tensor(z + rng.normal()), axis=1, temperature=temp).data
            assert np.abs(base - shifted).max() < 1e-9
            assert np.argmax(base) == np.argmax(z)
            hotter = ad.softmax(Tensor(z), axis=1, temperature=temp * 2).data
            if np.ptp(z) > 1e-12:
                assert hotter.max() <= base.max() + 1e-12
            assert abs(base.sum() - 1.0) < 1e-9

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError, match="temperature"):
            ad.softmax(Tensor(np.zeros((1, 2))), temperature=0.0)


class TestInputGradient:
    def _tiny_net(self, dtype=np.float64):
        rng = np.random.default_rng(40)
        dense = Dense(6, 3, rng=rng, dtype=dtype)
        net = Network([Flatten(), dense], rng_seed=40, architecture=None)
        return net

    def test_constant_logits_give_zero_gradient(self):
        net = self._tiny_net()
        net.layers[1].w.data[:] = 0.0
        g, _, _ = input_gradient_with_probs(net, np.random.default_rng(0).normal(size=(2, 1, 6)), 1)
        assert np.abs(g).max() == 0.0

    def test_matches_finite_differences(self):
        net = self._tiny_net()
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 1, 6))
        g, _, _ = input_gradient_with_probs(net, x, 2)

        def f_t(xv):
            _, probs = predict(net, xv)
            return probs[:, 2].sum()

        num = np.zeros_like(x)
        flat, nflat = x.reshape(-1), num.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + EPS
            hi = f_t(x)
            flat[i] = orig - EPS
            lo = f_t(x)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * EPS)
        assert max_rel_error(g, num) < TOL

    def test_linear_map_input_gradient_is_weight_row(self):
        # y = xW with zero bias: the gradient of y_k w.r.t. x is column k of W
        rng = np.random.default_rng(43)
        dense = Dense(4, 3, rng=rng, dtype=np.float64)
        net = Network([dense], rng_seed=43)
        x = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        y = net.forward(x)
        ad.tsum(y * Tensor(np.array([0.0, 1.0, 0.0]))).backward()
        assert np.abs(x.grad[0] - dense.w.data[:, 1]).max() < 1e-12

    def test_sum_over_classes_is_zero(self):
        net = self._tiny_net()
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 1, 6))
        total = sum(input_gradient_with_probs(net, x, t)[0] for t in range(3))
        assert np.abs(total).max() < 1e-7

    def test_target_out_of_range(self):
        net = self._tiny_net()
        with pytest.raises(ValueError, match="out of range"):
            input_gradient_with_probs(net, np.zeros((1, 1, 6)), 3)

    @pytest.mark.parametrize("architecture", ["fcn", "lenet5"])
    def test_frozen_parameters_get_no_gradient(self, architecture):
        """Backward skips every partial of a frozen parameter and changes no input gradient."""
        from tsadv.models import ArchitectureConfig, build_fcn, build_lenet5_1d

        build = build_fcn if architecture == "fcn" else build_lenet5_1d
        config = ArchitectureConfig(input_length=20, num_classes=3, architecture=architecture,
                                    seed=44)
        frozen, tracked_net = build(config), build(config)
        frozen.set_requires_grad(False)
        x = np.random.default_rng(44).normal(size=(5, 1, 20)).astype(np.float32)
        g_frozen, _, _ = input_gradient_with_probs(frozen, x, 1)
        g_tracked, _, _ = input_gradient_with_probs(tracked_net, x, 1)
        assert all(p.grad is None for p in frozen.parameters())
        assert all(p.grad is not None for p in tracked_net.parameters())
        assert np.array_equal(g_frozen, g_tracked)


def closure_arrays(fn):
    """Every ndarray a closure holds, with the arrays it views."""
    found = []
    for cell in fn.__closure__ or ():
        arr = cell.cell_contents
        while hasattr(arr, "__array_interface__"):  # a stride-trick view's base is not an ndarray
            if isinstance(arr, np.ndarray):
                found.append(arr)
            arr = arr.base
    return found


class TestGraphRelease:
    """backward() releases each interior node once its own backward has run."""

    def _graph(self):
        rng = np.random.default_rng(60)
        a, b = tracked(rng, 3, 4), tracked(rng, 4, 2)
        z = ad.matmul(a, b)
        h = ad.relu(z)
        return a, b, z, h, ad.tsum(h * h)

    def test_interior_node_is_freed_and_leaves_keep_their_grads(self):
        a, b, z, h, loss = self._graph()
        ref = weakref.ref(h.data)  # the node's output, which only the node holds
        del h
        loss.backward()
        assert ref() is None
        gz = 2 * np.maximum(z.data, 0)  # d sum(relu(z)^2) / dz
        np.testing.assert_allclose(a.grad, gz @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ gz, rtol=1e-12)
        assert z.data.shape == (3, 2) and z.grad is None and z._parents is None
        assert float(loss.data) == float((np.maximum(z.data, 0) ** 2).sum())

    def test_second_backward_raises_and_leaves_grads_alone(self):
        a, b, z, h, loss = self._graph()
        loss.backward()
        grads = [a.grad.copy(), b.grad.copy()]
        with pytest.raises(ValueError, match="released"):
            loss.backward()
        with pytest.raises(ValueError, match="released"):
            ad.tsum(z * 2.0).backward()
        assert np.array_equal(a.grad, grads[0]) and np.array_equal(b.grad, grads[1])

    @pytest.mark.parametrize("frozen", [True, False])
    def test_frozen_weight_conv1d_backward_holds_no_padded_input(self, frozen):
        """No conv1d keeps a padded input: a trainable one builds im2col blocks from x
        again in backward."""
        rng = np.random.default_rng(61)
        x = Tensor(rng.normal(size=(4, 3, 10)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=not frozen)
        bias = Tensor(rng.normal(size=5), requires_grad=not frozen)
        out = ad.conv1d(x, w, bias)
        assert not [arr for arr in closure_arrays(out._backward) if arr.shape == (4, 3, 13)]
        g = rng.normal(size=out.shape)
        out._backward(g)
        expected = einsum_conv1d_input_gradient(x.data, w.data, g, "same")
        assert np.array_equal(x.grad, expected)
        if not frozen:
            windows = np.lib.stride_tricks.sliding_window_view(
                np.pad(x.data, ((0, 0), (0, 0), (1, 2))), 4, axis=2)
            assert np.array_equal(w.grad, np.einsum("bol,bclk->ock", g, windows, optimize=True))


class TestTrainStep:
    """Training steps through nn.fit, the one optimizer loop."""

    def _problem(self):
        rng = np.random.default_rng(50)
        x = np.vstack([rng.normal(-2.0, 0.5, size=(40, 2)), rng.normal(2.0, 0.5, size=(40, 2))])
        y = np.zeros((80, 2))
        y[:40, 0] = 1.0
        y[40:, 1] = 1.0
        net = Network([Dense(2, 2, rng=rng, dtype=np.float64)], rng_seed=50)
        return net, x, y

    @staticmethod
    def _fit(net, x, y, epochs, lr, batch_size=80, end_epoch=None, seen=None):
        def batch_loss(idx):
            if seen is not None:
                seen.append(idx.copy())
            out = net.forward(Tensor(x[idx]), training=True)
            return cross_entropy(y[idx], ad.softmax(out, axis=1))

        config = SimpleNamespace(epochs=epochs, batch_size=batch_size, lr=lr, seed=3)
        return fit(net, len(x), batch_loss, config, end_epoch)

    def test_converges_on_separable_data(self):
        net, x, y = self._problem()
        self._fit(net, x, y, epochs=200, lr=1e-2)
        _, probs = predict(net, x)
        assert (np.argmax(probs, axis=1) == np.argmax(y, axis=1)).mean() == 1.0
        assert len(net.training_log) == 200
        assert net.training_log[-1]["loss"] < net.training_log[0]["loss"]

    def test_zero_learning_rate_freezes_parameters(self):
        net, x, y = self._problem()
        before = [p.data.copy() for p in net.parameters()]
        self._fit(net, x, y, epochs=5, lr=0.0)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_same_seed_identical_parameters(self):
        runs = []
        for _ in range(2):
            net, x, y = self._problem()
            self._fit(net, x, y, epochs=20, lr=1e-2, batch_size=16)
            runs.append((net.state_hash(), net.training_log))
        assert runs[0] == runs[1]

    def test_step_graph_is_freed_before_the_next_step(self):
        net, x, y = self._problem()
        outputs = []

        def batch_loss(idx):
            assert all(ref() is None for ref in outputs)
            out = net.forward(Tensor(x[idx]), training=True)
            outputs.append(weakref.ref(out.data))
            return cross_entropy(y[idx], ad.softmax(out, axis=1))

        config = SimpleNamespace(epochs=2, batch_size=16, lr=1e-2, seed=3)
        fit(net, len(x), batch_loss, config)
        assert len(outputs) == 10

    def test_divergence_aborts(self):
        net, x, y = self._problem()
        x[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            self._fit(net, x, y, epochs=1, lr=1e-2)

    def test_batches_follow_one_seeded_permutation_per_epoch(self):
        """The trainers' RNG contract: default_rng(seed), one permutation(n)
        per epoch, batches of min(batch_size, n) rows in order."""
        net, x, y = self._problem()
        seen = []
        self._fit(net, x, y, epochs=3, lr=1e-2, batch_size=32, seen=seen)
        rng = np.random.default_rng(3)
        expected = []
        for _ in range(3):
            perm = rng.permutation(80)
            expected += [perm[:32], perm[32:64], perm[64:]]
        assert len(seen) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
        seen.clear()
        self._fit(net, x, y, epochs=1, lr=1e-2, batch_size=500, seen=seen)
        assert len(seen) == 1 and sorted(seen[0]) == list(range(80))

    def test_end_epoch_stop_logs_that_epoch(self):
        net, x, y = self._problem()
        entries = []

        def end_epoch(entry):
            entry["tag"] = entry["epoch"] * 10
            entries.append(entry)
            return entry["epoch"] == 2

        self._fit(net, x, y, epochs=10, lr=1e-2, end_epoch=end_epoch)
        assert [e["epoch"] for e in net.training_log] == [0, 1, 2]
        assert net.training_log == entries
        assert net.training_log[-1]["tag"] == 20
        assert set(net.training_log[0]) == {"epoch", "loss", "tag"}


class TestForwardPurityAndSerialization:
    def test_forward_is_pure_in_eval_mode(self):
        rng = np.random.default_rng(60)
        net = Network([Conv1d(1, 3, 3, rng=rng, dtype=np.float64), BatchNorm1d(3, dtype=np.float64),
                       ReLU(), GlobalAvgPool1d(), Dense(3, 2, rng=rng, dtype=np.float64)],
                      rng_seed=60)
        x = rng.normal(size=(2, 1, 10))
        a, pa = predict(net, x)
        b, pb = predict(net, x)
        assert np.array_equal(a, b) and np.array_equal(pa, pb)

    def test_save_load_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        net = Network([Conv1d(1, 4, 3, rng=rng), BatchNorm1d(4), ReLU(), MaxPool1d(2),
                       Flatten(), Dense(16, 2, rng=rng)], rng_seed=61, architecture="fcn")
        net.layers[1].running_mean = np.array([0.5, -0.5, 1.0, 0.0], dtype=np.float32)
        net.training_log.append({"epoch": 0, "loss": 1.25})
        path = tmp_path / "model.npz"
        save_model(net, path)
        back = load_model(path)
        assert back.architecture == "fcn"
        assert back.rng_seed == 61
        assert back.training_log == net.training_log
        assert back.state_hash() == net.state_hash()
        x = np.random.default_rng(0).normal(size=(3, 1, 8)).astype(np.float32)
        assert np.array_equal(predict(net, x)[0], predict(back, x)[0])

    def test_shape_error_names_layer(self):
        net = Network([Flatten(), Dense(4, 2, dtype=np.float64)], rng_seed=0)
        with pytest.raises(ValueError, match=r"layer 1 \(dense\)"):
            net.forward(Tensor(np.zeros((1, 1, 5))))
