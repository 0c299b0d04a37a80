import tracemalloc

import numpy as np
import pytest

from conftest import max_rel_err, numerical_grad
from recnet.errors import ConfigError, ShapeError
from recnet import tensor
from recnet.rec import tb_segment_block
from recnet.tensor import (
    _STACK_MAX_K,
    BnState,
    ConvKernel,
    Param,
    avgpool_global,
    avgpool_global_backward,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    linear_backward,
    linear_forward,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
)


class TestContainers:
    def test_grad_shape_must_match(self):
        with pytest.raises(ShapeError):
            Param(np.zeros((1, 1, 2, 2))).accumulate(np.zeros((1, 1, 2, 3)))

    def test_grad_accumulation_is_additive(self):
        t = Param(np.zeros((1, 1, 2, 2)))
        t.accumulate(np.ones((1, 1, 2, 2)))
        t.accumulate(np.ones((1, 1, 2, 2)))
        assert np.all(t.grad == 2)

    def test_conv_kernel_props(self):
        k = ConvKernel(np.zeros((4, 3, 3, 3)))
        assert (k.c_out, k.c_in, *k.shape[2:]) == (4, 3, 3, 3)

    def test_bn_state_validation(self):
        with pytest.raises(ConfigError):
            BnState(0)


class TestConv2d:
    @pytest.mark.parametrize("k", [1, 3])
    def test_channel_parts_read_as_their_concatenation(self, rng, k):
        a = rng.standard_normal((3, 2, 6, 5))
        b = rng.standard_normal((3, 5, 6, 5))[:, 1:]  # a strided view
        w = rng.standard_normal((5, 6, k, k))
        bias = rng.standard_normal(5)
        got = conv2d_forward((a, b), w, bias)
        want = conv2d_forward(np.concatenate([a, b], axis=1), w, bias)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_add_to_accumulates_in_place(self, rng, k):
        x = rng.standard_normal((3, 4, 6, 5))
        w = rng.standard_normal((2, 4, k, k))
        bias = rng.standard_normal(2)
        acc = rng.standard_normal((3, 2, 6, 5))
        want = acc + conv2d_forward(x, w, bias)
        got = conv2d_forward(x, w, bias, add_to=acc)
        assert got is acc
        assert np.max(np.abs(got - want)) < 1e-12
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, add_to=acc[:, :1])
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, add_to=acc.astype(np.float32))

    def test_channel_parts_validated(self, rng):
        a = np.zeros((2, 2, 4, 4))
        w = np.zeros((3, 5, 3, 3))
        with pytest.raises(ShapeError):
            conv2d_forward((a, np.zeros((2, 3, 4, 5))), w)
        with pytest.raises(ShapeError):
            conv2d_forward((a, np.zeros((1, 3, 4, 4))), w)
        with pytest.raises(ShapeError):
            conv2d_forward((a, np.zeros((2, 2, 4, 4))), w)

    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.array([[[[1.0]]]], dtype=np.float32)
        assert np.array_equal(conv2d_forward(x, w), x)

    def test_one_by_one_kernel_allocates_no_tap_temporary(self, rng):
        """A 1x1 conv in one batch chunk allocates its output and the one
        GEMM result copied into it, and no buffer for taps it does not
        have."""
        x = rng.standard_normal((4, 16, 8, 8))
        w = rng.standard_normal((24, 16, 1, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = conv2d_forward(x, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * y.nbytes, peak / y.nbytes

    def test_all_ones_window_sums(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = conv2d_forward(x, w)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 0] == 4.0
        assert y[0, 0, 0, 2] == 4.0

    def test_stem_shape(self):
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        w = np.zeros((80, 3, 3, 3), dtype=np.float32)
        assert conv2d_forward(x, w).shape == (2, 80, 32, 32)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_spatial_dims(self, k):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 1, 0, 4)), np.zeros((1, 1, k, k)))
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((1, 1, 4, 0)), np.zeros((1, 1, k, k)),
                            np.zeros((1, 1, 4, 0)))

    def test_even_kernel_same_padding(self):
        for kernel in ((2, 2), (2, 3), (3, 2)):
            with pytest.raises(ConfigError):
                conv2d_forward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1) + kernel))

    def test_linearity(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        y = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        a, b = 1.7, -0.4
        lhs = conv2d_forward(a * x + b * y, w)
        rhs = a * conv2d_forward(x, w) + b * conv2d_forward(y, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("size", [4, 7, 12])
    def test_same_padding_preserves_dims(self, k, size):
        x = np.zeros((1, 2, size, size), dtype=np.float32)
        w = np.zeros((3, 2, k, k), dtype=np.float32)
        assert conv2d_forward(x, w).shape == (1, 3, size, size)


class TestConv2dBackward:
    def test_identity_kernel_passthrough(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = np.array([[[[1.0]]]])
        g = rng.standard_normal((1, 1, 4, 4))
        gx, _ = conv2d_backward(x, w, g)
        assert np.allclose(gx, g)

    def test_scalar_product_rule(self):
        x = np.full((1, 1, 1, 1), 2.0)
        w = np.full((1, 1, 1, 1), 3.0)
        g = np.ones((1, 1, 1, 1))
        gx, gw = conv2d_backward(x, w, g)
        assert gx.item() == 3.0
        assert gw.item() == 2.0

    def test_finite_differences(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        g = rng.standard_normal((1, 3, 5, 5))

        def loss():
            return float((conv2d_forward(x, w, bias) * g).sum())

        gx, gw = conv2d_backward(x, w, g)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        assert max_rel_err(gw, numerical_grad(loss, w)) < 1e-5
        # conv2d_backward leaves the bias gradient to its caller.
        assert max_rel_err(g.sum(axis=(0, 2, 3)), numerical_grad(loss, bias)) < 1e-5

    def test_grad_shape_check(self):
        """grad_out must have the input's H x W: an unpadded conv's output
        shape is rejected."""
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)),
                            np.zeros((1, 1, 2, 2)))

    @pytest.mark.parametrize("kernel", [(2, 2), (2, 3), (3, 2)])
    def test_even_kernel_rejected(self, kernel):
        """grad_out has the unpadded conv's output shape, so only the
        kernel's parity can reject the call."""
        kh, kw = kernel
        with pytest.raises(ConfigError):
            conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, kh, kw)),
                            np.zeros((1, 1, 5 - kh, 5 - kw)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)),
                            np.zeros((1, 1, 4, 4)))

    def test_input_rank(self):
        with pytest.raises(ShapeError):
            conv2d_backward(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)),
                            np.zeros((1, 1, 4, 4)))

    def test_finite_differences_per_tap_gemm(self, rng):
        """C_in*k^2 and C_out*k^2 above the stacking cut-off, so forward,
        grad_w and grad_x all take the per-tap GEMM path."""
        c = _STACK_MAX_K // 9 + 1
        x = rng.standard_normal((1, c, 4, 3))
        w = rng.standard_normal((c, c, 3, 3))
        g = rng.standard_normal((1, c, 4, 3))

        def loss():
            return float((conv2d_forward(x, w) * g).sum())

        gx, gw = conv2d_backward(x, w, g)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        assert max_rel_err(gw, numerical_grad(loss, w)) < 1e-5


def reference_conv(x, w, ph, pw):
    """Float64 cross-correlation as an explicit loop over kernel taps."""
    x, w = np.asarray(x, np.float64), np.asarray(w, np.float64)
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    y = 0.0
    for u in range(kh):
        for v in range(kw):
            y = y + np.einsum("oc,nchw->nohw", w[:, :, u, v], xp[:, :, u:u + ho, v:v + wo])
    return y


def reference_conv_backward(x, w, g, ph, pw):
    """Float64 (grad_x, grad_w) by scattering each tap's contribution back
    onto the padded input."""
    x, w, g = (np.asarray(a, np.float64) for a in (x, w, g))
    n, c_in, h, wd = x.shape
    _, _, kh, kw = w.shape
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    for u in range(kh):
        for v in range(kw):
            gw[:, :, u, v] = np.einsum("nohw,nchw->oc", g, xp[:, :, u:u + ho, v:v + wo])
            gxp[:, :, u:u + ho, v:v + wo] += np.einsum("nohw,oc->nchw", g, w[:, :, u, v])
    return gxp[:, :, ph:ph + h, pw:pw + wd], gw


def assert_matches_reference(x, w, tol=1e-10):
    ph, pw = (w.shape[2] - 1) // 2, (w.shape[3] - 1) // 2
    y = conv2d_forward(x, w)
    want_y = reference_conv(x, w, ph, pw)
    assert y.shape == want_y.shape
    assert max_rel_err(y, want_y) < tol
    g = np.random.default_rng(7).standard_normal(y.shape).astype(y.dtype)
    got = conv2d_backward(x, w, g)
    assert len(got) == 2
    for name, a, b in zip(("grad_x", "grad_w"), got,
                          reference_conv_backward(x, w, g, ph, pw)):
        assert a.shape == b.shape, name
        assert max_rel_err(a, b) < tol, name


# The non-square kernels pad the two axes by different amounts; (3, 5) and
# (5, 3) pad both axes, unequally.
KERNELS = [(1, 1), (3, 3), (5, 5), (7, 7), (1, 3), (3, 1),
           (1, 5), (5, 1), (3, 5), (5, 3)]


class TestConv2dAgainstReference:
    """The GEMM kernels against an explicit tap loop, in float64."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("above_cutoff", [False, True])
    # The last two images are smaller than most kernels, so most taps read
    # only padding.
    @pytest.mark.parametrize("nhw", [(2, 9, 11), (1, 8, 7), (3, 1, 1), (2, 2, 5)])
    def test_forward_and_backward(self, kernel, above_cutoff, nhw):
        kh, kw = kernel
        # C*kh*kw on either side of the stacking cut-off, for the forward
        # (C_in) and for grad_x (C_out) alike.
        c = _STACK_MAX_K // (kh * kw) + 1 if above_cutoff else 2
        n, h, wd = nhw
        rng = np.random.default_rng(kh * 10 + kw)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c + 1, c, kh, kw))
        assert (c * kh * kw > _STACK_MAX_K) == above_cutoff
        assert_matches_reference(x, w)

    @pytest.mark.parametrize("c", [2, _STACK_MAX_K // 9 + 1])
    def test_channel_slice_input(self, c, rng):
        full = rng.standard_normal((2, 3 * c, 7, 6))
        x = full[:, c:2 * c]
        assert not x.flags.c_contiguous
        assert_matches_reference(x, rng.standard_normal((4, c, 3, 3)))

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 14, 1 << 16])
    @pytest.mark.parametrize("c", [2, _STACK_MAX_K // 9 + 1])
    def test_batch_split_into_chunks(self, chunk_bytes, c, monkeypatch, rng):
        """Small chunk budgets split a batch of 5 into 1-, 2- and 3-sample
        chunks, the last one short."""
        monkeypatch.setattr(tensor, "_CHUNK_BYTES", chunk_bytes)
        assert_matches_reference(rng.standard_normal((5, c, 9, 11)),
                                 rng.standard_normal((c + 1, c, 3, 3)))

    def test_transition_block_slice_kernel(self, rng):
        a = rng.standard_normal((5, 3 * 4, 1, 1))
        w = tb_segment_block(a, 1, 4)
        assert not w.flags.c_contiguous
        assert_matches_reference(rng.standard_normal((2, 4, 6, 7)), w)

    @pytest.mark.parametrize("c", [2, _STACK_MAX_K // 9 + 1])
    def test_sliced_3x3_kernel(self, c, rng):
        w = rng.standard_normal((3, 2 * c, 3, 3))[:, c:]
        assert not w.flags.c_contiguous
        assert_matches_reference(rng.standard_normal((2, c, 5, 6)), w)


def owning_buffer(a):
    while a.base is not None:
        a = a.base
    return a


class TestConv2dOutputContract:
    """Results carry dtype result_type(x, w), are C-contiguous, and own no
    more memory than their own size (no view into a padded work buffer)."""

    @pytest.mark.parametrize("xdt,wdt", [(np.float32, np.float32), (np.float64, np.float64),
                                         (np.float32, np.float64)])
    @pytest.mark.parametrize("k,c", [(1, 3), (3, 2), (3, _STACK_MAX_K // 9 + 1)])
    def test_dtype_and_layout(self, xdt, wdt, k, c, rng):
        x = rng.standard_normal((2, c, 6, 5)).astype(xdt)
        w = rng.standard_normal((3, c, k, k)).astype(wdt)
        y = conv2d_forward(x, w)
        g = np.ones_like(y)
        gx, gw = conv2d_backward(x, w, g)
        want = np.result_type(x, w)
        for a in (y, gx, gw):
            assert a.dtype == want
            assert a.flags.c_contiguous
            assert owning_buffer(a).nbytes == a.nbytes
            assert not np.shares_memory(a, x) and not np.shares_memory(a, w)
        if want == np.float32:
            pad = (k - 1) // 2
            assert max_rel_err(y, reference_conv(x, w, pad, pad)) < 1e-5


class TestBatchNorm:
    def test_training_forward_standardizes(self, rng):
        s = BnState(3, dtype=np.float64)
        x = rng.standard_normal((4, 3, 5, 5)) * 3.0 + 7.0
        y = batchnorm_forward(x, s, stats={})
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-6 * (1 + np.abs(x.mean())))
        assert np.all(np.abs(var - 1) < 1e-4)

    def test_constant_channel_absorbed_by_eps(self):
        s = BnState(2, dtype=np.float64)
        s.gamma.data[:] = 2.0
        s.beta.data[:] = 5.0
        x = np.ones((2, 2, 3, 3)) * np.array([4.0, -1.0])[:, None, None]
        y = batchnorm_forward(x, s, stats={})
        assert np.allclose(y, 5.0)

    def test_inference_neutral_statistics(self):
        s = BnState(2, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 2, 3, 3))
        y = batchnorm_forward(x, s)
        assert np.allclose(y, x / np.sqrt(1 + s.eps))

    def test_single_element_training_is_error(self):
        s = BnState(1)
        with pytest.raises(ConfigError):
            batchnorm_forward(np.ones((1, 1, 1, 1)), s, stats={})

    def test_running_stats_update_rule(self, rng):
        s = BnState(2, dtype=np.float64)
        x = rng.standard_normal((3, 2, 4, 4)) + 2.0
        batchnorm_forward(x, s, stats={})
        expect_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 2, 3))
        expect_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3))
        assert np.allclose(s.running_mean, expect_mean)
        assert np.allclose(s.running_var, expect_var)

    def test_backward_zero_cotangent(self, rng):
        s = BnState(2, dtype=np.float64)
        x = rng.standard_normal((2, 2, 3, 3))
        stats = {}
        batchnorm_forward(x, s, stats=stats)
        gx, gg, gb = batchnorm_backward(x, s, np.zeros_like(x), stats)
        assert not gx.any() and not gg.any() and not gb.any()

    def test_backward_finite_differences(self, rng):
        s = BnState(1, dtype=np.float64)
        s.gamma.data[:] = 1.3
        s.beta.data[:] = -0.2
        x = rng.standard_normal((4, 1, 2, 2))
        g = rng.standard_normal((4, 1, 2, 2))

        def loss():
            return float((batchnorm_forward(x, s, stats={}) * g).sum())

        stats = {}
        batchnorm_forward(x, s, stats=stats)
        gx, gg, gb = batchnorm_backward(x, s, g, stats)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        assert max_rel_err(gg, numerical_grad(loss, s.gamma.data)) < 1e-5
        assert max_rel_err(gb, numerical_grad(loss, s.beta.data)) < 1e-5

    def test_grad_beta_is_sum(self, rng):
        s = BnState(3, dtype=np.float64)
        x = rng.standard_normal((2, 3, 4, 4))
        g = rng.standard_normal((2, 3, 4, 4))
        stats = {}
        batchnorm_forward(x, s, stats=stats)
        _, _, gb = batchnorm_backward(x, s, g, stats)
        assert np.allclose(gb, g.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("channel", [0, 2])
    def test_one_channel_matches_its_slot_in_a_wider_call(self, rng, channel):
        """A channel's batch statistics and gradients do not depend on how
        many channels share its call: in float32 at N = 64, a 1-channel BN
        equals the same channel inside a 4-channel one, bit for bit."""
        x = (rng.standard_normal((64, 4, 3, 3)) * 3.0 + 5.0).astype(np.float32)
        g = rng.standard_normal((64, 4, 3, 3)).astype(np.float32)
        wide = random_bn_state(rng, 4, np.float32)
        narrow = BnState(1)
        sl = slice(channel, channel + 1)
        for name in ("running_mean", "running_var"):
            getattr(narrow, name)[:] = getattr(wide, name)[sl]
        narrow.gamma.data[:], narrow.beta.data[:] = wide.gamma.data[sl], wide.beta.data[sl]

        def run(s, xs, gs):
            stats = {}
            y = batchnorm_forward(xs, s, stats=stats)
            return (y, *batchnorm_backward(xs, s, gs, stats), stats["mean"], stats["var"],
                    s.running_mean, s.running_var)

        for w, n in zip(run(wide, x, g), run(narrow, x[:, sl], g[:, sl]), strict=True):
            assert np.array_equal(w[:, sl] if w.ndim == 4 else w[sl], n)


def reference_batchnorm(x, s, g):
    """The explicit x_hat formulas of the training forward and backward,
    computed in x's dtype: (y, grad_x, grad_gamma, grad_beta, batch mean,
    batch var)."""
    gamma, beta = s.gamma.data.astype(x.dtype), s.beta.data.astype(x.dtype)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + s.eps)
    x_hat = (x - mean[:, None, None]) * inv[:, None, None]
    y = gamma[:, None, None] * x_hat + beta[:, None, None]
    grad_gamma = (g * x_hat).sum(axis=(0, 2, 3))
    g_hat = g * gamma[:, None, None]
    sum_g = g_hat.sum(axis=(0, 2, 3))
    sum_gx = (g_hat * x_hat).sum(axis=(0, 2, 3))
    grad_x = (inv[:, None, None] / m) * (
        m * g_hat - sum_g[:, None, None] - x_hat * sum_gx[:, None, None])
    return y, grad_x, grad_gamma, g.sum(axis=(0, 2, 3)), mean, var


def reference_inference_batchnorm(x, s):
    """The explicit x_hat formula of the inference forward, by the running
    statistics."""
    inv = 1.0 / np.sqrt(s.running_var + s.eps)
    x_hat = (x - s.running_mean[:, None, None]) * inv[:, None, None]
    return s.gamma.data[:, None, None] * x_hat + s.beta.data[:, None, None]


def uncentred_batchnorm_backward(x, s, g):
    """The closed-form backward with sum(g*(x - mean)) expanded to
    sum(g*x) - mean*sum(g): the float32 case below must reject it."""
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + s.eps)
    sum_g = g.sum(axis=(0, 2, 3))
    sum_gxc = (g * x).sum(axis=(0, 2, 3)) - mean * sum_g
    xc = x - mean[:, None, None]
    grad_x = (s.gamma.data * inv)[:, None, None] * (
        g - (sum_g / m)[:, None, None] - xc * (inv * inv * sum_gxc / m)[:, None, None])
    return grad_x, sum_gxc * inv


def random_bn_state(rng, channels, dtype):
    s = BnState(channels, dtype=dtype)
    s.gamma.data[:] = 0.5 + rng.random(channels)
    s.beta.data[:] = rng.standard_normal(channels)
    s.running_mean[:] = rng.standard_normal(channels)
    s.running_var[:] = 0.5 + rng.random(channels)
    return s


def mode_stats(mode):
    """batchnorm_forward's stats argument for the mode: a new dict for
    training, None for inference."""
    return {} if mode == "train" else None


def normwise_err(a, ref):
    return float(np.linalg.norm(a.astype(np.float64) - ref) / np.linalg.norm(ref))


class TestBatchNormAgainstReference:
    """Closed-form batch norm against the explicit x_hat formulas."""

    @pytest.mark.parametrize("shape", [(4, 3, 5, 7), (1, 3, 2, 1)])
    def test_inference_forward(self, shape):
        rng = np.random.default_rng(sum(shape))
        s = random_bn_state(rng, 3, np.float64)
        x = rng.standard_normal(shape) * 2.0 + 3.0
        y = batchnorm_forward(x, s)
        assert max_rel_err(y, reference_inference_batchnorm(x, s)) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3, 5, 7), (1, 3, 2, 1)])
    def test_forward_and_backward(self, shape):
        rng = np.random.default_rng(sum(shape))
        s = random_bn_state(rng, 3, np.float64)
        x = rng.standard_normal(shape) * 2.0 + 3.0
        g = rng.standard_normal(shape)
        want = reference_batchnorm(x, s, g)
        stats = {}
        y = batchnorm_forward(x, s, stats=stats)
        got = batchnorm_backward(x, s, g, stats)
        for name, a, b in zip(("y", "grad_x", "grad_gamma", "grad_beta"), (y, *got), want):
            assert a.shape == b.shape, name
            assert max_rel_err(a, b) < 1e-12, name

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_in_place_output(self, mode, rng):
        s = random_bn_state(rng, 3, np.float32)
        x = (rng.standard_normal((4, 3, 5, 5)) * 2.0 + 3.0).astype(np.float32)
        mean, var = s.running_mean.copy(), s.running_var.copy()
        want = batchnorm_forward(x, s, stats=mode_stats(mode))
        s.running_mean[:], s.running_var[:] = mean, var
        buf = x.copy()
        got = batchnorm_forward(buf, s, out=buf, stats=mode_stats(mode))
        assert got is buf and np.array_equal(got, want)
        relu(got, out=got)
        assert np.array_equal(got, relu(want))

    def test_channel_slice_of_input(self, rng):
        s = random_bn_state(rng, 2, np.float64)
        x = rng.standard_normal((3, 6, 4, 4))[:, 2:4]
        g = rng.standard_normal((3, 6, 4, 4))[:, 1:3]
        assert not x.flags.c_contiguous and not g.flags.c_contiguous
        want = reference_batchnorm(x, s, g)
        stats = {}
        got = (batchnorm_forward(x, s, stats=stats), *batchnorm_backward(x, s, g, stats))
        for a, b in zip(got, want):
            assert max_rel_err(a, b) < 1e-12

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_contract(self, mode, dtype, rng):
        s = random_bn_state(rng, 3, dtype)
        x = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        g = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        stats = mode_stats(mode)
        outs = [batchnorm_forward(x, s, stats=stats)]
        if stats is not None:  # only training has a backward
            outs += batchnorm_backward(x, s, g, stats)
        for a in outs:
            assert a.dtype == dtype
        for a in outs[:2]:
            assert a.flags.c_contiguous
            assert owning_buffer(a).nbytes == a.nbytes
            assert not np.shares_memory(a, x) and not np.shares_memory(a, g)

    def test_float32_far_from_zero_mean(self):
        """At mean/std = 100 in float32, the closed form stays as accurate as
        the explicit formulas, measured normwise against float64 on the same
        float32-rounded inputs. "As accurate" allows a quarter of the
        explicit formulas' own error for a different rounding order; the
        expanded sum(g*x) - mean*sum(g) loses several times that."""
        rng = np.random.default_rng(1)
        x = (rng.standard_normal((64, 8, 32, 32)) + 100.0).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        s = BnState(8, dtype=np.float32)
        s.gamma.data[:] = 0.5 + rng.random(8)
        s64 = BnState(8, dtype=np.float64)
        s64.gamma.data[:] = s.gamma.data
        want_y, want_gx, want_gg = reference_batchnorm(x.astype(np.float64), s64,
                                                       g.astype(np.float64))[:3]
        old_y, old_gx, old_gg = reference_batchnorm(x, s, g)[:3]
        stats = {}
        y = batchnorm_forward(x, s, stats=stats)
        gx, gg, _ = batchnorm_backward(x, s, g, stats)
        assert gx.dtype == gg.dtype == np.float32
        assert normwise_err(y, want_y) <= 1.25 * normwise_err(old_y, want_y)
        bound_gx = 1.25 * normwise_err(old_gx, want_gx)
        bound_gg = 1.25 * normwise_err(old_gg, want_gg)
        assert normwise_err(gx, want_gx) <= bound_gx
        assert normwise_err(gg, want_gg) <= bound_gg
        ugx, ugg = uncentred_batchnorm_backward(x, s, g)
        assert normwise_err(ugx, want_gx) > bound_gx or normwise_err(ugg, want_gg) > bound_gg


class TestReluAndPooling:
    def test_relu_examples(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        assert np.array_equal(relu(x).ravel(), [0, 0, 2])
        neg = -np.ones((1, 1, 2, 2))
        assert not relu(neg).any()
        assert not relu_backward(neg, np.ones_like(neg)).any()
        pos = np.abs(np.random.default_rng(0).standard_normal((1, 2, 3, 3))) + 0.1
        g = np.ones_like(pos)
        assert np.array_equal(relu(pos), pos)
        assert np.array_equal(relu_backward(pos, g), g)

    def test_maxpool_basic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, idx = maxpool2(x)
        assert y.item() == 4.0
        g = maxpool2_backward(idx, np.ones((1, 1, 1, 1)), (1, 1, 2, 2))
        assert g[0, 0, 1, 1] == 1.0 and g.sum() == 1.0

    def test_maxpool_tie_first_scan_order(self):
        x = np.ones((1, 1, 2, 2))
        y, idx = maxpool2(x)
        assert y.item() == 1.0
        g = maxpool2_backward(idx, np.ones((1, 1, 1, 1)), (1, 1, 2, 2))
        assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0

    def test_maxpool_shape(self):
        assert maxpool2(np.zeros((1, 1, 32, 32)))[0].shape == (1, 1, 16, 16)

    def test_maxpool_odd_dims_error(self):
        with pytest.raises(ShapeError):
            maxpool2(np.zeros((1, 1, 5, 4)))

    def test_maxpool_finite_differences(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)) * 2
        g = rng.standard_normal((1, 1, 2, 2))

        def loss():
            return float((maxpool2(x)[0] * g).sum())

        _, idx = maxpool2(x)
        assert max_rel_err(maxpool2_backward(idx, g, x.shape),
                           numerical_grad(loss, x)) < 1e-5

    def test_avgpool_examples(self):
        c = np.full((2, 3, 4, 4), 1.5)
        assert np.allclose(avgpool_global(c), 1.5)
        x = np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 1, 2, 2)
        assert avgpool_global(x).item() == 3.0
        assert avgpool_global(np.zeros((1, 320, 8, 8))).shape == (1, 320, 1, 1)

    def test_avgpool_backward_uniform(self):
        g = np.ones((1, 2, 1, 1))
        gx = avgpool_global_backward(g, (1, 2, 4, 4))
        assert np.allclose(gx, 1.0 / 16)


def reference_maxpool2(x):
    """2x2 windows gathered as a trailing axis of 4; argmax picks the first
    maximum."""
    n, c, h, w = x.shape
    tiles = (x.reshape(n, c, h // 2, 2, w // 2, 2)
             .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4))
    idx = tiles.argmax(axis=-1)
    return np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0], idx


def reference_maxpool2_backward(idx, g, in_shape):
    """Scatter each output gradient onto its window cell."""
    n, c, h, w = in_shape
    scatter = np.zeros((n, c, h // 2, w // 2, 4), dtype=g.dtype)
    np.put_along_axis(scatter, idx[..., None], g[..., None], axis=-1)
    return (scatter.reshape(n, c, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))


def tied_windows(first):
    """(1, 1, 2, 8): four windows whose max 1.0 fills every cell from
    position `first` on, for each of the four window positions in turn."""
    x = np.zeros((4, 4))
    for k in range(4):
        win = x[k].reshape(2, 2)
        win.reshape(-1)[first:] = 1.0
        win.reshape(-1)[:first] = -1.0 - k
    return x.reshape(4, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, 8)


class TestMaxPoolAgainstReference:
    """Strided-view pooling against the tile/argmax path: values, indices and
    gradients equal to the bit."""

    def assert_matches(self, x, rng):
        y, idx = maxpool2(x)
        want_y, want_idx = reference_maxpool2(x)
        assert y.dtype == x.dtype and y.tobytes() == want_y.tobytes()
        assert idx.dtype == np.int8 and np.array_equal(idx, want_idx)
        g = rng.standard_normal(y.shape).astype(x.dtype)
        gx = maxpool2_backward(idx, g, x.shape)
        want_gx = reference_maxpool2_backward(want_idx, g, x.shape)
        assert gx.dtype == x.dtype and gx.tobytes() == want_gx.tobytes()
        assert gx.flags.c_contiguous and gx.flags.owndata
        assert not np.shares_memory(gx, g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random(self, dtype, rng):
        self.assert_matches(rng.standard_normal((3, 4, 6, 8)).astype(dtype), rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ties_at_every_position(self, dtype, rng):
        for first in range(4):
            x = tied_windows(first).astype(dtype)
            assert np.array_equal(maxpool2(x)[1], np.full((1, 1, 1, 4), first))
            self.assert_matches(x, rng)
        # Small integers tie in most windows, in every pattern.
        self.assert_matches(rng.integers(-1, 2, (4, 3, 8, 8)).astype(dtype), rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_negative_windows(self, dtype, rng):
        x = -1.0 - np.abs(rng.standard_normal((2, 3, 4, 6)))
        self.assert_matches(x.astype(dtype), rng)
        self.assert_matches(-np.ones((1, 2, 4, 4), dtype=dtype), rng)


class TestLinear:
    def test_identity_weights(self, rng):
        x = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        y = linear_forward(x, np.eye(4), b)
        assert np.allclose(y, x + b)

    def test_zero_weights_gives_bias_rows(self, rng):
        b = rng.standard_normal(5)
        y = linear_forward(rng.standard_normal((3, 4)), np.zeros((5, 4)), b)
        assert np.allclose(y, np.tile(b, (3, 1)))

    def test_classifier_shape(self):
        y = linear_forward(np.zeros((7, 320)), np.zeros((100, 320)), np.zeros(100))
        assert y.shape == (7, 100)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear_forward(np.zeros((2, 5)), np.zeros((3, 4)), np.zeros(3))

    def test_backward_finite_differences(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        g = rng.standard_normal((3, 4))

        def loss():
            return float((linear_forward(x, w, b) * g).sum())

        gx, gw, gb = linear_backward(x, w, g)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        assert max_rel_err(gw, numerical_grad(loss, w)) < 1e-5
        assert max_rel_err(gb, numerical_grad(loss, b)) < 1e-5
