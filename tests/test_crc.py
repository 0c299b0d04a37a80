import numpy as np
import pytest

from conftest import max_rel_err, numerical_grad
from recnet.crc import (
    CrcParams,
    CrcVariant,
    compose_kernels,
    crc_backward,
    crc_forward,
    crc_forward_cached,
    crc_linear_unrolled,
    grouped_shared_forward,
    iter_hidden_segments,
    step_kernel,
)
from recnet.errors import ConfigError, ShapeError
from recnet.tensor import conv2d_forward, relu


def make_crc(s_in, s_out, d, k_x=3, k_h=3, variant=CrcVariant.LINEAR, seed=0,
             eval_bn=True, scale=0.6):
    rng = np.random.default_rng(seed)
    p = CrcParams(s_in, s_out, d, k_x, k_h, variant,
                  rng=np.random.default_rng(seed + 1), dtype=np.float64)
    p.w_x.data[:] = rng.standard_normal(p.w_x.shape) * scale
    p.w_h.data[:] = rng.standard_normal(p.w_h.shape) * scale
    if p.bias is not None:
        p.bias.data[:] = rng.standard_normal(p.s_out) * 0.3
    if eval_bn:
        for s in p.bn_states():
            s.eval()
    return p


class TestParamsValidation:
    def test_segment_count_positive(self):
        with pytest.raises(ConfigError):
            CrcParams(2, 2, 0)

    def test_channel_shape_validation(self):
        p = make_crc(2, 3, 2)
        with pytest.raises(ShapeError):
            crc_forward(np.zeros((1, 5, 4, 4)), p)

    def test_variant_ownership(self):
        relu_p = CrcParams(1, 2, 3, variant=CrcVariant.RELU)
        assert relu_p.bias is not None and relu_p.bns is None
        sep = CrcParams(1, 2, 3, variant=CrcVariant.SEPARATE_BN_RELU)
        assert sep.bias is None and len(sep.bns) == 3
        shared = CrcParams(1, 2, 3, variant=CrcVariant.SHARED_BN_RELU)
        assert len(shared.bns) == 1
        lin = CrcParams(1, 2, 3, variant=CrcVariant.LINEAR)
        assert lin.bias is not None and lin.out_bn.channels == 6

    def test_weight_sharing_independent_of_d(self):
        # Convolution weights are exactly (S_in + S_out) * S_out * k^2 for
        # every segment count; only BN parameters grow with d.
        for d in (1, 2, 5, 10):
            p = CrcParams(16, 64, d, variant=CrcVariant.SEPARATE_BN_RELU)
            conv_weights = p.w_x.data.size + p.w_h.data.size
            assert conv_weights == (16 + 64) * 64 * 9
            assert p.num_params() == conv_weights + d * 2 * 64

    def test_reference_layer_count(self):
        p = CrcParams(16, 64, 10, variant=CrcVariant.SEPARATE_BN_RELU)
        assert p.num_params() == 47_360


class TestForward:
    def test_d1_relu_degenerates_to_conv(self, rng):
        p = make_crc(3, 4, 1, variant=CrcVariant.RELU)
        x = rng.standard_normal((2, 3, 6, 6))
        want = relu(conv2d_forward(x, p.w_x, p.bias, "same"))
        assert np.array_equal(crc_forward(x, p), want)

    def test_zero_hidden_kernel_is_grouped_conv(self, rng):
        p = make_crc(2, 3, 4, variant=CrcVariant.LINEAR)
        p.w_h.data[:] = 0.0
        p.bias.data[:] = 0.0
        x = rng.standard_normal((1, 8, 5, 5))
        segs = [conv2d_forward(x[:, 2 * i:2 * i + 2], p.w_x, padding="same")
                for i in range(4)]
        pre = np.concatenate(segs, axis=1)
        # Neutral eval-mode BN scales by 1/sqrt(1+eps) before the ReLU.
        want = relu(pre / np.sqrt(1 + p.out_bn.eps))
        assert np.max(np.abs(crc_forward(x, p) - want)) < 1e-6

    def test_scalar_hand_unrolled_recursion(self):
        p = make_crc(1, 1, 2, k_x=1, k_h=1)
        p.w_x.data[:] = 2.0
        p.w_h.data[:] = 3.0
        p.bias.data[:] = 0.0
        x = np.array([1.0, 5.0]).reshape(1, 2, 1, 1)
        (_, _, cache), = iter_hidden_segments(x, p, keep_cache=True)
        segs = [step["pre"] for step in cache["steps"]]
        assert segs[0].item() == 2.0
        assert segs[1].item() == 16.0  # 5*2 + 2*3

    def test_output_channel_count(self, rng):
        for variant in CrcVariant:
            p = make_crc(2, 3, 4, variant=variant, eval_bn=False)
            x = rng.standard_normal((2, 8, 4, 4))
            assert crc_forward(x, p).shape == (2, 12, 4, 4)


class TestCausality:
    def test_history_only_reads(self, rng):
        p = make_crc(2, 2, 4, variant=CrcVariant.SEPARATE_BN_RELU, eval_bn=False)
        x = rng.standard_normal((1, 8, 5, 5))
        y = crc_forward(x, p)
        for j in (1, 2, 3):
            x2 = x.copy()
            x2[:, 2 * j:2 * j + 2] += rng.standard_normal((1, 2, 5, 5))
            y2 = crc_forward(x2, p)
            assert np.array_equal(y[:, :2 * j], y2[:, :2 * j])
            assert not np.array_equal(y[:, 2 * j:], y2[:, 2 * j:])

    def test_first_segment_reaches_all(self, rng):
        p = make_crc(2, 2, 4)
        x = rng.standard_normal((1, 8, 5, 5))
        x2 = x.copy()
        x2[:, :2] += 1.0
        y, y2 = crc_forward(x, p), crc_forward(x2, p)
        for i in range(4):
            assert not np.array_equal(y[:, 2 * i:2 * i + 2], y2[:, 2 * i:2 * i + 2])


class TestBackward:
    def test_d1_matches_direct_ops(self, rng):
        p = make_crc(2, 3, 1, variant=CrcVariant.RELU)
        x = rng.standard_normal((2, 2, 5, 5))
        g = rng.standard_normal((2, 3, 5, 5))
        y, cache = crc_forward_cached(x, p)
        gx = crc_backward(x, p, g, cache)
        from recnet.tensor import conv2d_backward, relu_backward

        pre = conv2d_forward(x, p.w_x, p.bias, "same")
        want_gx, _ = conv2d_backward(x, p.w_x, relu_backward(pre, g), "same")
        assert np.allclose(gx, want_gx)

    def test_finite_differences_linear_variant(self, rng):
        p = make_crc(2, 2, 3, variant=CrcVariant.LINEAR, eval_bn=False, seed=5)
        x = rng.standard_normal((1, 6, 4, 4))
        g = rng.standard_normal((1, 6, 4, 4))

        def loss():
            return float((crc_forward(x, p) * g).sum())

        for _, q in p.named_params():
            q.zero_grad()
        y, cache = crc_forward_cached(x, p)
        gx = crc_backward(x, p, g, cache)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        for name, q in p.named_params():
            assert max_rel_err(q.grad, numerical_grad(loss, q.data)) < 1e-5, name

    def test_last_segment_grad_reaches_all_inputs(self, rng):
        p = make_crc(2, 2, 3)
        x = rng.standard_normal((1, 6, 4, 4))
        g = np.zeros((1, 6, 4, 4))
        g[:, 4:] = rng.standard_normal((1, 2, 4, 4))
        y, cache = crc_forward_cached(x, p)
        gx = crc_backward(x, p, g, cache)
        for i in range(3):
            assert np.abs(gx[:, 2 * i:2 * i + 2]).max() > 0

    def test_shared_weights_accumulate_over_steps(self, rng):
        p = make_crc(1, 1, 3, variant=CrcVariant.LINEAR)
        x = rng.standard_normal((1, 3, 4, 4))
        g = rng.standard_normal((1, 3, 4, 4))
        p.w_x.zero_grad()
        y, cache = crc_forward_cached(x, p)
        crc_backward(x, p, g, cache)
        assert p.w_x.grad is not None and np.abs(p.w_x.grad).max() > 0


class TestLinearUnrolled:
    def test_requires_linear_variant(self, rng):
        p = make_crc(1, 1, 2, variant=CrcVariant.RELU)
        with pytest.raises(ConfigError):
            crc_linear_unrolled(np.zeros((1, 2, 4, 4)), p)

    def test_d1_identical_to_iterative(self, rng):
        p = make_crc(2, 3, 1)
        x = rng.standard_normal((2, 2, 6, 6))
        assert np.allclose(crc_linear_unrolled(x, p), crc_forward(x, p), atol=1e-12)

    def test_scalar_composed_kernel(self):
        p = make_crc(1, 1, 2, k_x=1, k_h=1)
        p.w_x.data[:] = 2.0
        p.w_h.data[:] = 3.0
        p.bias.data[:] = 0.0
        composed = compose_kernels(p.w_h.data, p.w_x.data)
        assert composed.item() == 6.0
        x = np.array([1.0, 5.0]).reshape(1, 2, 1, 1)
        assert np.allclose(crc_linear_unrolled(x, p), crc_forward(x, p))

    def test_composed_kernel_side_growth(self):
        p = make_crc(2, 2, 3, k_x=3, k_h=3)
        k1 = compose_kernels(p.w_h.data, p.w_x.data)
        k2 = compose_kernels(p.w_h.data, k1)
        assert k1.shape[2:] == (5, 5)
        assert k2.shape[2:] == (7, 7)

    def test_zero_border_agreement(self, rng):
        # Outer 3 pixels zero for d=4, k=3: agreement everywhere at 1e-5.
        p = make_crc(2, 2, 4, seed=3, scale=0.5)
        p.bias.data[:] = 0.0
        x = rng.standard_normal((1, 8, 12, 12))
        x[:, :, :3, :] = x[:, :, -3:, :] = 0
        x[:, :, :, :3] = x[:, :, :, -3:] = 0
        diff = np.abs(crc_forward(x, p) - crc_linear_unrolled(x, p))
        assert diff.max() < 1e-5

    def test_interior_agreement_general_input(self, rng):
        p = make_crc(2, 2, 4, seed=3, scale=0.5)
        x = rng.standard_normal((1, 8, 12, 12))
        it, un = crc_forward(x, p), crc_linear_unrolled(x, p)
        margin = (4 - 1) * 1 + 1  # (d-1)(k_h-1)/2 + (k_x-1)/2
        interior = np.abs(it - un)[:, :, margin:-margin, margin:-margin]
        assert interior.max() < 1e-5
        assert np.abs(it - un).max() > 1e-3  # border effect is real

    def test_pointwise_hidden_kernel_exact_everywhere(self, rng):
        # k_h = 1: the composed kernel never grows, so the equivalence is
        # exact on all pixels even with a bias chain.
        p = make_crc(2, 2, 5, k_x=3, k_h=1, seed=9)
        x = rng.standard_normal((2, 10, 8, 8))
        assert np.abs(crc_forward(x, p) - crc_linear_unrolled(x, p)).max() < 1e-10


class TestGroupedShared:
    def test_permutation_equivariance(self, rng):
        p = make_crc(2, 3, 3, variant=CrcVariant.RELU, seed=11)
        x = rng.standard_normal((1, 6, 5, 5))
        perm = [2, 0, 1]
        xp = np.concatenate([x[:, 2 * k:2 * k + 2] for k in perm], axis=1)
        y = grouped_shared_forward(x, p)
        yp = grouped_shared_forward(xp, p)
        want = np.concatenate([y[:, 3 * k:3 * k + 3] for k in perm], axis=1)
        assert np.array_equal(yp, want)

    def test_recurrent_is_order_sensitive(self, rng):
        p = make_crc(2, 3, 3, variant=CrcVariant.RELU, seed=11)
        x = rng.standard_normal((1, 6, 5, 5))
        perm = [2, 0, 1]
        xp = np.concatenate([x[:, 2 * k:2 * k + 2] for k in perm], axis=1)
        y = crc_forward(x, p)
        yp = crc_forward(xp, p)
        want = np.concatenate([y[:, 3 * k:3 * k + 3] for k in perm], axis=1)
        assert not np.allclose(yp, want)

    def test_identity_hidden_kernel_d1(self, rng):
        p = make_crc(2, 2, 1, k_x=3, k_h=1, variant=CrcVariant.LINEAR)
        p.w_h.data[:] = np.eye(2).reshape(2, 2, 1, 1)
        p.bias.data[:] = 0.0
        x = rng.standard_normal((1, 2, 5, 5))
        want = relu(conv2d_forward(x, p.w_x, padding="same") / np.sqrt(1 + p.out_bn.eps))
        assert np.max(np.abs(grouped_shared_forward(x, p) - want)) < 1e-9

    def test_parameter_count_matches_recurrent(self):
        p = CrcParams(16, 64, 10, variant=CrcVariant.SEPARATE_BN_RELU)
        # Both computation forms draw from the same parameter set.
        assert p.num_params() == 47_360
        y_shape = grouped_shared_forward(
            np.zeros((1, 160, 8, 8), dtype=np.float64), p).shape
        assert y_shape == (1, 640, 8, 8)


class TestDegeneracy:
    def test_zero_hidden_matches_grouped_with_identity_composition(self, rng):
        # W_h = 0 removes the history term; the recurrence then equals the
        # grouped form evaluated with W_h replaced by the identity.
        p = make_crc(2, 2, 3, k_h=1, variant=CrcVariant.LINEAR, seed=21)
        p.w_h.data[:] = 0.0
        x = rng.standard_normal((1, 6, 5, 5))
        rec = crc_forward(x, p)
        p_id = make_crc(2, 2, 3, k_h=1, variant=CrcVariant.LINEAR, seed=21)
        p_id.w_x.data[:] = p.w_x.data
        p_id.bias.data[:] = p.bias.data
        p_id.w_h.data[:] = np.eye(2).reshape(2, 2, 1, 1)
        grouped = grouped_shared_forward(x, p_id)
        assert np.max(np.abs(rec - grouped)) < 1e-6


class TestDriver:
    @pytest.mark.parametrize("k_x,k_h", [(3, 1), (1, 3), (3, 3)])
    def test_step_conv_matches_two_conv_reference(self, rng, k_x, k_h):
        p = make_crc(2, 3, 3, k_x, k_h, variant=CrcVariant.RELU)
        x = rng.standard_normal((2, 6, 5, 5))
        y, cache = crc_forward_cached(x, p)
        for i in (1, 2):
            st = cache["steps"][i]
            h_prev = y[:, 3 * (i - 1):3 * i]
            want = (conv2d_forward(x[:, 2 * i:2 * i + 2], p.w_x, p.bias, "same")
                    + conv2d_forward(h_prev, p.w_h, padding="same"))
            assert np.max(np.abs(st["pre"] - want)) < 1e-12

    def test_step_kernel_zero_embeds_smaller_kernel(self):
        p = make_crc(2, 3, 2, k_x=1, k_h=3)
        w = step_kernel(p)
        assert w.shape == (3, 5, 3, 3)
        assert np.array_equal(w[:, :2, 1, 1], p.w_x.data[:, :, 0, 0])
        assert not np.delete(w[:, :2].reshape(3, 2, 9), 4, axis=2).any()
        assert np.array_equal(w[:, 2:], p.w_h.data)

    def test_step_kernel_follows_weight_updates(self):
        p = make_crc(1, 1, 2)
        before = step_kernel(p)
        p.w_h.data += 1.0
        assert np.array_equal(step_kernel(p)[:, 1:], before[:, 1:] + 1.0)

    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_step_caches_hold_no_hidden_views(self, rng, variant):
        """The output segments live in one block, the output. No step keeps a
        view of it, and the backward's sweep hands its cotangent every output
        segment as the forward produced it."""
        p = make_crc(2, 3, 4, variant=variant, eval_bn=False)
        x = rng.standard_normal((2, 8, 5, 5))
        y, cache = crc_forward_cached(x, p)
        for st in cache["steps"]:
            assert not any(np.shares_memory(a, y) for a in st.values())
        seen = {}

        def cotangent(i, y_i):
            seen[i] = y_i.copy()
            return np.ones_like(y_i)
        crc_backward(x, p, cotangent, cache)
        assert sorted(seen) == list(range(4))
        for i, y_i in seen.items():
            assert np.array_equal(y_i, y[:, 3 * i:3 * i + 3])

    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_block_sizes_yield_the_same_output(self, rng, variant):
        p = make_crc(2, 3, 5, variant=variant, eval_bn=False)
        x = rng.standard_normal((2, 10, 5, 5))
        want = crc_forward(x, p)
        for g in (1, 2, 5):
            got = np.concatenate([y.copy() for _, y, _ in
                                  iter_hidden_segments(x, p, g)], axis=1)
            assert np.max(np.abs(got - want)) < 1e-12, g

    def test_block_size_must_be_positive(self, rng):
        p = make_crc(1, 1, 2)
        with pytest.raises(ConfigError):
            next(iter_hidden_segments(np.zeros((1, 2, 3, 3)), p, 0))
