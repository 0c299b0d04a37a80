import numpy as np
import pytest

from conftest import max_rel_err, numerical_grad
from recnet.crc import (
    CrcParams,
    CrcVariant,
    crc_forward,
    crc_forward_cached,
    crc_linear_unrolled,
    grouped_shared_forward,
    iter_hidden_segments,
)
from recnet.errors import ConfigError
from recnet.model import RecNetConfig, build
from recnet.rec import (
    RecModule,
    TransitionBlock,
    block_size,
    rec_backward,
    rec_forward,
    rec_forward_blocked,
    rec_forward_cached,
    tb_segment_block,
)
from recnet.tensor import conv2d_forward, relu


def make_module(s_in, s_out, c_out, d, variant=CrcVariant.SEPARATE_BN_RELU, seed=0):
    rng = np.random.default_rng(seed)
    m = RecModule.create(s_in, s_out, c_out, d, variant=variant,
                         rng=np.random.default_rng(seed + 1), dtype=np.float64)
    m.crc.w_x.data[:] = rng.standard_normal(m.crc.w_x.shape) * 0.6
    m.crc.w_h.data[:] = rng.standard_normal(m.crc.w_h.shape) * 0.6
    if m.crc.bias is not None:
        m.crc.bias.data[:] = rng.standard_normal(s_out) * 0.3
    m.tb.a.data[:] = rng.standard_normal(m.tb.a.shape) * 0.6
    return m


class TestConstruction:
    def test_tb_width_must_match_crc(self):
        crc = CrcParams(2, 4, 3)
        tb = TransitionBlock(10, 5)  # d*s_out is 12, not 10
        with pytest.raises(ConfigError):
            RecModule(crc, tb)

    def test_output_width_independent_of_d(self, rng):
        for d in (1, 2, 5):
            m = make_module(2, 3, 7, d)
            x = rng.standard_normal((1, 2 * d, 4, 4))
            assert rec_forward(x, m).shape == (1, 7, 4, 4)


class TestForward:
    def test_block_identity_transition(self, rng):
        # A = identity over the concatenated segments, neutral inference BN:
        # y matches relu(h) up to the 1/sqrt(1+eps) factor.
        m = make_module(2, 2, 6, 3)
        m.tb.a.data[:] = np.eye(6).reshape(6, 6, 1, 1)
        x = rng.standard_normal((1, 6, 4, 4))
        h = crc_forward(x, m.crc)
        y = rec_forward_blocked(x, m, m.crc.d)
        assert np.max(np.abs(y - relu(h) / np.sqrt(1 + m.tb.bn.eps))) < 1e-9

    def test_reference_stage_shape(self):
        m = RecModule.create(8, 32, 80, 10)
        x = np.zeros((1, 80, 32, 32), dtype=np.float32)
        assert rec_forward(x, m).shape == (1, 80, 32, 32)

    def test_zero_input_zero_prebn_activation(self):
        m = make_module(2, 2, 4, 3, variant=CrcVariant.LINEAR)
        m.crc.bias.data[:] = 0.0
        x = np.zeros((2, 6, 4, 4))
        _, cache = crc_forward_cached(x, m.crc)
        assert not any(step["pre"].any() for step in cache["steps"])


def merged_vs_naive(x, m):
    """Largest difference between the merged form and the naive form (g = d),
    relative where an output exceeds 1: both are inference, whose BN at the
    initial running statistics does not normalize, so outputs reach 1e7 at
    d = 8. Only a module whose merged blocks are shorter than d runs two
    different computations."""
    assert m.mode == "merged" and block_size(m) < m.crc.d
    return max_rel_err(rec_forward(x, m), rec_forward_blocked(x, m, m.crc.d))


class TestModeEquivalence:
    def test_reference_instance(self, rng):
        # The reference network's first-stage module: S_out = 32, d = 10,
        # so the merged form runs blocks of 4, 4 and 2 segments.
        m = make_module(8, 32, 80, 10, seed=2)
        x = rng.standard_normal((1, 80, 8, 8))
        assert merged_vs_naive(x, m) < 1e-9

    @pytest.mark.parametrize("variant", list(CrcVariant))
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equivalence_across_d(self, variant, d):
        # The narrowest S_out at which block_size(m) = d - 1.
        s_out = -(-128 // (d - 1))
        rng = np.random.default_rng(10 * d)
        m = make_module(2, s_out, 5, d, variant=variant, seed=d)
        x = rng.standard_normal((2, 2 * d, 6, 6))
        assert merged_vs_naive(x, m) < 1e-9

    def test_equivalence_float32(self, rng):
        for variant in CrcVariant:
            m = RecModule.create(2, 43, 6, 4, variant=variant, rng=np.random.default_rng(3))
            x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
            assert m.tb.a.dtype == np.float32
            assert merged_vs_naive(x, m) < 1e-4, variant

    def test_block_decomposition(self, rng):
        m = make_module(2, 3, 5, 4)
        h = rng.standard_normal((2, 12, 5, 5))
        full = conv2d_forward(h, m.tb.a)
        parts = sum(conv2d_forward(h[:, 3 * i:3 * i + 3],
                                   tb_segment_block(m.tb.a.data, i, 3))
                    for i in range(4))
        assert np.max(np.abs(full - parts)) < 1e-9


class TestBlockedForm:
    def test_block_size_rule(self):
        # The smallest g with g*S_out >= 128, capped at d.
        assert block_size(RecModule.create(8, 32, 40, 5)) == 4
        assert block_size(RecModule.create(8, 32, 40, 3)) == 3
        assert block_size(RecModule.create(4, 128, 40, 5)) == 1
        assert block_size(RecModule.create(4, 100, 40, 5)) == 2

    @pytest.mark.parametrize("variant", list(CrcVariant))
    @pytest.mark.parametrize("d", [3, 5])
    def test_block_sizes_agree(self, variant, d):
        rng = np.random.default_rng(d)
        m = make_module(2, 3, 5, d, variant=variant, seed=d)
        x = rng.standard_normal((2, 2 * d, 6, 6))
        want = rec_forward_blocked(x, m, d)
        for g in (1, 2):
            got = rec_forward_blocked(x, m, g)
            assert np.max(np.abs(got - want)) < 1e-12, g

    def test_eval_forward_leaves_input_and_stats(self, rng):
        m = make_module(2, 3, 5, 4)
        x = rng.standard_normal((2, 8, 5, 5))
        keep = x.copy()
        stats = [(s.running_mean.copy(), s.running_var.copy()) for s in m.bn_states()]
        y1 = rec_forward_blocked(x, m, 2)
        y2 = rec_forward_blocked(x, m, 2)
        assert np.array_equal(x, keep) and np.array_equal(y1, y2)
        for s, (mean, var) in zip(m.bn_states(), stats):
            assert np.array_equal(s.running_mean, mean) and np.array_equal(s.running_var, var)


class TestBackward:
    def test_zero_cotangent(self, rng):
        m = make_module(2, 2, 4, 3)
        x = rng.standard_normal((1, 6, 4, 4))
        for _, q in m.named_params():
            q.zero_grad()
        y, cache = rec_forward_cached(x, m)
        gx = rec_backward(x, m, np.zeros((1, 4, 4, 4)), cache, y)
        assert not gx.any()
        assert all(not q.grad.any() for _, q in m.named_params())

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        m = make_module(2, 2, 3, 2, seed=8)
        x = rng.standard_normal((1, 4, 4, 4))
        g = rng.standard_normal((1, 3, 4, 4))

        def loss():
            return float((rec_forward_cached(x, m)[0] * g).sum())

        for _, q in m.named_params():
            q.zero_grad()
        y, cache = rec_forward_cached(x, m)
        gx = rec_backward(x, m, g, cache, y)
        assert max_rel_err(gx, numerical_grad(loss, x)) < 1e-5
        for name, q in m.named_params():
            assert max_rel_err(q.grad, numerical_grad(loss, q.data)) < 1e-5, name

    def test_grad_a_is_correlation_with_hidden(self, rng):
        m = make_module(2, 3, 4, 3, seed=4)
        x = rng.standard_normal((2, 6, 5, 5))
        g = rng.standard_normal((2, 4, 5, 5))
        h = crc_forward_cached(x, m.crc)[0]
        y, cache = rec_forward_cached(x, m)
        tb = {k: v.copy() for k, v in cache["tb"].items()}
        for _, q in m.named_params():
            q.zero_grad()
        rec_backward(x, m, g, cache, y)
        from recnet.tensor import batchnorm_backward, relu_backward

        g_z = relu_backward(y, g)
        g_pre, _, _ = batchnorm_backward(tb["pre"], m.tb.bn, g_z, tb)
        want = np.einsum("nohw,nchw->oc", g_pre, h)[:, :, None, None]
        assert np.allclose(m.tb.a.grad, want, atol=1e-10)


def _entry_layer(variant):
    p = CrcParams(2, 3, 3, variant=variant, rng=np.random.default_rng(0), dtype=np.float64)
    return p, p.bn_states(), p.c_in


def _entry_module():
    m = make_module(2, 3, 5, 3)
    return m, m.bn_states(), m.c_in


def _entry_model():
    model = build(RecNetConfig(1, 2, 2, 2, 2, 2, 2, n_classes=3, in_size=8), seed=0)
    # The classifier starts at zero, which would make every logit 0.
    model.fc_w.data[:] = np.random.default_rng(1).standard_normal(model.fc_w.shape)
    return model, [s for _, s in model.named_bn_states()], model.cfg.in_channels


def _segments(x, p, keep_cache=False):
    """iter_hidden_segments in blocks of 2, joined; the inference block
    buffer is reused, so each block is copied before the next is pulled."""
    return np.concatenate([y.copy() for _, y, _ in
                           iter_hidden_segments(x, p, 2, keep_cache=keep_cache)], axis=1)


SEPARATE = CrcVariant.SEPARATE_BN_RELU
ENTRY_POINTS = [
    pytest.param("eval", lambda: _entry_layer(SEPARATE), crc_forward, id="crc_forward"),
    pytest.param("eval", lambda: _entry_layer(SEPARATE), _segments, id="iter_hidden_segments"),
    pytest.param("eval", lambda: _entry_layer(CrcVariant.LINEAR), crc_linear_unrolled,
                 id="crc_linear_unrolled"),
    pytest.param("eval", lambda: _entry_layer(CrcVariant.SHARED_BN_RELU),
                 grouped_shared_forward, id="grouped_shared_forward"),
    pytest.param("eval", _entry_module, rec_forward, id="rec_forward"),
    pytest.param("eval", _entry_module, lambda x, m: rec_forward_blocked(x, m, m.crc.d),
                 id="rec_forward_blocked"),
    pytest.param("eval", _entry_model, lambda x, model: model.forward(x), id="forward"),
    pytest.param("train", lambda: _entry_layer(SEPARATE),
                 lambda x, p: crc_forward_cached(x, p)[0], id="crc_forward_cached"),
    pytest.param("train", lambda: _entry_layer(SEPARATE),
                 lambda x, p: _segments(x, p, keep_cache=True),
                 id="iter_hidden_segments-keep_cache"),
    pytest.param("train", _entry_module, lambda x, m: rec_forward_cached(x, m)[0],
                 id="rec_forward_cached"),
    pytest.param("train", _entry_model, lambda x, model: model.forward_cached(x)[0],
                 id="forward_cached"),
]


@pytest.mark.parametrize("mode, make, run", ENTRY_POINTS)
def test_bn_mode_follows_the_entry_point(mode, make, run):
    """A forward that keeps a training cache normalizes by batch statistics
    and updates every running statistic; every other forward normalizes by
    the running statistics and changes none, so each sample's output does
    not depend on the rest of the batch."""
    obj, states, c_in = make()
    rng = np.random.default_rng(3)
    for s in states:
        s.running_mean[:] = rng.standard_normal(s.channels) * 0.3
        s.running_var[:] = 0.5 + rng.random(s.channels)
    size = 8 if c_in == 3 else 5
    x = rng.standard_normal((3, c_in, size, size))
    before = [(s.running_mean.copy(), s.running_var.copy()) for s in states]
    y = run(x, obj)
    moved = [not np.array_equal(s.running_mean, mean) and not np.array_equal(s.running_var, var)
             for s, (mean, var) in zip(states, before, strict=True)]
    alone = run(x[:1], obj)
    assert states
    if mode == "eval":
        assert not any(moved)
        assert np.allclose(alone, y[:1], rtol=1e-10, atol=1e-12)
    else:
        assert all(moved)
        assert not np.allclose(alone, y[:1], rtol=1e-3, atol=1e-3)
