"""The segment-wise backward against the whole-block backward of
recnet.verify: the d*S_out hidden block as the forward produced it, one
transition conv backward over all of it, and crc_backward given dL/dh as
one array. Both run in float64 on copies of one module or model and must
agree to 1e-12, relative to the largest entry of each gradient."""

import copy

import numpy as np
import pytest

from recnet.crc import CrcVariant
from recnet.model import RecNetConfig, build
from recnet.rec import RecModule, rec_backward, rec_forward_cached
from recnet.tensor import (
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
from recnet.verify import whole_block_rec_backward, whole_block_rec_forward

TOL = 1e-12
KERNELS = [(3, 3), (3, 1), (1, 3)]


def assert_close(got, want, name):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= TOL * scale, name


def randomize(named_params, rng):
    """Move every parameter off its neutral initial value."""
    for name, q in named_params:
        if name.endswith(".gamma"):
            q.data[:] = 0.5 + rng.random(q.shape)
        elif name.endswith((".beta", ".b")):
            q.data[:] = rng.standard_normal(q.shape) * 0.3
        else:
            q.data[:] = rng.standard_normal(q.shape) * 0.5


def whole_block_model_step(model, x, grad_logits):
    """forward_cached + backward of the model, every activation kept and
    every module's backward taken over its whole hidden block; returns the
    logits."""
    stem = {"pre": conv2d_forward(x, model.stem_w, padding="same")}
    stem_out = relu(batchnorm_forward(stem["pre"], model.stem_bn, stats=stem))
    cur, saved = stem_out, []
    for i, mod in enumerate(model.modules):
        y, kept = whole_block_rec_forward(cur, mod)
        saved.append((cur, y, kept))
        cur = y
        if i in model._pool_after:
            cur, idx = maxpool2(y)
            saved[-1] += (idx,)
    flat = avgpool_global(cur).reshape(len(x), -1)
    logits = linear_forward(flat, model.fc_w, model.fc_b)

    grad_flat, g_w, g_b = linear_backward(flat, model.fc_w, grad_logits)
    model.fc_w.accumulate(g_w)
    model.fc_b.accumulate(g_b)
    grad = avgpool_global_backward(grad_flat.reshape(grad_flat.shape + (1, 1)), cur.shape)
    for mod, (x_in, y, kept, *pool) in zip(model.modules[::-1], saved[::-1]):
        if pool:
            grad = maxpool2_backward(pool[0], grad, y.shape)
        grad = whole_block_rec_backward(x_in, mod, grad, kept)
    grad, g_gamma, g_beta = batchnorm_backward(
        stem["pre"], model.stem_bn, relu_backward(stem_out, grad), stem)
    model.stem_bn.gamma.accumulate(g_gamma)
    model.stem_bn.beta.accumulate(g_beta)
    model.stem_w.accumulate(conv2d_backward(x, model.stem_w, grad, padding="same")[1])
    return logits


@pytest.mark.parametrize("k_x,k_h", KERNELS)
@pytest.mark.parametrize("variant", list(CrcVariant))
def test_rec_backward_matches_whole_block(variant, k_x, k_h):
    rng = np.random.default_rng(11)
    m = RecModule.create(2, 3, 4, 5, k_x, k_h, variant, rng=rng, dtype=np.float64)
    randomize(m.named_params(), rng)
    ref = copy.deepcopy(m)
    x = rng.standard_normal((3, m.c_in, 6, 6))
    g = rng.standard_normal((3, 4, 6, 6))

    y, cache = rec_forward_cached(x, m)
    grad_x = rec_backward(x, m, g, cache, y)
    want_y, saved = whole_block_rec_forward(x, ref)
    want_x = whole_block_rec_backward(x, ref, g, saved)

    assert np.array_equal(y, want_y)
    assert_close(grad_x, want_x, "grad_x")
    for (name, q), (_, q_ref) in zip(m.named_params(), ref.named_params()):
        assert_close(q.grad, q_ref.grad, name)


@pytest.mark.parametrize("k_x,k_h", KERNELS)
@pytest.mark.parametrize("variant", list(CrcVariant))
def test_model_backward_matches_whole_block(variant, k_x, k_h):
    rng = np.random.default_rng(12)
    cfg = RecNetConfig(2, 2, 2, 2, 3, 2, 3, n_classes=5, variant=variant, k_x=k_x, k_h=k_h,
                       in_size=8)
    model = build(cfg, rng=rng, dtype=np.float64)
    randomize(model.named_params(), rng)
    ref = copy.deepcopy(model)
    x = rng.standard_normal((3, 3, 8, 8))
    grad_logits = rng.standard_normal((3, 5))

    logits, cache = model.forward_cached(x)
    model.backward(cache, grad_logits)
    want_logits = whole_block_model_step(ref, x, grad_logits)

    assert np.array_equal(logits, want_logits)
    for (name, q), (_, q_ref) in zip(model.named_params(), ref.named_params()):
        assert_close(q.grad, q_ref.grad, name)
