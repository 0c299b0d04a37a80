"""The eval-mode forward runs its feature path in sample blocks and the
classifier once over the whole batch. Its logits must equal, bit for bit, a
whole-batch forward written out here; a train-mode forward must stay one
block; and at the reference config the blocks must keep the forward's
traced peak far below the whole batch's activations."""

import copy
import tracemalloc

import numpy as np
import pytest

from recnet import model as model_mod
from recnet.crc import CrcVariant
from recnet.errors import ShapeError
from recnet.model import RecNetConfig, build, ledger
from recnet.rec import rec_forward
from recnet.tensor import (
    avgpool_global,
    batchnorm_forward,
    conv2d_forward,
    linear_forward,
    maxpool2,
    relu,
)

KERNELS = [(3, 3), (3, 1), (1, 3)]
BATCH = 7


def small_config(variant, k_x, k_h):
    """Stage 1 runs stacked-tap conv GEMMs, stages 2 and 3 per-tap ones, and
    stage 3 (S_out = 44, d = 4) a merged form whose block g = 3 is below d."""
    return RecNetConfig(2, 3, 8, 22, 2, 2, 4, n_classes=5, variant=variant, k_x=k_x, k_h=k_h,
                        in_size=8)


def random_model(cfg, dtype, seed=0):
    """A model whose BN affine maps, running statistics and classifier are
    off their neutral initial values; the conv weights keep their random
    initialization, which keeps activations of order one."""
    rng = np.random.default_rng(seed)
    model = build(cfg, rng=rng, dtype=dtype)
    for _, s in model.named_bn_states():
        s.gamma.data[:] = 0.5 + rng.random(s.channels)
        s.beta.data[:] = rng.standard_normal(s.channels) * 0.3
        s.running_mean[:] = rng.standard_normal(s.channels) * 0.3
        s.running_var[:] = 0.5 + rng.random(s.channels)
    model.fc_w.data[:] = rng.standard_normal(model.fc_w.shape) / np.sqrt(model.fc_w.shape[1])
    model.fc_b.data[:] = rng.standard_normal(model.fc_b.shape) * 0.3
    return model


def whole_batch_logits(model, x):
    """Stem, every module, pooling and classifier, each over all samples."""
    cur = relu(batchnorm_forward(conv2d_forward(x, model.stem_w, padding="same"), model.stem_bn))
    for i, mod in enumerate(model.modules):
        cur = rec_forward(cur, mod)
        if i in model._pool_after:
            cur, _ = maxpool2(cur)
    flat = avgpool_global(cur).reshape(len(x), -1)
    return linear_forward(flat, model.fc_w, model.fc_b)


@pytest.fixture
def blocks(monkeypatch):
    """Sets the eval block to a given number of samples by the budget
    constant alone; returns the batch size of every stem conv call, one per
    block, through the name the benchmark's tracer replaces."""
    calls = []
    stem_conv = model_mod.conv2d_forward

    def spy(x, *args, **kwargs):
        calls.append(len(x))
        return stem_conv(x, *args, **kwargs)

    monkeypatch.setattr(model_mod, "conv2d_forward", spy)

    def set_block(model, samples, itemsize):
        widest = max(r.out_channels * r.out_h * r.out_w for r in ledger(model.cfg))
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", samples * widest * itemsize)
        calls.clear()
        return calls

    return set_block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["merged", "naive"])
@pytest.mark.parametrize("k_x,k_h", KERNELS)
@pytest.mark.parametrize("variant", list(CrcVariant))
def test_eval_blocks_are_bit_identical_to_the_whole_batch(variant, k_x, k_h, form, dtype,
                                                          blocks):
    model = random_model(small_config(variant, k_x, k_h), dtype)
    model.set_mode("eval")
    for mod in model.modules:
        mod.mode = form
    x = np.random.default_rng(1).standard_normal((BATCH, 3, 8, 8)).astype(dtype)
    want = whole_batch_logits(model, x)
    for samples, sizes in ((1, [1] * 7), (3, [3, 3, 1])):
        calls = blocks(model, samples, np.dtype(dtype).itemsize)
        got = model.forward(x)
        assert calls == sizes
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"blocks of {samples}"


@pytest.mark.parametrize("eval_bn", [(), ("stem.bn",), ("m0.tb.bn", "m5.tb.bn")])
@pytest.mark.parametrize("variant", list(CrcVariant))
def test_train_mode_forward_is_one_block(variant, eval_bn, blocks):
    """Any BN state in train mode needs the batch statistics of the whole
    batch: the forward runs one block, and the logits and every running
    statistic equal the whole-batch reference's."""
    model = random_model(small_config(variant, 3, 3), np.float64)
    model.set_mode("train")
    for name, s in model.named_bn_states():
        if name in eval_bn:
            s.mode = "eval"
    ref = copy.deepcopy(model)
    x = np.random.default_rng(2).standard_normal((BATCH, 3, 8, 8))
    calls = blocks(model, 1, 8)
    got = model.forward(x)
    assert calls == [BATCH]
    assert np.array_equal(got, whole_batch_logits(ref, x))
    for (name, s), (_, s_ref) in zip(model.named_bn_states(), ref.named_bn_states()):
        assert np.array_equal(s.running_mean, s_ref.running_mean), name
        assert np.array_equal(s.running_var, s_ref.running_var), name


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_empty_batch_is_a_shape_error(mode):
    model = build(small_config(CrcVariant.SEPARATE_BN_RELU, 3, 3), seed=0)
    model.set_mode(mode)
    x = np.zeros((0, 3, 8, 8), dtype=np.float32)
    with pytest.raises(ShapeError, match="empty batch"):
        model.forward(x)
    with pytest.raises(ShapeError, match="empty batch"):
        model.forward_cached(x)


def test_reference_eval_forward_holds_one_block():
    """At the reference config, batch 64, float32, the whole batch's
    activations peak at about 80 MB above the forward's start and a block of
    6 samples at about 9 MB; 20 MB leaves room for the allocator and fails
    a forward that runs the batch whole."""
    model = build(RecNetConfig.from_arch_string("4,8,8,8,5,10,15"), seed=0)
    model.set_mode("eval")
    x = np.random.default_rng(0).standard_normal((64, 3, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20
