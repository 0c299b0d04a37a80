"""The inference forward runs each stage of its feature path in sample
blocks sized from the stage's widest ledger() row, and the classifier once
over the whole batch. Its logits must equal, bit for bit, a
whole-batch forward written out here; it must change no running statistic;
and at the reference config the blocks must keep the forward's traced peak
far below the whole batch's activations."""

import tracemalloc

import numpy as np
import pytest

from recnet import model as model_mod
from recnet import workers as workers_mod
from recnet.crc import CrcVariant
from recnet.errors import ShapeError
from recnet.model import RecNetConfig, build
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
    cur = relu(batchnorm_forward(conv2d_forward(x, model.stem_w), model.stem_bn))
    for i, mod in enumerate(model.modules):
        cur = rec_forward(cur, mod)
        if i in model._pool_after:
            cur, _ = maxpool2(cur)
    flat = avgpool_global(cur).reshape(len(x), -1)
    return linear_forward(flat, model.fc_w, model.fc_b)


@pytest.fixture
def blocks(monkeypatch):
    """blocks(model, x, budget, workers=1) runs model.forward(x) on that
    many workers with a _BLOCK_BYTES of budget elements of x's dtype. It
    returns the logits and, per stage, the batch size of every call on the
    stage's first module in this process, one per block of the caller's
    slice, through the name the benchmark's tracer replaces."""
    calls = []
    original = model_mod.rec_forward

    def spy(x, mod):
        calls.append((mod, len(x)))
        return original(x, mod)

    monkeypatch.setattr(model_mod, "rec_forward", spy)

    def run(model, x, budget, workers=1):
        monkeypatch.setattr(workers_mod, "cpu_count", lambda: workers)
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", budget * x.dtype.itemsize)
        calls.clear()
        logits = model.forward(x)
        firsts = [0] + [i + 1 for i in model._pool_after]
        return logits, [[size for mod, size in calls if mod is model.modules[i]]
                        for i in firsts]

    return run


# The small config's widest ledger rows per sample are 1024, 1408 and 704
# elements in stages 1-3, and its pooling rows 256 and 352. A budget of
# one stage-2 sample gives blocks of 1, 1 and 2 samples, a budget of three
# gives blocks of 4, 3 and 6; in both the outer block is the stage-3 block.
# A budget that fits the whole batch gives one block.
BUDGETS = [(1408, [[1] * 7, [1] * 7, [2, 2, 2, 1]]),
           (3 * 1408, [[4, 2, 1], [3, 3, 1], [6, 1]]),
           (7 * 1408, [[7], [7], [7]])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["merged", "naive"])
@pytest.mark.parametrize("k_x,k_h", KERNELS)
@pytest.mark.parametrize("variant", list(CrcVariant))
def test_eval_blocks_are_bit_identical_to_the_whole_batch(variant, k_x, k_h, form, dtype,
                                                          blocks):
    model = random_model(small_config(variant, k_x, k_h), dtype)
    for mod in model.modules:
        mod.mode = form
    x = np.random.default_rng(1).standard_normal((BATCH, 3, 8, 8)).astype(dtype)
    want = whole_batch_logits(model, x)
    for budget, sizes in BUDGETS:
        got, calls = blocks(model, x, budget)
        assert calls == sizes, f"budget {budget}"
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"budget {budget}"


def test_blocks_do_not_depend_on_the_worker_count(blocks):
    """Each slice runs in a process of its own and sizes its blocks from
    the whole budget: the caller's slice of two runs the blocks that one
    worker runs on the same samples."""
    model = random_model(small_config(CrcVariant.SEPARATE_BN_RELU, 3, 3), np.float32)
    x = np.random.default_rng(4).standard_normal((2 * BATCH, 3, 8, 8)).astype(np.float32)
    budget, sizes = BUDGETS[1]
    got, calls = blocks(model, x, budget, workers=2)
    assert calls == sizes
    assert np.array_equal(got, whole_batch_logits(model, x))
    assert blocks(model, x[:BATCH], budget)[1] == sizes


def test_outer_block_holds_the_pooled_outputs(blocks):
    """With e = 1 the pooling rows, 128 and 64 elements per sample, outweigh
    stage 3's widest row, 64: a budget of 512 gives stage blocks of 1, 2
    and 8 samples, but the outer block is capped at 512 // 192 = 2."""
    model = random_model(RecNetConfig(1, 2, 4, 8, 2, 2, 2, n_classes=5, in_size=8),
                         np.float64)
    x = np.random.default_rng(3).standard_normal((BATCH, 3, 8, 8))
    got, calls = blocks(model, x, 512)
    assert calls == [[1] * 7, [2, 2, 2, 1], [2, 2, 2, 1]]
    assert np.array_equal(got, whole_batch_logits(model, x))


@pytest.mark.parametrize("variant", list(CrcVariant))
def test_forward_changes_no_running_statistic(variant):
    model = random_model(small_config(variant, 3, 3), np.float64)
    before = [(s.running_mean.copy(), s.running_var.copy()) for _, s in model.named_bn_states()]
    model.forward(np.random.default_rng(2).standard_normal((BATCH, 3, 8, 8)))
    for (name, s), (mean, var) in zip(model.named_bn_states(), before, strict=True):
        assert np.array_equal(s.running_mean, mean), name
        assert np.array_equal(s.running_var, var), name


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_empty_batch_is_a_shape_error(mode):
    model = build(small_config(CrcVariant.SEPARATE_BN_RELU, 3, 3), seed=0)
    forward = model.forward_cached if mode == "train" else model.forward
    x = np.zeros((0, 3, 8, 8), dtype=np.float32)
    with pytest.raises(ShapeError, match="empty batch"):
        forward(x)


def test_reference_eval_forward_holds_one_block():
    """At the reference config, batch 64, float32, the whole batch's
    activations peak at about 80 MB above the forward's start, and the
    per-stage blocks at about 5.5-5.8 MB on one core or two, where the
    caller's slice is all that this process traces; 10 MB leaves room for
    the allocator and fails a forward that runs the batch whole."""
    model = build(RecNetConfig.from_arch_string("4,8,8,8,5,10,15"), seed=0)
    x = np.random.default_rng(0).standard_normal((64, 3, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20
