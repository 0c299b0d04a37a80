"""The training cache: what forward_cached keeps, how backward rebuilds the
activations it does not keep, how backward consumes it, and how little the
backward holds beside it."""

import tracemalloc

import numpy as np
import pytest

from recnet.crc import CrcParams, CrcVariant, crc_backward, crc_forward_cached
from recnet.errors import ShapeError, SpentCacheError
from recnet.model import RecNetConfig, build
from recnet.rec import RecModule, rec_backward, rec_forward_cached, rec_output
from recnet.tensor import (
    BnState,
    batchnorm_backward,
    batchnorm_forward,
    relu_backward,
)


def random_crc(variant, dtype):
    rng = np.random.default_rng(7)
    p = CrcParams(2, 3, 4, variant=variant, rng=rng, dtype=dtype)
    for s in p.bn_states():
        s.gamma.data[:] = 0.5 + rng.random(s.channels)
        s.beta.data[:] = rng.standard_normal(s.channels)
    if p.bias is not None:
        p.bias.data[:] = rng.standard_normal(p.s_out) * 0.3
    return p


def rebuilt_segments(p, x, cache):
    """The output segments crc_backward's sweep hands its cotangent, by
    index."""
    seen = {}

    def cotangent(i, y_i):
        seen[i] = y_i.copy()
        return np.zeros_like(y_i)
    crc_backward(x, p, cotangent, cache)
    return seen


class TestRebuild:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_rebuilt_segments_are_bit_equal_to_the_forward_output(self, variant, dtype):
        p = random_crc(variant, dtype)
        x = np.random.default_rng(3).standard_normal((3, p.c_in, 6, 6)).astype(dtype)
        y, cache = crc_forward_cached(x, p)
        segments = rebuilt_segments(p, x, cache)
        assert sorted(segments) == list(range(p.d))
        for i, y_i in segments.items():
            assert y_i.dtype == y.dtype
            assert np.array_equal(y_i, y[:, i * p.s_out:(i + 1) * p.s_out])

    def test_rebuild_leaves_running_statistics_alone(self):
        p = random_crc(CrcVariant.SEPARATE_BN_RELU, np.float64)
        x = np.random.default_rng(3).standard_normal((3, p.c_in, 6, 6))
        _, cache = crc_forward_cached(x, p)
        before = [(s.running_mean.copy(), s.running_var.copy()) for s in p.bn_states()]
        rebuilt_segments(p, x, cache)
        for s, (mean, var) in zip(p.bn_states(), before):
            assert np.array_equal(s.running_mean, mean) and np.array_equal(s.running_var, var)

    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_module_output_is_rebuilt_bit_for_bit(self, variant, rng):
        m = RecModule.create(2, 3, 4, 3, variant=variant, rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
        y, cache = rec_forward_cached(x, m)
        assert np.array_equal(rec_output(m, cache), y)


def recomputing_batchnorm_backward(x, s, g):
    """The training backward as it stood before it read cached statistics:
    mean, centred input and variance reduced from x again, by the forward's
    own reductions, then the closed form built in the centred input."""
    dtype = np.result_type(x, s.gamma.data)
    m = x.size // x.shape[1]
    rows = x.reshape(x.shape[0], x.shape[1], -1)
    mean = rows.sum(axis=2).sum(axis=0) / m
    xc = np.subtract(x, mean[:, None, None], dtype=dtype)
    xc_rows = xc.reshape(xc.shape[0], xc.shape[1], -1)
    var = np.einsum("ncm,ncm->nc", xc_rows, xc_rows).sum(axis=0) / m
    inv = 1.0 / np.sqrt(var + s.eps)
    g_rows = g.reshape(g.shape[0], g.shape[1], -1)
    sum_g = g_rows.sum(axis=2).sum(axis=0)
    sum_gxc = np.einsum("ncm,ncm->nc", g_rows, xc_rows).sum(axis=0)
    grad_x = xc
    grad_x *= (-inv * inv * sum_gxc / m)[:, None, None]
    grad_x -= (sum_g / m)[:, None, None]
    grad_x += g
    grad_x *= (s.gamma.data * inv)[:, None, None]
    return grad_x, sum_gxc * inv, sum_g


class TestBatchNormStatistics:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 7), (64, 8, 8, 8)])
    def test_cached_statistics_backward_is_bit_equal_to_recompute(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        s = BnState(shape[1], dtype=dtype)
        s.gamma.data[:] = 0.5 + rng.random(shape[1])
        x = (rng.standard_normal(shape) * 2.0 + 3.0).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        stats = {}
        batchnorm_forward(x, s, stats=stats)
        got = batchnorm_backward(x, s, g, stats)
        want = recomputing_batchnorm_backward(x, s, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_backward_into_its_input_buffer_is_bit_equal(self):
        rng = np.random.default_rng(2)
        s = BnState(3, dtype=np.float32)
        s.gamma.data[:] = 0.5 + rng.random(3)
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        stats = {}
        batchnorm_forward(x, s, stats=stats)
        want = batchnorm_backward(x, s, g, stats)
        buf = x.copy()
        got = batchnorm_backward(buf, s, g, stats, out=buf)
        assert got[0] is buf
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_relu_backward_in_place_is_bit_equal(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        want = relu_backward(x, g)
        got = relu_backward(x, g, out=g)
        assert got is g and np.array_equal(got, want)


def small_model(variant):
    cfg = RecNetConfig(1, 2, 2, 2, 2, 2, 2, variant=variant, in_size=8)
    return build(cfg, seed=0)


def training_step(model, x):
    logits, cache = model.forward_cached(x)
    model.zero_grad()
    model.backward(cache, np.ones_like(logits))
    return cache


class TestSpentCache:
    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_model_backward_consumes_its_cache(self, variant):
        model = small_model(variant)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        cache = training_step(model, x)
        assert cache == {}
        with pytest.raises(SpentCacheError):
            model.backward(cache, np.ones((2, 10), dtype=np.float32))

    def test_rec_backward_consumes_its_cache(self, rng):
        m = RecModule.create(2, 2, 3, 3, rng=np.random.default_rng(0), dtype=np.float64)
        x = rng.standard_normal((2, 6, 4, 4))
        y, cache = rec_forward_cached(x, m)
        rec_backward(x, m, np.ones_like(y), cache, y)
        assert cache == {}
        with pytest.raises(SpentCacheError):
            rec_backward(x, m, np.ones_like(y), cache, y)

    def test_rec_backward_shape_error_leaves_the_cache_usable(self, rng):
        m = RecModule.create(2, 2, 3, 3, rng=np.random.default_rng(0), dtype=np.float64)
        x = rng.standard_normal((2, 6, 4, 4))
        y, cache = rec_forward_cached(x, m)
        g = rng.standard_normal(y.shape)
        with pytest.raises(ShapeError):
            rec_backward(x, m, g[:, :2], cache, y)
        with pytest.raises(ShapeError):
            rec_backward(x[:, :4], m, g, cache, y)
        with pytest.raises(ShapeError):
            rec_backward(x, m, g, cache, y[:, :2])
        assert set(cache) == {"crc", "tb"}
        grad_x = rec_backward(x, m, g, cache, y)
        _, fresh = rec_forward_cached(x, m)
        assert np.array_equal(grad_x, rec_backward(x, m, g, fresh, y))

    def test_model_backward_shape_error_leaves_the_cache_usable(self):
        model = small_model(CrcVariant.SEPARATE_BN_RELU)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        logits, cache = model.forward_cached(x)
        model.zero_grad()
        with pytest.raises(ShapeError):
            model.backward(cache, np.ones((2, 3), dtype=np.float32))
        model.backward(cache, np.ones_like(logits))
        assert cache == {}

    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_crc_backward_consumes_its_cache(self, variant, rng):
        p = random_crc(variant, np.float64)
        x = rng.standard_normal((2, p.c_in, 4, 4))
        y, cache = crc_forward_cached(x, p)
        crc_backward(x, p, np.ones_like(y), cache)
        assert cache == {}
        with pytest.raises(SpentCacheError):
            crc_backward(x, p, np.ones_like(y), cache)


def cache_bytes(cache):
    """Bytes of the distinct base buffers of every array reachable from
    cache, each counted once however many views reach it."""
    bases = {}
    stack = [cache]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return sum(b.nbytes for b in bases.values())


def analytic_cache_bytes(model, n):
    """Bytes of what backward reads, float32: the input; the stem's
    pre-activation and BN statistics; per module every CRC step's
    pre-activation and, for every variant but ReLU, the batch statistics of
    the BN that normalizes the step (the linear variant's output BN
    restricted to the step's channels), and the transition block's
    pre-activation and statistics; the classifier input. No post-activation:
    the stem output, the module inputs and outputs and the pooling results
    are rebuilt, the pooling indices with them."""
    cfg = model.cfg
    size = cfg.in_size
    a1 = cfg.s1 * cfg.d1
    floats = n * cfg.in_channels * size ** 2 + n * a1 * size ** 2 + 2 * a1
    for i, mod in enumerate(model.modules):
        crc, c_out = mod.crc, mod.tb.c_out
        floats += n * crc.c_out * size ** 2
        if crc.variant is not CrcVariant.RELU:
            floats += 2 * crc.c_out
        floats += n * c_out * size ** 2 + 2 * c_out
        if i in model._pool_after:
            size //= 2
    floats += n * model.modules[-1].tb.c_out
    return 4 * floats


class TestCacheLayout:
    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_every_variant_caches_one_dict_per_step(self, variant, rng):
        """One layout for all four variants: d step dicts, each with the
        step's pre-activation and, for every variant but ReLU, the batch
        statistics of the BN that normalizes it, and nothing beside them."""
        p = random_crc(variant, np.float64)
        x = rng.standard_normal((2, p.c_in, 4, 4))
        _, cache = crc_forward_cached(x, p)
        keys = {"pre"} if variant is CrcVariant.RELU else {"pre", "mean", "var"}
        assert list(cache) == ["steps"] and len(cache["steps"]) == p.d
        for step in cache["steps"]:
            assert set(step) == keys
            assert step["pre"].shape == (2, p.s_out, 4, 4)
            assert all(step[k].shape == (p.s_out,) for k in keys - {"pre"})


class TestCacheFootprint:
    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_cache_holds_exactly_what_backward_reads(self, variant):
        """A stored post-activation copy, a d*S_out hidden block or any
        other extra buffer makes the sum exceed the analytic count."""
        model = small_model(variant)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        _, cache = model.forward_cached(x)
        assert cache_bytes(cache) == analytic_cache_bytes(model, 2)

    @pytest.mark.parametrize("variant", list(CrcVariant))
    def test_backward_holds_a_few_segments_beside_the_cache(self, variant):
        """The traced peak of rec_backward above what exists when it starts
        stays under six segments (N*S_out*H*W floats), while the module's
        hidden block is twelve: a backward that builds the d*S_out block, or
        its gradient, fails, and so does a sweep that keeps one spent
        segment alive throughout. Segments are about 1 MiB, so the conv
        kernels' L2-sized batch chunks weigh about one segment."""
        n, s_out, d, size = 16, 8, 12, 32
        m = RecModule.create(1, s_out, s_out, d, variant=variant,
                             rng=np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((n, d, size, size))
        y, cache = rec_forward_cached(x, m)
        g = rng.standard_normal(y.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rec_backward(x, m, g, cache, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        segment = n * s_out * size * size * 8
        assert peak < 6 * segment, peak / segment
