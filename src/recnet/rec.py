"""Recurrent module: a CRC layer followed by a 1x1 transition block.

The transition block mixes the d hidden segments so the next layer's
segments see the whole previous output:

  y = relu(bn(sum_B h_B * A_B))

where the sum runs over blocks B of g consecutive segments, h_B is their
concatenation and A_B the columns of the transition kernel A that multiply
them. Every form runs the one recurrence driver, crc.iter_hidden_segments,
through rec_forward_blocked, and differs only in g:

  naive   g = d: one GEMM over the whole d*S_out concatenation; training
          runs this form
  merged  g = block_size(m), the smallest g with g*S_out >= 128 (at most
          d): at most g*S_out of the d*S_out hidden channels exist at a
          time, and each block's GEMM still has a reduction long enough
          to run near the BLAS roof

rec_forward runs the form m.mode names. All g give the same result up to
floating-point summation order. Every form is inference, whose batch norm
reads the running statistics, as in crc.py.

Training keeps no hidden block and no post-activation. rec_forward_cached
runs the naive form; its cache holds the CRC layer's cache (per-step
pre-activations and BN statistics) and the transition block's
pre-activation and BN statistics. rec_backward takes the module's output
from its caller, runs the transition block's ReLU and BN backward first and
drops what they read, then hands crc_backward a per-segment cotangent:
for segment i it returns A_i^T g through the transition conv's backward
on h_i alone and accumulates dA_i. So the backward, like the merged form,
never holds the d*S_out hidden block. It consumes the cache as it goes.
"""

import numpy as np

from .crc import (
    CrcParams,
    CrcVariant,
    crc_backward,
    crc_forward_cached,
    iter_hidden_segments,
)
from .errors import ConfigError, ShapeError
from .tensor import (
    _STACK_MAX_K,
    BnState,
    ConvKernel,
    _as_array,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    consume,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
)


class TransitionBlock:
    """1x1 convolution + BN + ReLU from c_in to c_out channels; the
    convolution carries no bias. The kernel draws from a zero-mean normal
    with std sqrt(2/c_in); BN starts at identity."""

    def __init__(self, c_in, c_out, rng=None, dtype=None):
        rng = rng or np.random.default_rng()
        dtype = dtype or np.float32
        self.a = ConvKernel(
            rng.normal(0.0, np.sqrt(2.0 / c_in), (c_out, c_in, 1, 1)).astype(dtype))
        self.bn = BnState(c_out, dtype=dtype)

    @property
    def c_in(self):
        return self.a.c_in

    @property
    def c_out(self):
        return self.a.c_out

    def named_params(self, prefix=""):
        yield prefix + "a", self.a
        yield prefix + "bn.gamma", self.bn.gamma
        yield prefix + "bn.beta", self.bn.beta


class RecModule:
    """CRC layer plus transition block. The mode attribute, "merged" unless
    set to "naive", names the computation form rec_forward runs."""

    def __init__(self, crc, tb):
        if tb.c_in != crc.d * crc.s_out:
            raise ConfigError(
                f"transition input {tb.c_in} != d*S_out = {crc.d * crc.s_out}"
            )
        self.crc = crc
        self.tb = tb
        self.mode = "merged"

    @classmethod
    def create(cls, s_in, s_out, c_out, d, k_x=3, k_h=3,
               variant=CrcVariant.SEPARATE_BN_RELU, rng=None, dtype=None):
        rng = rng or np.random.default_rng()
        crc = CrcParams(s_in, s_out, d, k_x, k_h, variant, rng=rng, dtype=dtype)
        return cls(crc, TransitionBlock(d * s_out, c_out, rng=rng, dtype=dtype))

    @property
    def c_in(self):
        return self.crc.c_in

    def named_params(self, prefix=""):
        yield from self.crc.named_params(prefix + "crc.")
        yield from self.tb.named_params(prefix + "tb.")

    def named_bn_states(self, prefix=""):
        yield from self.crc.named_bn_states(prefix + "crc.")
        yield prefix + "tb.bn", self.tb.bn

    def bn_states(self):
        return [s for _, s in self.named_bn_states()]


def block_size(m):
    """Segments per transition-block GEMM in the merged form: the smallest g
    with g*S_out >= _STACK_MAX_K, the reduction length at which the conv
    kernels switch to per-tap GEMMs, capped at d."""
    return min(m.crc.d, -(-_STACK_MAX_K // m.crc.s_out))


def tb_segment_block(a, i, s_out, count=1):
    """Columns of the transition kernel that multiply hidden segments
    i .. i+count-1."""
    return a[:, i * s_out:(i + count) * s_out]


def _finish(tb, pre, in_place=False, stats=None):
    """The transition block's BN + ReLU; in place on pre when in_place. The
    BN is training's, storing its batch statistics, when stats is given."""
    z = batchnorm_forward(pre, tb.bn, out=pre if in_place else None, stats=stats)
    return relu(z, out=z)


def rec_forward_blocked(x, m, g):
    """Accumulate h_B * A_B over blocks of g segments, in segment order."""
    s_out = m.crc.s_out
    acc = None
    for lo, h_b, _ in iter_hidden_segments(x, m.crc, g):
        a_b = tb_segment_block(m.tb.a.data, lo, s_out, h_b.shape[1] // s_out)
        acc = conv2d_forward(h_b, a_b, add_to=acc)
    return _finish(m.tb, acc, in_place=True)


def rec_forward(x, m):
    """The module's output in the form m.mode names: the naive form (g = d)
    or the merged form (g = block_size(m))."""
    g = m.crc.d if m.mode == "naive" else block_size(m)
    return rec_forward_blocked(x, m, g)


def rec_forward_cached(x, m):
    """Training forward returning (output, cache) for rec_backward; runs the
    naive form (g = d), whose hidden block is the transition GEMM's input. The
    block is dropped once the GEMM has read it: the cache holds the CRC
    cache ("crc") and the transition block's pre-activation and BN
    statistics ("tb"), not the output."""
    x = _as_array(x)
    h, crc_cache = crc_forward_cached(x, m.crc)
    tb = {"pre": conv2d_forward(h, m.tb.a)}
    return _finish(m.tb, tb["pre"], stats=tb), {"crc": crc_cache, "tb": tb}


def rec_output(m, cache):
    """The output rec_forward_cached returned along with cache, rebuilt bit
    for bit from the transition block's cached pre-activation and BN
    statistics; the running statistics stay as they are."""
    tb = cache["tb"]
    y = batchnorm_replay(tb["pre"], m.tb.bn, tb)
    return relu(y, out=y)


def rec_backward(x, m, grad_out, cache, y):
    """Gradients through transition block and recurrence, given the cache
    rec_forward_cached returned for x and the output y it returned, or
    rec_output(m, cache); accumulates into the parameter buffers and
    returns grad_x.

    The transition block's ReLU and BN backward run first, and the BN's
    input gradient g is built in the buffer of the cached pre-activation.
    Then crc_backward's sweep pulls A_i^T g for one hidden segment at a
    time, so no d*S_out-wide array exists. The cache is consumed, and a
    second call on the same cache raises SpentCacheError. Shapes are
    checked before anything is consumed, so a ShapeError leaves the cache
    usable."""
    x = _as_array(x)
    grad_out = np.asarray(grad_out)
    out_shape = (x.shape[0], m.tb.c_out) + x.shape[2:]
    if x.ndim != 4 or x.shape[1] != m.c_in or grad_out.shape != out_shape \
            or y.shape != out_shape:
        raise ShapeError(
            f"input {x.shape}, grad_out {grad_out.shape} and output {y.shape} do not fit "
            f"the module: input channels {m.c_in}, output {out_shape}")
    crc_cache, tb = consume(cache, "crc", "tb")
    grad_z = relu_backward(y, grad_out)
    grad_pre, g_gamma, g_beta = batchnorm_backward(tb["pre"], m.tb.bn, grad_z, tb,
                                                   out=tb["pre"])
    del grad_z
    m.tb.bn.gamma.accumulate(g_gamma)
    m.tb.bn.beta.accumulate(g_beta)
    s_out = m.crc.s_out
    g_a = np.empty_like(m.tb.a.data)

    def cotangent(i, h_i):
        a_i = tb_segment_block(m.tb.a.data, i, s_out)
        grad_h, g_a[:, i * s_out:(i + 1) * s_out] = conv2d_backward(h_i, a_i, grad_pre)
        return grad_h

    grad_x = crc_backward(x, m.crc, cotangent, crc_cache)
    m.tb.a.accumulate(g_a)
    return grad_x
