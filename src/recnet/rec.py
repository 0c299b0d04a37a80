"""Recurrent module: a CRC layer followed by a 1x1 transition block.

The transition block mixes the d hidden segments so the next layer's
segments see the whole previous output. Two computation forms produce the
same result:

  naive   y = relu(bn(concat(h_0..h_{d-1}) * A))
  merged  y = relu(bn(sum_i h_i * A_i))

where A_i is the block of A that multiplies segment i. The merged form
accumulates into a single C_out-wide buffer during the recurrence and never
materializes the d*S_out concatenation, which is the memory-relevant form
for inference on wide configurations.
"""

import numpy as np

from . import config
from .crc import CrcParams, CrcVariant, crc_backward, crc_forward_cached, iter_hidden_segments
from .errors import ConfigError, ShapeError
from .tensor import (
    BnState,
    ConvKernel,
    _as_array,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
)


class TransitionBlock:
    """1x1 convolution + BN + ReLU; the convolution carries no bias."""

    def __init__(self, a, bn):
        self.a = a if isinstance(a, ConvKernel) else ConvKernel(a)
        if self.a.kh != 1 or self.a.kw != 1:
            raise ConfigError(f"transition kernel must be 1x1, got {self.a.kh}x{self.a.kw}")
        if bn.channels != self.a.c_out:
            raise ShapeError(f"transition BN covers {bn.channels} channels, kernel outputs {self.a.c_out}")
        self.bn = bn

    @classmethod
    def create(cls, c_in, c_out, rng=None, dtype=None):
        rng = rng or np.random.default_rng()
        dtype = dtype or config.default_dtype()
        a = rng.normal(0.0, np.sqrt(2.0 / c_in), (c_out, c_in, 1, 1)).astype(dtype)
        return cls(ConvKernel(a), BnState(c_out, dtype=dtype))

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

    def num_params(self):
        return sum(p.data.size for _, p in self.named_params())


class RecModule:
    """CRC layer plus transition block, with a selectable computation form."""

    def __init__(self, crc, tb, mode="merged"):
        if tb.c_in != crc.d * crc.s_out:
            raise ConfigError(
                f"transition input {tb.c_in} != d*S_out = {crc.d * crc.s_out}"
            )
        if mode not in ("naive", "merged"):
            raise ConfigError(f"unknown computation mode {mode!r}")
        self.crc = crc
        self.tb = tb
        self.mode = mode

    @classmethod
    def create(cls, s_in, s_out, c_out, d, k_x=3, k_h=3,
               variant=CrcVariant.SEPARATE_BN_RELU, mode="merged", rng=None, dtype=None):
        rng = rng or np.random.default_rng()
        crc = CrcParams.create(s_in, s_out, d, k_x, k_h, variant, rng=rng, dtype=dtype)
        tb = TransitionBlock.create(d * s_out, c_out, rng=rng, dtype=dtype)
        return cls(crc, tb, mode)

    def named_params(self, prefix=""):
        yield from self.crc.named_params(prefix + "crc.")
        yield from self.tb.named_params(prefix + "tb.")

    def bn_states(self):
        return self.crc.bn_states() + [self.tb.bn]

    def num_params(self):
        return self.crc.num_params() + self.tb.num_params()

    def peak_intermediate_channels(self, mode=None):
        """Widest transient channel count between CRC input and module output."""
        mode = mode or self.mode
        if mode == "naive":
            return self.crc.d * self.crc.s_out
        return self.crc.s_out + self.tb.c_out


def _finish(tb, pre, update_running):
    return relu(batchnorm_forward(pre, tb.bn, update_running=update_running))


def rec_forward_naive(x, m, update_running=True):
    """Concatenate all hidden segments, then apply the transition block."""
    h, _ = crc_forward_cached(x, m.crc, update_running)
    pre = conv2d_forward(h, m.tb.a)
    return _finish(m.tb, pre, update_running)


def rec_forward_merged(x, m, update_running=True):
    """Accumulate A_i * h_i step by step; equal to the naive form up to
    floating-point summation order. Accumulation runs in step order 0..d-1."""
    crc, tb = m.crc, m.tb
    s_out = crc.s_out
    acc = None
    for i, h, _ in iter_hidden_segments(x, crc, update_running):
        if crc.variant is CrcVariant.LINEAR:
            # The output-side BN+ReLU is per-channel, so it can be applied
            # one segment slice at a time without forming the concatenation.
            lo = i * s_out
            h = relu(batchnorm_forward(h, crc.out_bn, update_running=update_running,
                                       channel_slice=(lo, lo + s_out)))
        a_i = tb_segment_block(tb.a.data, i, s_out)
        term = conv2d_forward(h, a_i)
        acc = term if acc is None else acc + term
    return _finish(tb, acc, update_running)


def tb_segment_block(a, i, s_out):
    """Block A_i of the transition kernel that multiplies hidden segment i."""
    return a[:, i * s_out:(i + 1) * s_out]


def rec_forward(x, m, update_running=True):
    if m.mode == "naive":
        return rec_forward_naive(x, m, update_running)
    return rec_forward_merged(x, m, update_running)


def rec_forward_cached(x, m, update_running=True):
    """Forward with intermediates retained for backward.

    Training always runs the naive-structured pass (the merged form is an
    inference-memory optimization; both produce the same values up to
    summation order).
    """
    x = _as_array(x)
    h, crc_cache = crc_forward_cached(x, m.crc, update_running)
    pre = conv2d_forward(h, m.tb.a)
    y = _finish(m.tb, pre, update_running)
    return y, {"crc": crc_cache, "h": h, "pre": pre, "y": y}


def rec_backward(x, m, grad_out, cache=None):
    """Gradients through transition block and recurrence.

    Returns (grad_x, {name: grad}) and accumulates into parameter buffers.
    """
    x = _as_array(x)
    grad_out = np.asarray(grad_out)
    if cache is None:
        _, cache = rec_forward_cached(x, m, update_running=False)
    grad_z = relu_backward(cache["y"], grad_out)
    grad_pre, g_gamma, g_beta = batchnorm_backward(cache["pre"], m.tb.bn, grad_z)
    m.tb.bn.gamma.accumulate(g_gamma)
    m.tb.bn.beta.accumulate(g_beta)
    grad_h, g_a, _ = conv2d_backward(cache["h"], m.tb.a, grad_pre)
    m.tb.a.accumulate(g_a)
    grad_x, crc_grads = crc_backward(x, m.crc, grad_h, cache["crc"])
    grads = {"tb.a": g_a, "tb.bn.gamma": g_gamma, "tb.bn.beta": g_beta}
    grads.update({"crc." + k: v for k, v in crc_grads.items()})
    return grad_x, grads
