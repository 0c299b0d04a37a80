"""Channel-wise recurrent convolutional layer.

The layer splits its input channels into d segments of S_in channels and
runs them through a convolutional recurrence with shared weights:

    h_0 = sigma(x_0 * W_x + b)
    h_i = sigma(x_i * W_x + h_{i-1} * W_h + b)        i = 1 .. d-1

(* is same-padded cross-correlation). The output is the concatenation of
the d hidden segments, each S_out channels wide. Four non-linearity
variants are supported; the linear-recurrence variant additionally admits
an unrolled computation form built from composed kernels, and a
grouped-shared baseline replaces the recurrence with an independent
per-segment W_x -> W_h chain at identical parameter cost.

iter_hidden_segments is the one recurrence driver; the layer's forward, the
training cache and both transition-block forms in rec.py run through it.
It runs step i >= 1 as one convolution of [x_i; h_{i-1}] with the kernel
[W_x | W_h], so K = S_in*k^2 + S_out*k^2, and writes each output segment
y_i into a block of g segments that the caller consumes before the next
block is computed. The backward keeps one convolution per weight.

Every variant runs one step contract. Step i's sigma takes the
pre-activation pre_i, writes y_i into its output slice and returns h_i, the
state step i+1 reads: y_i itself, except for the linear variant, whose
recurrence carries pre_i. Batch norm is per channel, so the linear
variant's one BN over the d*S_out output channels is d independent BNs of
S_out channels, one per segment; the layer keeps them as one BN state per
step, like the separate-BN variant, and step i's sigma is its state's
BN + ReLU (step_bn). The variants differ only in their BN states (none, one
shared, or one per step), their bias and their carry rule.

The training cache holds what the backward cannot rebuild cheaply: each
step's pre-activation and, for every variant but ReLU, its BN batch
statistics. It holds no hidden states. crc_backward sweeps the segments in
reverse, one at a time: it rebuilds each output segment from the cache, bit
for bit, through the same per-step non-linearity the forward ran, asks the
caller for the cotangent of that output segment, and drops each step once
it has been read. The backward creates no d*S_out-wide array.

The entry point picks batch norm's mode: a forward that keeps a training
cache normalizes by batch statistics and folds them into the running
statistics; every other forward reads the running statistics alone.
"""

import enum

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    BnState,
    ConvKernel,
    Param,
    _as_array,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    bias_grad,
    consume,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
)


class CrcVariant(enum.Enum):
    RELU = "relu"
    SHARED_BN_RELU = "shared_bn_relu"
    SEPARATE_BN_RELU = "separate_bn_relu"
    LINEAR = "linear"


# Variants whose recurrence carries an explicit bias vector. The BN variants
# drop it because the normalization's beta absorbs any constant shift.
_BIAS_VARIANTS = (CrcVariant.RELU, CrcVariant.LINEAR)


class CrcParams:
    """Weights and hyper-parameters of one CRC layer, He-initialized.

    The layer maps d*s_in input channels to d*s_out output channels using a
    single (s_out, s_in, k_x, k_x) input kernel and a single
    (s_out, s_out, k_h, k_h) hidden kernel shared across all d steps, so the
    convolution weight count is independent of d. The variant fixes the rest
    of the parameter set: a bias (relu, linear) and the BN states, one per
    step (separate-BN, linear), one shared by every step (shared-BN) or none
    (relu). The kernels draw from a zero-mean normal with std
    sqrt(2/fan_in), W_x before W_h; the bias starts at zero and BN at
    identity.
    """

    def __init__(self, s_in, s_out, d, k_x=3, k_h=3, variant=CrcVariant.SEPARATE_BN_RELU,
                 rng=None, dtype=None):
        if d <= 0:
            raise ConfigError(f"segment count d must be positive, got {d}")
        if s_in <= 0 or s_out <= 0:
            raise ConfigError(f"segment widths must be positive, got ({s_in}, {s_out})")
        rng = rng or np.random.default_rng()
        dtype = dtype or np.float32
        self.s_in, self.s_out, self.d = int(s_in), int(s_out), int(d)
        self.k_x, self.k_h = int(k_x), int(k_h)
        self.variant = variant
        self.w_x = ConvKernel(rng.normal(0.0, np.sqrt(2.0 / (s_in * k_x * k_x)),
                                         (s_out, s_in, k_x, k_x)).astype(dtype))
        self.w_h = ConvKernel(rng.normal(0.0, np.sqrt(2.0 / (s_out * k_h * k_h)),
                                         (s_out, s_out, k_h, k_h)).astype(dtype))
        self.bias = Param(np.zeros(s_out, dtype=dtype)) if variant in _BIAS_VARIANTS else None
        self.bns = None
        if variant in (CrcVariant.SEPARATE_BN_RELU, CrcVariant.LINEAR):
            self.bns = [BnState(s_out, dtype=dtype) for _ in range(d)]
        elif variant is CrcVariant.SHARED_BN_RELU:
            self.bns = [BnState(s_out, dtype=dtype)]

    @property
    def c_in(self):
        return self.d * self.s_in

    @property
    def c_out(self):
        return self.d * self.s_out

    def named_bn_states(self, prefix=""):
        """(name, BnState) pairs: bn0 .. bn{d-1}, bn0 alone, or none."""
        for i, s in enumerate(self.bns or ()):
            yield f"{prefix}bn{i}", s

    def bn_states(self):
        return [s for _, s in self.named_bn_states()]

    def named_params(self, prefix=""):
        yield prefix + "w_x", self.w_x
        yield prefix + "w_h", self.w_h
        if self.bias is not None:
            yield prefix + "b", self.bias
        for name, s in self.named_bn_states(prefix):
            yield name + ".gamma", s.gamma
            yield name + ".beta", s.beta

    def num_params(self):
        """Exact trainable scalar count of this layer instance."""
        return sum(p.data.size for _, p in self.named_params())


def _check_input(x, p):
    if x.ndim != 4:
        raise ShapeError(f"CRC input must be 4-D, got {x.shape}")
    if x.shape[1] != p.c_in:
        raise ShapeError(
            f"CRC input channels {x.shape[1]} != d*S_in = {p.d}*{p.s_in} = {p.c_in}"
        )


def step_bn(p, i):
    """The BN state that normalizes step i: the step's own, the shared one,
    or None for the ReLU variant."""
    return None if p.bns is None else p.bns[i if len(p.bns) > 1 else 0]


def _carries_pre(p):
    """The carry rule: step i+1 reads h_i = pre_i in the linear variant,
    whose recurrence is linear, and h_i = y_i in the others."""
    return p.variant is CrcVariant.LINEAR


def _step_nonlinearity(p, i, pre, y, stats=None, replay=False):
    """Apply step i's sigma to pre, writing y_i into y; returns h_i.

    The step's BN writes into y and the ReLU then runs in place there, so
    pre is left as it is: the cache and the linear variant's next step read
    it. The BN stores its batch statistics in stats; with replay set it
    instead normalizes by the statistics stats already holds, which rebuilds
    the forward's y_i bit for bit (crc_backward)."""
    state = step_bn(p, i)
    z = pre
    if state is not None:
        if replay:
            z = batchnorm_replay(pre, state, stats, out=y)
        else:
            z = batchnorm_forward(pre, state, out=y, stats=stats)
    relu(z, out=y)
    return pre if _carries_pre(p) else y


def _step_nonlinearity_backward(p, i, grad_y, step, y, carry):
    """Backward of step i's sigma; returns dL/dpre_i given grad_y = dL/dy_i,
    which it overwrites, and carry = dL/dh_i from step i+1 (None at the
    last step).

    The carry joins where h_i leaves the step: at y_i, before the ReLU and
    BN backward, or at pre_i, after them, where the carry rule says h_i is
    pre_i. The ReLU mask comes from the step output y. The BN backward reads
    the step's cached pre-activation and statistics, builds its result in
    the pre-activation's buffer and accumulates the BN's gamma and beta
    gradients."""
    carries_pre = _carries_pre(p)
    if carry is not None and not carries_pre:
        grad_y += carry
    grad = relu_backward(y, grad_y, out=grad_y)
    state = step_bn(p, i)
    if state is not None:
        grad, grad_gamma, grad_beta = batchnorm_backward(step["pre"], state, grad, step,
                                                         out=step["pre"])
        state.gamma.accumulate(grad_gamma)
        state.beta.accumulate(grad_beta)
    if carry is not None and carries_pre:
        grad += carry
    return grad


def step_kernel(p):
    """[W_x | W_h]: one kernel over the channels [x_i; h_{i-1}] of step i.

    When k_x != k_h the smaller kernel sits zero-embedded at the centre of
    the larger one, which leaves its same-padded output unchanged. Built
    from the current weights on every call, since training updates them in
    place.
    """
    k = max(p.k_x, p.k_h)
    w = np.zeros((p.s_out, p.s_in + p.s_out, k, k), dtype=np.result_type(p.w_x.data, p.w_h.data))
    for lo, part in ((0, p.w_x.data), (p.s_in, p.w_h.data)):
        o = (k - part.shape[2]) // 2
        w[:, lo:lo + part.shape[1], o:k - o, o:k - o] = part
    return w


def iter_hidden_segments(x, p, g=None, keep_cache=False):
    """Run the recurrence, yielding (lo, y_B, cache) per block of g segments.

    y_B holds the layer's output channels for segments lo .. lo+g-1 (fewer
    in the last block); g defaults to d, one block holding the whole output.
    Step 0 convolves x_0 with W_x; every later step is one convolution of
    [x_i; h_{i-1}] with step_kernel(p). Each step runs the step contract:
    its sigma writes y_i straight into its slice of the block, so no
    segment is copied or concatenated, and returns h_i, which the next step
    reads: y_i, or pre_i for the linear variant.

    Without keep_cache this is inference, and the block buffer is reused, so
    y_B is valid only until the next block is pulled. With keep_cache it is
    training: every block is a new array and cache holds "steps", one dict
    per step with its pre-activation ("pre") and, for every variant but
    ReLU, its BN batch statistics ("mean", "var").
    """
    x = _as_array(x)
    _check_input(x, p)
    g = p.d if g is None else min(int(g), p.d)
    if g < 1:
        raise ConfigError(f"block size g must be positive, got {g}")
    s_in, s_out = p.s_in, p.s_out
    n, _, hh, ww = x.shape
    dtype = np.result_type(x, p.w_x.data)
    w_step = step_kernel(p) if p.d > 1 else None
    bias = p.bias.data if p.bias is not None else None
    buf = None
    h_prev = None
    for lo in range(0, p.d, g):
        hi = min(lo + g, p.d)
        if buf is None or keep_cache:
            buf = np.empty((n, g * s_out, hh, ww), dtype=dtype)
        block = buf[:, :(hi - lo) * s_out]
        steps = []
        for i in range(lo, hi):
            x_i = x[:, i * s_in:(i + 1) * s_in]
            if i == 0:
                pre = conv2d_forward(x_i, p.w_x, bias=bias)
            else:
                pre = conv2d_forward((x_i, h_prev), w_step, bias=bias)
            y = block[:, (i - lo) * s_out:(i - lo + 1) * s_out]
            if keep_cache:
                steps.append({"pre": pre})
                h_prev = _step_nonlinearity(p, i, pre, y, stats=steps[-1])
            else:
                h_prev = _step_nonlinearity(p, i, pre, y)
        yield lo, block, {"steps": steps} if keep_cache else None


def _step_convs_backward(p, i, x, h_prev, grad_pre, grad_x):
    """Backward of step i's convolutions given dL/dpre_i: writes dL/dx_i into
    grad_x, accumulates the gradients of W_x, W_h and the bias, and returns
    dL/dh_{i-1} (None at step 0, whose h_prev is None)."""
    sl = slice(i * p.s_in, (i + 1) * p.s_in)
    grad_x[:, sl], grad_w = conv2d_backward(x[:, sl], p.w_x, grad_pre)
    p.w_x.accumulate(grad_w)
    if p.bias is not None:
        p.bias.accumulate(bias_grad(grad_pre))
    if h_prev is None:
        return None
    carry, grad_w = conv2d_backward(h_prev, p.w_h, grad_pre)
    p.w_h.accumulate(grad_w)
    return carry


def crc_forward_cached(x, p):
    """Training forward returning (output, cache) for crc_backward."""
    (_, y, cache), = iter_hidden_segments(x, p, keep_cache=True)
    return y, cache


def crc_forward(x, p):
    """Inference output of the layer: the concatenated output segments y_i."""
    (_, y, _), = iter_hidden_segments(x, p)
    return y


def _array_cotangent(grad_out, x, p):
    """The per-segment cotangent of crc_backward for dL/dy given as an array
    of the output's shape: segment i's channels, copied."""
    grad_out = np.asarray(grad_out)
    expect = (x.shape[0], p.c_out, x.shape[2], x.shape[3])
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out {grad_out.shape} must have the output shape {expect}")

    def cotangent(i, _):
        return grad_out[:, i * p.s_out:(i + 1) * p.s_out].copy()
    return cotangent


def crc_backward(x, p, grad_out, cache):
    """Backpropagation through time across the d segments, one segment at a
    time.

    cache is what crc_forward_cached returned for x. grad_out is dL/dy: an
    array of the output's shape, or a function grad_out(i, y_i) that is
    given output segment i and returns dL/dy_i as a new (N, S_out, H, W)
    array, which the sweep adds into. The sweep runs i = d-1 .. 0 through
    the step contract backwards. Step i reuses y_i from step i+1 and
    rebuilds (y_{i-1}, h_{i-1}), bit for bit, from step i-1's cached
    pre-activation and statistics, through the forward's own per-step
    non-linearity; h_{i-1} is y_{i-1}, or the cached pre_{i-1} for the
    linear variant. The gradient flowing into h_i from step i+1 joins where
    h_i left step i. So at most two output segments exist at a time, never
    the d*S_out block.

    Accumulates parameter gradients into the layer's buffers (shared
    weights collect contributions from every step) and returns grad_x. Each
    weight keeps its own backward convolution. The cache is consumed: each
    step is dropped once it has been read, and a second call on the same
    cache raises SpentCacheError.
    """
    x = _as_array(x)
    _check_input(x, p)
    cotangent = grad_out if callable(grad_out) else _array_cotangent(grad_out, x, p)
    steps = consume(cache, "steps")

    def rebuild(i):
        """(y_i, h_i) from step i's cache entry."""
        pre = steps[i]["pre"]
        y = np.empty_like(pre)
        return y, _step_nonlinearity(p, i, pre, y, stats=steps[i], replay=True)

    grad_x = np.empty_like(x)
    carry = None  # gradient flowing into h_i from step i+1 through w_h
    y = rebuild(p.d - 1)[0]
    # Each segment-sized array is dropped as soon as it is spent, so that no
    # more than two output segments and their gradients are alive at once.
    for i in reversed(range(p.d)):
        grad_pre = _step_nonlinearity_backward(p, i, cotangent(i, y), steps.pop(), y, carry)
        del y, carry
        y, h_prev = rebuild(i - 1) if i > 0 else (None, None)
        carry = _step_convs_backward(p, i, x, h_prev, grad_pre, grad_x)
        del grad_pre, h_prev
    if p.d == 1 and p.w_h.grad is None:
        # d=1 never exercises w_h; keep a zero buffer so every parameter
        # reports a gradient after backward.
        p.w_h.accumulate(np.zeros_like(p.w_h.data))
    return grad_x


def compose_kernels(later, earlier):
    """Kernel of the map x -> (x * earlier) * later on an unbounded domain.

    For cross-correlation, chaining two kernels composes them by a full
    spatial convolution with channel contraction; the result has side
    k_earlier + k_later - 1.
    """
    later = _as_array(later)
    earlier = _as_array(earlier)
    q, o, kbh, kbw = later.shape
    o2, c, kah, kaw = earlier.shape
    if o != o2:
        raise ShapeError(f"kernel channel mismatch: {later.shape} o {earlier.shape}")
    out = np.zeros((q, c, kah + kbh - 1, kaw + kbw - 1),
                   dtype=np.result_type(later, earlier))
    for u in range(kbh):
        for v in range(kbw):
            out[:, :, u:u + kah, v:v + kaw] += np.einsum(
                "qo,ocij->qcij", later[:, :, u, v], earlier, optimize=True
            )
    return out


def crc_linear_unrolled(x, p):
    """Unrolled form of the linear recurrence: every output segment is
    computed independently from composed kernels.

        h_i = sum_j x_j * (W_x composed with W_h^(i-j))  +  bias chain

    The composed kernel for lag m has side k_x + m*(k_h - 1). Same-padded
    composition matches the step-by-step recurrence exactly wherever
    zero-padding truncation is not reached (everywhere, for inputs whose
    border is zero; on the interior margin otherwise).
    """
    if p.variant is not CrcVariant.LINEAR:
        raise ConfigError("unrolled evaluation requires the linear variant")
    x = _as_array(x)
    _check_input(x, p)

    # Composed kernels K_m = W_h applied m times after W_x.
    kernels = [p.w_x.data]
    for _ in range(1, p.d):
        kernels.append(compose_kernels(p.w_h.data, kernels[-1]))

    # Bias chains: a constant field b maps through W_h (unbounded domain) to
    # the constant M b, with M the spatial sum of the kernel. Segment i
    # receives sum_{j=0..i} M^j b.
    m_mat = p.w_h.data.sum(axis=(2, 3))
    power = p.bias.data.astype(m_mat.dtype)
    total = power.copy()
    chains = [total.copy()]
    for _ in range(1, p.d):
        power = m_mat @ power
        total = total + power
        chains.append(total)

    segs = []
    for i in range(p.d):
        acc = None
        for j in range(i + 1):
            k = kernels[i - j]
            contrib = conv2d_forward(x[:, j * p.s_in:(j + 1) * p.s_in], k)
            acc = contrib if acc is None else acc + contrib
        acc += chains[i][:, None, None]
        segs.append(relu(batchnorm_forward(acc, p.bns[i])))
    return np.concatenate(segs, axis=1)


def grouped_shared_forward(x, p):
    """Non-recurrent control: each segment independently passes through W_x
    then W_h, then the variant's sigma. No data flows across segments, so
    the map is equivariant to segment permutation, yet the parameter set is
    exactly that of the recurrent layer."""
    x = _as_array(x)
    _check_input(x, p)
    bias = p.bias.data if p.bias is not None else None
    y = np.empty((x.shape[0], p.c_out) + x.shape[2:], dtype=np.result_type(x, p.w_x.data))
    for i in range(p.d):
        x_i = x[:, i * p.s_in:(i + 1) * p.s_in]
        t = conv2d_forward(x_i, p.w_x, bias=bias)
        t = conv2d_forward(t, p.w_h)
        _step_nonlinearity(p, i, t, y[:, i * p.s_out:(i + 1) * p.s_out])
    return y
