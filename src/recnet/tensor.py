"""Parameter containers and the forward/backward primitives.

Everything operates on NumPy arrays laid out (N, C, H, W), row-major with W
fastest. Convolution is cross-correlation (no kernel flip) with stride fixed
at 1; downsampling happens only in pooling layers. Each differentiable op
comes as a `*_forward` / `*_backward` pair; backward functions are pure and
return gradients, callers accumulate them into parameter buffers.

Convolution runs as BLAS GEMMs over shifted views (im2col + GEMM,
Chellapilla, Puri and Simard 2006, without materializing the patches where
it can avoid it). The input is zero-padded once into a buffer
(N, C, Hp*Wp + kw - 1) whose padded rows of width Wp = W + 2*pw lie end to
end. For kernel tap (u, v) the inputs of every output position are then
the contiguous slice starting at u*Wp + v, of length Ho*Wp: a strided view
that np.matmul hands to BLAS without a copy. Each output row comes out Wp
wide; its last Wp - Wo columns read across a row boundary and are dropped.
The batch is padded and multiplied in chunks of samples sized from the
call's shapes, so that a chunk's buffers stay in a core's L2 cache while
every tap reads them. The forward also takes its input as a tuple of arrays
whose channels it reads as one concatenation, copied part by part into the
padded buffer: this is how a recurrence step convolves [x_i; h_{i-1}]
without forming it.

The forward pass picks its GEMM shape from K = C_in*kh*kw. For large K it
runs one GEMM per tap, each with the full C_in reduction, and accumulates
them. For small K, per-tap GEMMs are too thin to run near the BLAS roof, so
the kh*kw tap views are stacked into one (N, K, Ho*Wp) matrix and a single
GEMM runs over all of K. 1x1 kernels need no padding and are one batched
matmul over the input itself.

The weight gradient multiplies grad_out, widened to Wp columns with zeros
in the dropped ones, by each tap view. The input gradient is the forward
convolution of grad_out with the spatially flipped, in/out-transposed
kernel at padding (kh-1-ph, kw-1-pw), so it runs through the same kernel.

Batch norm reduces each channel over the rows of the (N, C, H*W) view that
a C-contiguous activation reshapes to without a copy: a pairwise sum along
every row for the mean, one dot product per row for the variance and for
the backward's sum of g*(x - mean), each then summed over N. The centred
input x - mean is the only full-size temporary. The forward's output and
the backward's input gradient are built in its buffer by per-channel
scale and shift passes, so neither x_hat nor gamma*g is ever formed. A
train-mode forward hands its batch mean and variance to the caller's
cache; the backward reads them from there instead of reducing x again,
and batchnorm_replay rebuilds the forward's output from them bit for bit,
which is how training recomputes activations instead of storing them.
Backward functions that take a training cache consume it: consume pops
what they read, so a second backward on the same cache raises
SpentCacheError.

Max pooling reads a 2x2 window's four cells through the strided views
x[:, :, i::2, j::2], without copying them into a window-major tile, and
keeps one int8 index per output cell. Its backward writes each cell's view
of the new input gradient once.
"""

import numpy as np

from .errors import ConfigError, ShapeError, SpentCacheError


class Param:
    """A trainable array plus its gradient buffer, None until the first
    accumulate.

    Gradient accumulation is additive: `accumulate` allocates the buffer on
    first use and adds into it afterwards, so shared weights (e.g. the
    recurrent kernels applied at every step) collect contributions from all
    call sites.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g):
        g = np.asarray(g)
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None


class ConvKernel(Param):
    """Convolution weights (C_out, C_in, k_h, k_w)."""

    def __init__(self, data):
        data = np.asarray(data)
        if data.ndim != 4:
            raise ShapeError(f"ConvKernel expects 4 dims, got shape {data.shape}")
        if min(data.shape) <= 0:
            raise ShapeError(f"ConvKernel dims must be strictly positive, got {data.shape}")
        super().__init__(data)

    @property
    def c_out(self):
        return self.data.shape[0]

    @property
    def c_in(self):
        return self.data.shape[1]

    @property
    def kh(self):
        return self.data.shape[2]

    @property
    def kw(self):
        return self.data.shape[3]


class BnState:
    """Batch-normalization state for one channel group.

    gamma/beta are trainable; running_mean/running_var are updated in train
    mode as `running <- momentum * running + (1 - momentum) * batch` and are
    the only statistics consulted in eval mode. Normalization uses the
    population (biased) variance. eps and momentum are the usual fixed
    values; dtype is float32 when None.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, channels, dtype=None):
        if channels <= 0:
            raise ConfigError(f"BnState channel count must be positive, got {channels}")
        dtype = dtype or np.float32
        self.gamma = Param(np.ones(channels, dtype=dtype))
        self.beta = Param(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.mode = "train"

    @property
    def channels(self):
        return self.gamma.data.shape[0]

    def eval(self):
        self.mode = "eval"


def _as_array(x):
    return x.data if isinstance(x, Param) else np.asarray(x)


def consume(cache, *keys):
    """Pop keys from a training cache; returns the value of a single key,
    else a tuple. Raises SpentCacheError, popping nothing, when a key is
    gone: a backward has consumed this cache already."""
    missing = [k for k in keys if k not in cache]
    if missing:
        raise SpentCacheError(
            f"training cache lacks {', '.join(map(repr, missing))}: a backward "
            "consumed it already; run the forward again")
    values = tuple(cache.pop(k) for k in keys)
    return values[0] if len(keys) == 1 else values


def _pair(v):
    if isinstance(v, tuple):
        return v
    return (int(v), int(v))


def same_padding(kh, kw=None):
    """Padding that preserves spatial dims for odd kernels; errors on even."""
    kw = kh if kw is None else kw
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"'same' padding undefined for even kernel ({kh}x{kw})")
    return ((kh - 1) // 2, (kw - 1) // 2)


def _resolve_padding(padding, kh, kw):
    if padding == "same":
        return same_padding(kh, kw)
    ph, pw = _pair(padding)
    if ph < 0 or pw < 0:
        raise ConfigError(f"padding must be non-negative, got {(ph, pw)}")
    if ph > kh - 1 or pw > kw - 1:
        raise ConfigError(f"padding {(ph, pw)} exceeds kernel-1 for kernel {(kh, kw)}")
    return ph, pw


# Largest K = C_in*kh*kw for which conv forward stacks its tap views into
# one (N, K, Ho*Wp) matrix and runs a single GEMM. Above it, kh*kw GEMMs over
# the views plus their accumulation passes beat the copy into the stack. On
# one x86-64 core in float32, batch 64, the two cross between K = 90 and 144.
_STACK_MAX_K = 128

# Bytes of padded input, stacked taps and partial output that one batch
# chunk may touch. Chunks that stay in a 2 MiB per-core L2 cache ran the
# reference network's convs 1.3x faster than whole-batch GEMMs; 1-2 MiB
# chunks were fastest, 256 KiB and 4 MiB both slower.
_CHUNK_BYTES = 1 << 20


def _conv_parts(x):
    """The conv input as a list of (N, C_j, H, W) arrays; a tuple or list
    stands for the concatenation of its arrays along channels."""
    parts = [_as_array(p) for p in x] if isinstance(x, (tuple, list)) else [_as_array(x)]
    for p in parts:
        if p.ndim != 4:
            raise ShapeError(f"conv2d input must be 4-D, got {p.shape}")
        if p.shape[0] != parts[0].shape[0] or p.shape[2:] != parts[0].shape[2:]:
            raise ShapeError(f"conv2d input parts disagree: {p.shape} vs {parts[0].shape}")
    return parts


def _check_conv(parts, w, padding):
    """Validate a conv call's shapes; returns the resolved (ph, pw)."""
    c_in, kh, kw = w.shape[1:]
    c = sum(p.shape[1] for p in parts)
    if c != c_in:
        raise ShapeError(f"conv2d channel mismatch: input C={c}, kernel C_in={c_in}")
    ph, pw = _resolve_padding(padding, kh, kw)
    h, wd = parts[0].shape[2:]
    if h + 2 * ph < kh or wd + 2 * pw < kw:
        raise ShapeError(f"input {(h, wd)} smaller than kernel {(kh, kw)} after padding")
    return ph, pw


def _batch_chunks(n, sample_bytes):
    """Slices of the batch axis, each touching about _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // sample_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def _flat_padded(parts, ph, pw, kw, dtype):
    """The channel concatenation of parts, zero-padded by (ph, pw), each
    channel's rows laid end to end.

    Returns a buffer (N, C, Hp*Wp + kw - 1) with Wp = W + 2*pw. The kw - 1
    trailing zeros keep the last tap's slice in bounds. A single part without
    padding and with kw = 1 comes back as a reshaped view of itself.
    """
    n, _, h, w = parts[0].shape
    hp, wp = h + 2 * ph, w + 2 * pw
    if len(parts) == 1 and ph == pw == 0 and kw == 1:
        return parts[0].reshape(n, -1, h * w).astype(dtype, copy=False)
    buf = np.zeros((n, sum(p.shape[1] for p in parts), hp * wp + kw - 1), dtype=dtype)
    inner = buf[:, :, :hp * wp].reshape(n, -1, hp, wp)[:, :, ph:ph + h, pw:pw + w]
    lo = 0
    for p in parts:
        inner[:, lo:lo + p.shape[1]] = p
        lo += p.shape[1]
    return buf


def _tap_views(xp, kh, kw, wp, m):
    """Tap (u, v) of the kernel reads the contiguous slice starting at
    u*Wp + v of every flattened row buffer; yields these (N, C, m) views in
    (u, v) row-major order."""
    for u in range(kh):
        for v in range(kw):
            off = u * wp + v
            yield xp[:, :, off:off + m]


def _conv(parts, w, ph, pw, add_to=None):
    """Stride-1 cross-correlation of the channel concatenation of parts, on
    validated shapes; added chunk by chunk into add_to when given.

    Output row r lands at flat positions r*Wp .. r*Wp + Wp - 1; the last
    Wp - Wo of them mix the row's end with the next row's start and are
    dropped when each chunk is copied into the result.
    """
    n, _, h, wd = parts[0].shape
    c_out, c_in, kh, kw = w.shape
    dtype = np.result_type(*parts, w)
    ho, wo, wp = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1, wd + 2 * pw
    m = ho * wp
    k = c_in * kh * kw
    stacked = kh * kw > 1 and k <= _STACK_MAX_K
    if stacked:
        w_gemm = w.reshape(c_out, k).astype(dtype, copy=False)
    else:
        # One (C_out, C_in) block per tap; a w[:, :, u, v] view has a
        # stride in C_in that BLAS cannot take.
        w_gemm = w.transpose(2, 3, 0, 1).reshape(kh * kw, c_out, c_in).astype(dtype, copy=False)
    y = np.empty((n, c_out, ho, wo), dtype=dtype) if add_to is None else add_to
    for sl in _batch_chunks(n, dtype.itemsize * m * ((k if stacked else c_in) + 2 * c_out)):
        xp = _flat_padded([p[sl] for p in parts], ph, pw, kw, dtype)
        taps = list(_tap_views(xp, kh, kw, wp, m))
        if stacked:
            part = np.matmul(w_gemm, np.stack(taps, axis=2).reshape(len(xp), k, m))
        else:
            part = np.matmul(w_gemm[0], taps[0])
            tmp = np.empty_like(part)
            for w_tap, tap in zip(w_gemm[1:], taps[1:]):
                part += np.matmul(w_tap, tap, out=tmp)
        part = part.reshape(-1, c_out, ho, wp)[..., :wo]
        if add_to is None:
            y[sl] = part
        else:
            y[sl] += part
    return y


def _conv_grad_w(x, g, kh, kw, ph, pw):
    """Weight gradient: each tap view of the padded x against grad_out
    widened to Wp columns, the extra columns zero."""
    n, c_in = x.shape[:2]
    c_out, ho, wo = g.shape[1:]
    wp = x.shape[3] + 2 * pw
    m = ho * wp
    grad_w = np.zeros((kh * kw, c_out, c_in), dtype=g.dtype)
    for sl in _batch_chunks(n, g.dtype.itemsize * m * (c_in + c_out)):
        xp = _flat_padded([x[sl]], ph, pw, kw, g.dtype)
        gs = g[sl]
        if wp != wo:
            gs = np.zeros((len(xp), c_out, ho, wp), dtype=g.dtype)
            gs[..., :wo] = g[sl]
        gs = gs.reshape(-1, c_out, m)
        for t, tap in enumerate(_tap_views(xp, kh, kw, wp, m)):
            grad_w[t] += np.matmul(gs, tap.transpose(0, 2, 1)).sum(axis=0)
    return np.ascontiguousarray(grad_w.transpose(1, 2, 0)).reshape(c_out, c_in, kh, kw)


def conv2d_forward(x, w, bias=None, padding=0, add_to=None):
    """Stride-1 cross-correlation of x (N,C_in,H,W) with w (C_out,C_in,kh,kw).

    x may also be a tuple of (N, C_j, H, W) arrays whose channels add up to
    C_in; the conv then reads their concatenation along channels, which is
    never formed: each part is copied straight into the padded buffer.
    padding may be an int, an (ph, pw) pair, or "same" (odd kernels only).
    Output spatial dims: H - kh + 1 + 2*ph by W - kw + 1 + 2*pw. The result
    is a new C-contiguous array of dtype np.result_type(x, w), or, when
    add_to is given, is added into add_to (an array of the output's shape
    and dtype), which is returned.
    """
    parts, w = _conv_parts(x), _as_array(w)
    c_out = w.shape[0]
    ph, pw = _check_conv(parts, w, padding)
    if add_to is not None:
        n, _, h, wd = parts[0].shape
        shape = (n, c_out, h + 2 * ph - w.shape[2] + 1, wd + 2 * pw - w.shape[3] + 1)
        dtype = np.result_type(*parts, w)
        if add_to.shape != shape or add_to.dtype != dtype:
            raise ShapeError(f"add_to {add_to.shape} {add_to.dtype} != output {shape} {dtype}")
    y = _conv(parts, w, ph, pw, add_to)
    if bias is not None:
        bias = _as_array(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
        y += bias[:, None, None]
    return y


def conv2d_backward(x, w, grad_out, padding=0, need_grad_x=True):
    """Gradients of conv2d_forward wrt x and w; returns (grad_x, grad_w).

    grad_x is the forward conv of grad_out with the spatially flipped,
    in/out-transposed kernel, padded by (kh-1-ph, kw-1-pw); it is None when
    need_grad_x is False. grad_x and grad_w have dtype np.result_type(x, w).
    The bias gradient is grad_out summed over (N, H, W); most callers carry
    no bias, so the few that do sum it themselves.
    """
    x, w = _as_array(x), _as_array(w)
    c_out, _, kh, kw = w.shape
    ph, pw = _check_conv(_conv_parts(x), w, padding)
    grad_out = np.asarray(grad_out)
    expect = (x.shape[0], c_out, x.shape[2] - kh + 1 + 2 * ph, x.shape[3] - kw + 1 + 2 * pw)
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output shape {expect}")

    g = grad_out.astype(np.result_type(x, w), copy=False)
    grad_w = _conv_grad_w(x, g, kh, kw, ph, pw)
    grad_x = None
    if need_grad_x:
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        grad_x = _conv([g], flipped, kh - 1 - ph, kw - 1 - pw)
    return grad_x, grad_w


def _bn_arrays(s, channel_slice):
    if channel_slice is None:
        sl = slice(None)
    else:
        sl = slice(*channel_slice)
    return (
        s.gamma.data[sl],
        s.beta.data[sl],
        s.running_mean[sl],
        s.running_var[sl],
        sl,
    )


def _channel_rows(x):
    """x as (N, C, H*W): one contiguous row per sample and channel."""
    return x.reshape(x.shape[0], x.shape[1], -1)


def _channel_dot(a, b):
    """Per-channel sum of a*b over (N, H, W), one dot product per row."""
    return np.einsum("ncm,ncm->nc", _channel_rows(a), _channel_rows(b)).sum(axis=0)


def _batch_stats(x, dtype, out=None):
    """(mean, x - mean, population variance) of each channel over (N, H, W).

    The centred array is written to out, or to a new C-contiguous array of
    the given dtype; the callers build their results in its buffer.
    """
    m = x.size // x.shape[1]
    mean = _channel_rows(x).sum(axis=2).sum(axis=0) / m
    xc = np.subtract(x, mean[:, None, None], dtype=dtype, out=out)
    return mean, xc, _channel_dot(xc, xc) / m


def _bn_scale_shift(y, gamma, beta, var, eps):
    """Train-mode batch norm finished in place on the centred input y:
    y * gamma/sqrt(var + eps) + beta."""
    y *= (gamma / np.sqrt(var + eps))[:, None, None]
    y += beta[:, None, None]
    return y


def batchnorm_forward(x, s, channel_slice=None, out=None, stats=None):
    """Normalize per channel, then affine-transform.

    The state's mode alone decides which statistics are used. Train mode
    standardizes by batch statistics over (N, H, W) and always folds them
    into the running statistics, in place; when stats is a dict, the batch
    mean and variance are stored in it under "mean" and "var" for
    batchnorm_backward and batchnorm_replay. Eval mode uses the stored
    running statistics only, changes nothing and stores nothing.
    channel_slice=(lo, hi) applies the state to a contiguous channel block,
    which is how the merged computation form normalizes one recurrence
    segment at a time. Both modes apply one per-channel scale and shift:
    train mode to the centred input, y = (x - mean) * gamma*inv + beta, eval
    mode to the input itself,
    y = x * gamma*inv + (beta - mean*gamma*inv), with inv = 1/sqrt(var + eps).
    y is written to out when given (out may be x itself, for callers that no
    longer need x), else to a new C-contiguous array.
    """
    x = _as_array(x)
    gamma, beta, r_mean, r_var, sl = _bn_arrays(s, channel_slice)
    if x.shape[1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm channel mismatch: x C={x.shape[1]}, state {gamma.shape[0]}")
    dtype = np.result_type(x, gamma)
    if s.mode != "train":
        scale = gamma / np.sqrt(r_var + s.eps)
        y = np.multiply(x, scale[:, None, None], dtype=dtype, out=out)
        y += (beta - r_mean * scale)[:, None, None]
        return y
    if x.shape[0] * x.shape[2] * x.shape[3] < 2:
        raise ConfigError("batchnorm train mode needs N*H*W >= 2 per channel")
    mean, y, var = _batch_stats(x, dtype, out)
    s.running_mean[sl] = s.momentum * r_mean + (1.0 - s.momentum) * mean
    s.running_var[sl] = s.momentum * r_var + (1.0 - s.momentum) * var
    if stats is not None:
        stats["mean"], stats["var"] = mean, var
    return _bn_scale_shift(y, gamma, beta, var, s.eps)


def batchnorm_replay(x, s, stats, channel_slice=None, out=None):
    """batchnorm_forward's output for x once more, bit for bit, from the
    statistics its train-mode call stored in stats; the running statistics
    stay as they are. stats covers x's channels: with channel_slice, the
    caller slices it as it slices x. In eval mode this is batchnorm_forward,
    which reads the running statistics and changes nothing."""
    if s.mode != "train":
        return batchnorm_forward(x, s, channel_slice=channel_slice, out=out)
    x = _as_array(x)
    gamma, beta, _, _, _ = _bn_arrays(s, channel_slice)
    y = np.subtract(x, stats["mean"][:, None, None], dtype=np.result_type(x, gamma), out=out)
    return _bn_scale_shift(y, gamma, beta, stats["var"], s.eps)


def batchnorm_backward(x, s, grad_out, stats, channel_slice=None, out=None):
    """Gradients of batchnorm_forward; returns (grad_x, grad_gamma, grad_beta).

    Train mode treats the batch statistics as functions of x; it reads them
    from stats, the dict the forward's train-mode call filled for this x.
    With xc = x - mean, inv = 1/sqrt(var + eps) and m = N*H*W, the closed
    form is

        grad_x = gamma*inv * (g - sum(g)/m - xc * inv**2 * sum(g*xc)/m)

    per channel, built in the buffer of xc. The reduction sum(g*xc) runs on
    the centred input: the expanded sum(g*x) - mean*sum(g) cancels in
    float32 when |mean| is large against the spread. Eval mode ignores
    stats and is the affine-only path:
    grad_x = grad_out * gamma / sqrt(running_var + eps). grad_x is written
    to out when given (out may be x itself, for callers that no longer need
    x), else to a new C-contiguous array.
    """
    x = _as_array(x)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    gamma, _, r_mean, r_var, _ = _bn_arrays(s, channel_slice)
    dtype = np.result_type(x, gamma)
    train = s.mode == "train"
    mean, var = (stats["mean"], stats["var"]) if train else (r_mean, r_var)
    xc = np.subtract(x, mean[:, None, None], dtype=dtype, out=out)
    inv = 1.0 / np.sqrt(var + s.eps)
    sum_g = _channel_rows(grad_out).sum(axis=2).sum(axis=0)
    sum_gxc = _channel_dot(grad_out, xc)
    if train:
        m = x.size // x.shape[1]
        grad_x = xc
        grad_x *= (-inv * inv * sum_gxc / m)[:, None, None]
        grad_x -= (sum_g / m)[:, None, None]
        grad_x += grad_out
        grad_x *= (gamma * inv)[:, None, None]
    else:
        grad_x = np.multiply(grad_out, (gamma * inv)[:, None, None], dtype=dtype, out=out)
    return grad_x, sum_gxc * inv, sum_g


def relu(x, out=None):
    """max(x, 0), written to out when given (out may be x itself)."""
    return np.maximum(_as_array(x), 0, out=out)


def relu_backward(x, grad_out, out=None):
    """Masks grad_out where x <= 0 (subgradient 0 at exactly 0); written to
    out when given (out may be grad_out itself).

    x may be the ReLU's input z or its output relu(z): relu(z) > 0 exactly
    where z > 0, so callers keep only the output for the mask.
    """
    return np.multiply(grad_out, _as_array(x) > 0, out=out)


# Offsets (row, column) of the four cells of a 2x2 pooling window, in the
# row-major order that maxpool2's indices count.
_POOL_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_views(x):
    """The four strided (N, C, H/2, W/2) views, one per window cell."""
    return [x[:, :, i::2, j::2] for i, j in _POOL_CELLS]


def maxpool2(x):
    """Non-overlapping 2x2 max pooling; returns (pooled, argmax indices).

    The int8 index array stores, per output cell, the winning position 0..3
    in row-major window order; ties go to the first scanned element. A
    window holding a NaN pools to NaN, with index 3.
    """
    x = _as_array(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    views = _pool_views(x)
    y = np.maximum(views[0], views[1])
    np.maximum(y, views[2], out=y)
    np.maximum(y, views[3], out=y)
    # The winner's index counts the cells before the first one equal to the
    # max: `before` marks windows where every cell so far differs from it.
    before = views[0] != y
    idx = before.astype(np.int8)
    for view in views[1:3]:
        before &= view != y
        idx += before
    return y, idx


def maxpool2_backward(idx, grad_out, in_shape):
    """Routes each output gradient to its stored argmax position; returns a
    new C-contiguous array."""
    grad_out = np.asarray(grad_out)
    n, c, h, w = in_shape
    if grad_out.shape != (n, c, h // 2, w // 2):
        raise ShapeError(f"grad_out shape {grad_out.shape} != pooled shape {(n, c, h//2, w//2)}")
    grad_x = np.empty((n, c, h, w), dtype=grad_out.dtype)
    for k, view in enumerate(_pool_views(grad_x)):
        np.multiply(grad_out, idx == k, out=view)
    # g * False is -0.0 where g < 0; adding +0.0 turns that into +0.0 and
    # leaves every other value as it is.
    grad_x += 0.0
    return grad_x


def avgpool_global(x):
    """Mean over the full spatial extent; output (N, C, 1, 1)."""
    return _as_array(x).mean(axis=(2, 3), keepdims=True)


def avgpool_global_backward(grad_out, in_shape):
    n, c, h, w = in_shape
    grad_out = np.asarray(grad_out)
    if grad_out.shape != (n, c, 1, 1):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, c, 1, 1)}")
    return np.broadcast_to(grad_out / (h * w), in_shape).copy()


def linear_forward(x, w, b):
    """Affine map of flattened features: (N,F) x (K,F)^T + (K,)."""
    x, w, b = _as_array(x), _as_array(w), _as_array(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shapes incompatible: x {x.shape}, w {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[0]},)")
    return x @ w.T + b


def linear_backward(x, w, grad_out):
    x, w = _as_array(x), _as_array(w)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(x.shape[0], w.shape[0])}")
    return grad_out @ w, grad_out.T @ x, grad_out.sum(axis=0)
