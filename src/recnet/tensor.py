"""Parameter containers and the forward/backward primitives.

Everything operates on NumPy arrays laid out (N, C, H, W), row-major with W
fastest. Convolution is cross-correlation (no kernel flip), stride 1, with
odd kernels padded by ((kh-1)/2, (kw-1)/2) so that it keeps H x W;
downsampling happens only in pooling layers. Each differentiable op comes
as a `*_forward` / `*_backward` pair; backward functions are pure and
return gradients, callers accumulate them into parameter buffers.

Convolution runs as BLAS GEMMs over shifted views (im2col + GEMM,
Chellapilla, Puri and Simard 2006, without materializing the patches where
it can avoid it). The input is zero-padded once into a buffer
(N, C, Hp*Wp + kw - 1) whose padded rows of width Wp = W + kw - 1 lie end
to end. For kernel tap (u, v) the inputs of every output position are then
the contiguous slice starting at u*Wp + v, of length H*Wp: a strided view
that np.matmul hands to BLAS without a copy. Each output row comes out Wp
wide; its last Wp - W columns read across a row boundary and are dropped.
The batch is padded and multiplied in chunks of samples sized from the
call's shapes, so that a chunk's buffers stay in a core's L2 cache while
every tap reads them. The forward also takes its input as a tuple of arrays
whose channels it reads as one concatenation, copied part by part into the
padded buffer: this is how a recurrence step convolves [x_i; h_{i-1}]
without forming it.

Every call runs on the calling thread alone. A data-parallel training
step (workers.py) runs the same calls on contiguous slices of the batch,
one per process, and every sum over the batch axis goes through one hook,
_batch: batch norm's sums over samples (_batch_sums, which gathers every
slice's per-sample rows and hands back their sum), and the bias and weight
gradients (_along_batch, a fold along the slices in batch order). Each
combines the slices' parts in the order the one-slice code adds them, so
every result is bit-identical for any slice count. Outside a step the
hook is idle: a call's arrays are the whole batch, and each of its sums is
the plain NumPy reduction, with nothing built for the hook. Importing
recnet starts no thread and no process.

The forward pass picks its GEMM shape from K = C_in*kh*kw. For large K it
runs one GEMM per tap, each with the full C_in reduction, and accumulates
them. For small K, per-tap GEMMs are too thin to run near the BLAS roof, so
the kh*kw tap views are stacked into one (N, K, H*Wp) matrix and a single
GEMM runs over all of K. 1x1 kernels need no padding and are one batched
matmul over the input itself.

The weight gradient multiplies grad_out, widened to Wp columns with zeros
in the dropped ones, by each tap view. The input gradient is the forward
convolution of grad_out with the spatially flipped, in/out-transposed
kernel at the same padding, so it runs through the same kernel.

Batch norm reduces each channel over the rows of the (N, C, H*W) view that
a C-contiguous activation reshapes to without a copy: a pairwise sum along
every row for the mean, one dot product per row for the variance and for
the backward's sum of g*(x - mean), each then summed over N. The centred
input x - mean is the only full-size temporary. The forward's output and
the backward's input gradient are built in its buffer by per-channel
scale and shift passes, so neither x_hat nor gamma*g is ever formed. A
call is a few whole-array NumPy calls; only the per-sample row sums and
dots go through the hook, which makes them the whole batch's in a step. A
forward given a cache is training's and hands it its batch mean and
variance; one without reads the running statistics. The backward reads
them from the cache instead of reducing x again, and batchnorm_replay
rebuilds the forward's output from them bit for bit, which is how
training recomputes activations instead of storing them.
Backward functions that take a training cache consume it: consume pops
what they read, so a second backward on the same cache raises
SpentCacheError.

Max pooling reads a 2x2 window's four cells through the strided views
x[:, :, i::2, j::2], without copying them into a window-major tile, and
keeps one int8 index per output cell. Its backward writes each cell's view
of the new input gradient once.
"""

import threading

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


class BnState:
    """Batch-normalization state for one channel group.

    gamma/beta are trainable; running_mean/running_var are updated by every
    training forward as `running <- momentum * running + (1 - momentum) *
    batch` and are the only statistics inference reads. Normalization uses
    the population (biased) variance. eps and momentum are the usual fixed
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

    @property
    def channels(self):
        return self.gamma.data.shape[0]


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


# Largest K = C_in*kh*kw for which conv forward stacks its tap views into
# one (N, K, H*Wp) matrix and runs a single GEMM. Above it, kh*kw GEMMs over
# the views plus their accumulation passes beat the copy into the stack. On
# one x86-64 core in float32, batch 64, the two cross between K = 90 and 144.
_STACK_MAX_K = 128

# Bytes of padded input, stacked taps and partial output that one batch
# chunk may touch. Chunks that stay in a 2 MiB per-core L2 cache ran the
# reference network's convs 1.3x faster than whole-batch GEMMs; 1-2 MiB
# chunks were fastest, 256 KiB and 4 MiB both slower.
_CHUNK_BYTES = 1 << 20


class _Batch(threading.local):
    """Where this thread's calls sit in the batch that their sums run over.

    Outside a data-parallel training step a call's arrays hold the whole
    batch: start is 0 and exchange None. workers.py sets both on the
    thread that runs one slice of a step, the caller's or a worker's:
    start is the slice's first sample in the batch, and exchange connects
    the slices for _batch_sums and _along_batch."""

    start = 0
    exchange = None


_batch = _Batch()


def _along_batch(fold):
    """A sum over the batch as a fold along its slices: fold(carry) runs
    once in every slice, in batch order, carry being the previous slice's
    result and None at the first. Returns the last slice's result, the
    caller's in a step; outside a step, fold(None).

    NumPy adds the samples of most sums one after another, so a slice can
    go on from where the previous one stopped and reach the one-slice
    code's bits. A slice does its heavy work before calling this, so that
    only the fold waits for the previous slice."""
    if _batch.exchange is None:
        return fold(None)
    return _batch.exchange.along(fold)


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


def _check_conv(parts, w):
    """Validate a conv call's shapes; the kernel must be odd both ways."""
    c_in, kh, kw = w.shape[1:]
    c = sum(p.shape[1] for p in parts)
    if c != c_in:
        raise ShapeError(f"conv2d channel mismatch: input C={c}, kernel C_in={c_in}")
    if 0 in parts[0].shape[2:]:
        raise ShapeError(f"conv2d input has an empty spatial dim: {parts[0].shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"same padding undefined for even kernel ({kh}x{kw})")


def _batch_chunks(n, sample_bytes, start=0):
    """(first, sl) for each chunk of a call's n samples, each chunk touching
    about _CHUNK_BYTES: the chunks of a batch in which the call's samples
    begin at sample `start`, cut at the call's ends; first is the chunk's
    first sample in the batch and sl the call's share of it."""
    step = max(1, _CHUNK_BYTES // sample_bytes)
    return [(first, slice(max(first - start, 0), first - start + step))
            for first in range(start - start % step, start + n, step)]


def _flat_padded(parts, kh, kw, dtype):
    """The channel concatenation of parts, zero-padded for a (kh, kw)
    kernel, each channel's rows laid end to end.

    Returns a buffer (N, C, Hp*Wp + kw - 1) with Hp = H + kh - 1 and
    Wp = W + kw - 1. The kw - 1 trailing zeros keep the last tap's slice in
    bounds. Under a 1x1 kernel a single part comes back as a view of itself.
    """
    n, _, h, w = parts[0].shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    hp, wp = h + kh - 1, w + kw - 1
    if len(parts) == 1 and kh == kw == 1:
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


def _conv(parts, w, add_to=None):
    """Same-padded cross-correlation of the channel concatenation of parts,
    on validated shapes; added chunk by chunk into add_to when given.

    Output row r lands at flat positions r*Wp .. r*Wp + Wp - 1; the last
    Wp - W of them mix the row's end with the next row's start and are
    dropped when each chunk is copied into the result.
    """
    n, _, h, wd = parts[0].shape
    c_out, c_in, kh, kw = w.shape
    dtype = np.result_type(*parts, w)
    wp = wd + kw - 1
    m = h * wp
    k = c_in * kh * kw
    stacked = kh * kw > 1 and k <= _STACK_MAX_K
    if stacked:
        w_gemm = w.reshape(c_out, k).astype(dtype, copy=False)
    else:
        # One (C_out, C_in) block per tap; a w[:, :, u, v] view has a
        # stride in C_in that BLAS cannot take.
        w_gemm = w.transpose(2, 3, 0, 1).reshape(kh * kw, c_out, c_in).astype(dtype, copy=False)
    y = np.empty((n, c_out, h, wd), dtype=dtype) if add_to is None else add_to

    for _, sl in _batch_chunks(n, dtype.itemsize * m * ((k if stacked else c_in) + 2 * c_out)):
        xp = _flat_padded([p[sl] for p in parts], kh, kw, dtype)
        taps = list(_tap_views(xp, kh, kw, wp, m))
        if stacked:
            part = np.matmul(w_gemm, np.stack(taps, axis=2).reshape(len(xp), k, m))
        else:
            part = np.matmul(w_gemm[0], taps[0])
            tmp = None
            for w_tap, tap in zip(w_gemm[1:], taps[1:]):
                tmp = np.matmul(w_tap, tap, out=tmp)
                part += tmp
        part = part.reshape(-1, c_out, h, wp)[..., :wd]
        if add_to is None:
            y[sl] = part
        else:
            y[sl] += part
    return y


def _open_sum(products):
    """The samples of an unfinished chunk as the next share goes on from
    them: their sum over axis 0, kept as one sample, except for 1x1
    products, which NumPy adds pairwise, so they go on as they are."""
    return products.sum(axis=0, keepdims=True) if products[0].size > 1 else products


def _conv_grad_w(x, g, kh, kw):
    """Weight gradient: each tap view of the padded x against grad_out
    widened to Wp columns, the extra columns zero.

    Each chunk's per-tap sums over its samples are added into the result in
    chunk order. In a data-parallel step the chunks are the whole batch's
    and the result is a fold along the slices (_along_batch): a slice adds
    the chunks it ends to the previous slice's result, and hands its last
    chunk on unfinished when it goes on into the next slice."""
    n, c_in, h, wd = x.shape
    c_out = g.shape[1]
    wp = wd + kw - 1
    m = h * wp
    start, in_step = _batch.start, _batch.exchange is not None
    shares = []
    for first, sl in _batch_chunks(n, g.dtype.itemsize * m * (c_in + c_out), start):
        xp = _flat_padded([x[sl]], kh, kw, g.dtype)
        gs = g[sl]
        if wp != wd:
            gs = np.zeros((len(xp), c_out, h, wp), dtype=g.dtype)
            gs[..., :wd] = g[sl]
        gs = gs.reshape(-1, c_out, m)
        # outside a step the call holds the whole batch: no chunk goes on
        head, tail = first < start, in_step and sl.stop > n
        taps = [np.matmul(gs, tap.transpose(0, 2, 1)) for tap in _tap_views(xp, kh, kw, wp, m)]
        if not head:
            taps = [_open_sum(t) if tail else t.sum(axis=0) for t in taps]
        shares.append((head, tail, taps))

    def fold(carry):
        grad_w, unfinished = carry or (np.zeros((kh * kw, c_out, c_in), dtype=g.dtype), None)
        for head, tail, taps in shares:
            if head:
                taps = [np.concatenate([u, t]) for u, t in zip(unfinished, taps)]
                taps = [_open_sum(t) if tail else t.sum(axis=0) for t in taps]
            unfinished = taps if tail else None
            if not tail:
                for t, tap_sum in enumerate(taps):
                    grad_w[t] += tap_sum
        return grad_w, unfinished

    grad_w, unfinished = _along_batch(fold)
    for t, tap in enumerate(unfinished or ()):
        grad_w[t] += tap.sum(axis=0)
    return np.ascontiguousarray(grad_w.transpose(1, 2, 0)).reshape(c_out, c_in, kh, kw)


def conv2d_forward(x, w, bias=None, add_to=None):
    """Same-padded, stride-1 cross-correlation of x (N,C_in,H,W) with
    w (C_out,C_in,kh,kw), odd both ways; the output is (N, C_out, H, W).

    x may also be a tuple of (N, C_j, H, W) arrays whose channels add up to
    C_in; the conv then reads their concatenation along channels, which is
    never formed: each part is copied straight into the padded buffer. An
    even kernel raises ConfigError. The result is a new C-contiguous array
    of dtype np.result_type(x, w), or, when add_to is given, is added into
    add_to (an array of the output's shape and dtype), which is returned.
    """
    parts, w = _conv_parts(x), _as_array(w)
    _check_conv(parts, w)
    c_out = w.shape[0]
    if add_to is not None:
        shape = (len(parts[0]), c_out) + parts[0].shape[2:]
        dtype = np.result_type(*parts, w)
        if add_to.shape != shape or add_to.dtype != dtype:
            raise ShapeError(f"add_to {add_to.shape} {add_to.dtype} != output {shape} {dtype}")
    y = _conv(parts, w, add_to)
    if bias is not None:
        bias = _as_array(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
        y += bias[:, None, None]
    return y


def conv2d_backward(x, w, grad_out, need_grad_x=True):
    """Gradients of conv2d_forward wrt x and w; returns (grad_x, grad_w).

    grad_x is the same-padded conv of grad_out with the spatially flipped,
    in/out-transposed kernel; it is None when need_grad_x is False. grad_x
    and grad_w have dtype np.result_type(x, w). An even kernel raises
    ConfigError. The bias gradient is grad_out summed over (N, H, W); most
    callers carry no bias, so the few that do sum it themselves.
    """
    x, w = _as_array(x), _as_array(w)
    _check_conv(_conv_parts(x), w)
    grad_out = np.asarray(grad_out)
    expect = (len(x), w.shape[0]) + x.shape[2:]
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output shape {expect}")

    g = grad_out.astype(np.result_type(x, w), copy=False)
    grad_w = _conv_grad_w(x, g, *w.shape[2:])
    grad_x = _conv([g], w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) if need_grad_x else None
    return grad_x, grad_w


def _channel_rows(x):
    """x as (N, C, H*W): one contiguous row per sample and channel."""
    return x.reshape(x.shape[0], x.shape[1], -1)


def _sum_rows(a):
    """Sum of the rows of an (n, C) array, added in sequence: NumPy's own
    sum adds pairwise when C = 1, so a channel's BN statistics would hang
    on C."""
    return np.add.accumulate(a, axis=0)[-1]


def _row_sums(x):
    """Sums of the (sample, channel) rows of x: an (N, C) array."""
    return _channel_rows(x).sum(axis=2)


def _row_dots(a, b):
    """Dot products of the (sample, channel) rows of a with those of b."""
    return np.einsum("ncm,ncm->nc", _channel_rows(a), _channel_rows(b))


def _batch_sums(*rows):
    """(N, sums...): the batch's sample count and, for each (n, C) array of
    per-sample rows, its rows summed over the whole batch (_sum_rows).

    In a data-parallel step the caller gathers every slice's rows, runs
    _combine_sums once on them in batch order, so that it computes the very
    sums that the one-slice code does, and sends every worker the result.
    Outside a step this is _sum_rows of each array, and nothing more."""
    if _batch.exchange is None:
        return (len(rows[0]), *map(_sum_rows, rows))
    return _batch.exchange.across(rows, _combine_sums)


def _combine_sums(parts):
    """_batch_sums over parts, each slice's rows, in batch order."""
    return (sum(len(part[0]) for part in parts),
            *(_sum_rows(np.concatenate(blocks)) for blocks in zip(*parts)))


def bias_grad(grad_out):
    """grad_out (N, C, H, W) summed over (N, H, W), the whole batch's in a
    data-parallel step, bit for bit as grad_out.sum(axis=(0, 2, 3)).

    NumPy adds C >= 2 channels sample after sample, each sample's row
    pairwise, as _sum_rows does, so in a step the slices fold their row
    sums along the batch. One channel it adds pairwise over all of
    (N, H, W), so there the slices hand on their whole arrays. Outside a
    step this is that one NumPy sum."""
    grad_out = np.asarray(grad_out)
    if _batch.exchange is None:
        return grad_out.sum(axis=(0, 2, 3))
    if grad_out.shape[1] > 1:
        rows = _row_sums(grad_out)
        return _along_batch(lambda carry: _sum_rows(rows if carry is None
                                                    else np.concatenate([carry[None], rows])))
    return _along_batch(lambda carry: grad_out if carry is None
                        else np.concatenate([carry, grad_out])).sum(axis=(0, 2, 3))


def _batch_stats(x, dtype, out=None):
    """(mean, x - mean, population variance) of each channel over (N, H, W)
    of the whole batch.

    The centred array is written to out, or to a new C-contiguous array of
    the given dtype; the callers build their results in its buffer.
    """
    n, sums = _batch_sums(_row_sums(x))
    m = n * x.shape[2] * x.shape[3]
    mean = sums / m
    xc = np.empty(x.shape, dtype=dtype) if out is None else out
    np.subtract(x, mean[:, None, None], dtype=dtype, out=xc)
    return mean, xc, _batch_sums(_row_dots(xc, xc))[1] / m


def _bn_scale_shift(y, gamma, beta, var, eps):
    """The training forward's batch norm finished in place on the centred
    input y: y * gamma/sqrt(var + eps) + beta."""
    y *= (gamma / np.sqrt(var + eps))[:, None, None]
    y += beta[:, None, None]
    return y


def batchnorm_forward(x, s, out=None, stats=None):
    """Normalize per channel, then affine-transform.

    stats alone decides which statistics are used. Given stats, a dict, this
    is the training forward: it standardizes by batch statistics over
    (N, H, W), folds them into the running statistics, in place, and stores
    the batch mean and variance in stats under "mean" and "var" for
    batchnorm_backward and batchnorm_replay. Without stats it is the
    inference forward: it uses the running statistics only and changes
    nothing. Both apply one per-channel scale and shift: training to the
    centred input, y = (x - mean) * gamma*inv + beta, inference to the input
    itself, y = x * gamma*inv + (beta - mean*gamma*inv), with
    inv = 1/sqrt(var + eps). y is written to out when given (out may be x
    itself, for callers that no longer need x), else to a new C-contiguous
    array. In a data-parallel step the batch statistics are the whole
    batch's; each slice checks N*H*W >= 2 on its own samples.
    """
    x = _as_array(x)
    gamma, beta, r_mean, r_var = s.gamma.data, s.beta.data, s.running_mean, s.running_var
    if x.shape[1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm channel mismatch: x C={x.shape[1]}, state {gamma.shape[0]}")
    dtype = np.result_type(x, gamma)
    if stats is None:
        scale = gamma / np.sqrt(r_var + s.eps)
        y = np.multiply(x, scale[:, None, None], dtype=dtype, out=out)
        y += (beta - r_mean * scale)[:, None, None]
        return y
    if x.shape[0] * x.shape[2] * x.shape[3] < 2:
        raise ConfigError("batchnorm training needs N*H*W >= 2 per channel")
    mean, y, var = _batch_stats(x, dtype, out)
    s.running_mean[:] = s.momentum * r_mean + (1.0 - s.momentum) * mean
    s.running_var[:] = s.momentum * r_var + (1.0 - s.momentum) * var
    stats["mean"], stats["var"] = mean, var
    return _bn_scale_shift(y, gamma, beta, var, s.eps)


def batchnorm_replay(x, s, stats, out=None):
    """The training forward's output for x once more, bit for bit, from the
    statistics it stored in stats; the running statistics stay as they
    are."""
    x = _as_array(x)
    gamma = s.gamma.data
    dtype = np.result_type(x, gamma)
    y = np.empty(x.shape, dtype=dtype) if out is None else out
    np.subtract(x, stats["mean"][:, None, None], dtype=dtype, out=y)
    return _bn_scale_shift(y, gamma, s.beta.data, stats["var"], s.eps)


def batchnorm_backward(x, s, grad_out, stats, out=None):
    """Gradients of the training batchnorm_forward; returns (grad_x,
    grad_gamma, grad_beta).

    The batch statistics are functions of x; they are read from stats, the
    dict the training forward filled for this x. With xc = x - mean,
    inv = 1/sqrt(var + eps) and m = N*H*W, the closed form is

        grad_x = gamma*inv * (g - sum(g)/m - xc * inv**2 * sum(g*xc)/m)

    per channel, built in the buffer of xc, the sums and m running over the
    whole batch. The reduction sum(g*xc) runs on the centred input: the
    expanded sum(g*x) - mean*sum(g) cancels in float32 when |mean| is large
    against the spread. grad_x is written to out when given (out may be x
    itself, for callers that no longer need x), else to a new C-contiguous
    array.
    """
    x = _as_array(x)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    gamma = s.gamma.data
    dtype = np.result_type(x, gamma)
    mean, var = stats["mean"], stats["var"]
    inv = 1.0 / np.sqrt(var + s.eps)
    xc = np.empty(x.shape, dtype=dtype) if out is None else out
    np.subtract(x, mean[:, None, None], dtype=dtype, out=xc)
    n, sum_g, sum_gxc = _batch_sums(_row_sums(grad_out), _row_dots(grad_out, xc))
    m = n * x.shape[2] * x.shape[3]
    xc *= (-inv * inv * sum_gxc / m)[:, None, None]
    xc -= (sum_g / m)[:, None, None]
    xc += grad_out
    xc *= (gamma * inv)[:, None, None]
    return xc, sum_gxc * inv, sum_g


def relu(x, out=None):
    """max(x, 0), written to out when given (out may be x itself)."""
    return np.maximum(_as_array(x), 0.0, out=out)


def relu_backward(x, grad_out, out=None):
    """Masks grad_out where x <= 0 (subgradient 0 at exactly 0); written to
    out when given (out may be grad_out itself).

    x may be the ReLU's input z or its output relu(z): relu(z) > 0 exactly
    where z > 0, so callers keep only the output for the mask.
    """
    return np.multiply(np.asarray(grad_out), _as_array(x) > 0.0, out=out)


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
