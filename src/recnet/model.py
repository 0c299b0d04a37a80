"""RecNet assembly and analytic cost accounting.

A network is fully determined by the 7-tuple (e, S1, S2, S3, d1, d2, d3)
plus the class count: a 3x3 stem to S1*d1 channels, three stages of two
recurrent modules each (max-pooling between stages), global average
pooling, and a linear classifier. Every CRC layer expands its segment width
by the factor e (S_out = e * S_in).

The accounting functions reproduce the layer ledger (output channels,
output size, parameters, FLOPs) analytically, without building the network.
One FLOP means one multiply-add; pooling, BN and activations are not
counted. Conventions:

  formula-only      convolution / linear weight matrices only
  with-bn           + batch-norm affine pairs and the classifier bias
  with-bn-and-bias  + every bias vector the parameterization carries
                    (equals the exact trainable scalar count of the
                    built model)
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .crc import CrcVariant
from .errors import ConfigError, ShapeError
from .rec import RecModule, rec_backward, rec_forward, rec_forward_cached, rec_output
from .tensor import (
    BnState,
    ConvKernel,
    Param,
    _as_array,
    avgpool_global,
    avgpool_global_backward,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    consume,
    conv2d_backward,
    conv2d_forward,
    linear_backward,
    linear_forward,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
)
from . import workers

CONVENTIONS = ("formula-only", "with-bn", "with-bn-and-bias")

# Bytes that the activations of the sample blocks in flight in one batch
# slice of an inference forward may take together, a budget like
# tensor._CHUNK_BYTES. Each slice runs in a process of its own, the
# caller's or a worker's (workers.py), so each sizes its blocks from the
# whole budget, whatever the worker count. Larger blocks run stage 3's
# short GEMMs faster and cost their process more memory (README, "Memory
# of inference"). A batch that fits one block runs as one slice, in
# training too.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class RecNetConfig:
    """The 7-tuple plus class count and layer options."""

    e: int
    s1: int
    s2: int
    s3: int
    d1: int
    d2: int
    d3: int
    n_classes: int = 10
    variant: CrcVariant = CrcVariant.SEPARATE_BN_RELU
    k_x: int = 3
    k_h: int = 3
    in_size: int = 32

    in_channels = 3  # images are RGB (data.IMG_SHAPE): a constant, not a field

    def __post_init__(self):
        for name in ("e", "s1", "s2", "s3", "d1", "d2", "d3", "n_classes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.k_x not in (1, 3) or self.k_h not in (1, 3):
            raise ConfigError(f"kernel sizes must be 1 or 3, got ({self.k_x}, {self.k_h})")
        if self.in_size % 4 != 0 or self.in_size < 4:
            raise ConfigError(f"input size must be a positive multiple of 4, got {self.in_size}")

    @property
    def tuple7(self):
        return (self.e, self.s1, self.s2, self.s3, self.d1, self.d2, self.d3)

    @property
    def stage_widths(self):
        """Per-stage (S_i, d_i, S_i*d_i)."""
        return ((self.s1, self.d1, self.s1 * self.d1),
                (self.s2, self.d2, self.s2 * self.d2),
                (self.s3, self.d3, self.s3 * self.d3))

    def arch_string(self):
        return ",".join(str(v) for v in self.tuple7)

    @classmethod
    def from_arch_string(cls, text, **overrides):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 7:
            raise ConfigError(f"architecture needs 7 comma-separated integers, got {len(parts)}: {text!r}")
        values = []
        for name, p in zip(("e", "S1", "S2", "S3", "d1", "d2", "d3"), parts):
            try:
                values.append(int(p))
            except ValueError:
                raise ConfigError(f"field {name} is not an integer: {p!r}") from None
        return cls(*values, **overrides)


def acronym(cfg):
    """RecNet-<depth>-<width>: depth counts both CRC layers of every stage
    (2 * (d1+d2+d3)); width is the widest simulated feature map
    e * max(S_i * d_i)."""
    depth = 2 * (cfg.d1 + cfg.d2 + cfg.d3)
    width = cfg.e * max(a for _, _, a in cfg.stage_widths)
    return f"RecNet-{depth}-{width}"


# ---------------------------------------------------------------------------
# analytic accounting


@dataclass
class LayerLedgerRow:
    name: str
    out_channels: int
    out_h: int
    out_w: int
    params: int
    flops: int


def crc_layer_params(s_in, s_out, d, k_x=3, k_h=3,
                     variant=CrcVariant.SEPARATE_BN_RELU, convention="with-bn"):
    """Parameter count of one CRC layer.

    The convolution weights are k_x^2*S_in*S_out + k_h^2*S_out^2, independent
    of d; only the per-step normalization scales with d.
    """
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}")
    total = k_x * k_x * s_in * s_out + k_h * k_h * s_out * s_out
    if convention == "formula-only":
        return total
    if variant in (CrcVariant.SEPARATE_BN_RELU, CrcVariant.LINEAR):
        total += d * 2 * s_out
    elif variant is CrcVariant.SHARED_BN_RELU:
        total += 2 * s_out
    if convention == "with-bn-and-bias" and variant in (CrcVariant.RELU, CrcVariant.LINEAR):
        total += s_out
    return total


def dense_conv_params(c_in, c_out, k=3):
    """Weight count of the ordinary convolution a CRC layer simulates."""
    return c_in * c_out * k * k


def crc_layer_flops(c_in, c_out, d, h, w, k_x=3, k_h=3):
    """FLOPs of one CRC layer at spatial size h x w, in layer-channel terms:
    H*W*(k_x^2*C_in + k_h^2*C_out)*C_out/d multiply-adds for the two kernels
    plus 2*H*W*C_out additions for the recurrence merge and bias."""
    conv = h * w * (k_x * k_x * c_in + k_h * k_h * c_out) * c_out // d
    return conv + 2 * h * w * c_out


def module_layout(cfg):
    """(S_in, S_out, d, transition outputs, followed by pooling) for each
    recurrent module in order. Each stage has two modules on its S_i*d_i
    channels; the second one's transition block widens to the next stage's
    S*d and, in stages 1 and 2, a max pooling follows it."""
    widths = [a for _, _, a in cfg.stage_widths]
    for stage, (s, d, a) in enumerate(cfg.stage_widths):
        yield s, cfg.e * s, d, a, False
        yield s, cfg.e * s, d, widths[min(stage + 1, 2)], stage < 2


def ledger(cfg, convention="with-bn"):
    """Per-layer rows mirroring the architecture table; returns a list of
    LayerLedgerRow."""
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}")
    bn = convention != "formula-only"
    rows = []
    size = cfg.in_size
    a1 = cfg.s1 * cfg.d1
    stem_params = cfg.in_channels * a1 * 9 + (2 * a1 if bn else 0)
    rows.append(LayerLedgerRow("CONV (3x3) + BN + ReLU", a1, size, size,
                               stem_params, size * size * cfg.in_channels * a1 * 9))

    for s, s_out, d, tb_out, pool in module_layout(cfg):
        c_in, c_out = d * s, d * s_out
        crc_p = crc_layer_params(s, s_out, d, cfg.k_x, cfg.k_h, cfg.variant, convention)
        rows.append(LayerLedgerRow(
            f"CRC ({s}, {s_out}, {d})", c_out, size, size,
            crc_p, crc_layer_flops(c_in, c_out, d, size, size, cfg.k_x, cfg.k_h)))
        tb_p = c_out * tb_out + (2 * tb_out if bn else 0)
        rows.append(LayerLedgerRow(
            f"TB ({c_out}, {tb_out})", tb_out, size, size,
            tb_p, size * size * c_out * tb_out))
        if pool:
            size //= 2
            rows.append(LayerLedgerRow("Max Pooling (2x2)", tb_out, size, size, 0, 0))

    a3 = cfg.s3 * cfg.d3
    rows.append(LayerLedgerRow(f"Average Pooling ({size}x{size})", a3, 1, 1, 0, 0))
    fc_params = a3 * cfg.n_classes
    if convention != "formula-only":
        fc_params += cfg.n_classes
    rows.append(LayerLedgerRow(f"Linear ({a3}, {cfg.n_classes})", cfg.n_classes, 1, 1,
                               fc_params, a3 * cfg.n_classes))
    return rows


def param_count(cfg, convention="with-bn"):
    """(rows, total parameters) for the given counting convention."""
    rows = ledger(cfg, convention)
    return rows, sum(r.params for r in rows)


def flop_count(cfg):
    """(rows, total FLOPs); multiply-add counting, pooling/BN/ReLU free."""
    rows = ledger(cfg)
    return rows, sum(r.flops for r in rows)


def ledger_text(rows, cfg=None):
    lines = []
    if cfg is not None:
        lines.append(f"{acronym(cfg)}  arch={cfg.arch_string()}  classes={cfg.n_classes}")
    header = f"{'layer':<28} {'out_ch':>7} {'out_size':>9} {'params':>12} {'flops':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(f"{r.name:<28} {r.out_channels:>7} {f'{r.out_h}x{r.out_w}':>9} "
                     f"{r.params:>12,} {r.flops:>14,}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<28} {'':>7} {'':>9} {sum(r.params for r in rows):>12,} "
                 f"{sum(r.flops for r in rows):>14,}")
    return "\n".join(lines)


def ledger_csv(rows):
    lines = ["layer,out_channels,out_h,out_w,params,flops"]
    for r in rows:
        name = '"' + r.name.replace('"', '""') + '"' if "," in r.name else r.name
        lines.append(f"{name},{r.out_channels},{r.out_h},{r.out_w},{r.params},{r.flops}")
    return "\n".join(lines)


def _stage_sizes(cfg):
    """Elements per sample of each stage's widest ledger() row, and of each
    max-pooling row; a stage's rows end at its pooling row."""
    widest, pooled = [0], []
    for r in ledger(cfg):
        size = r.out_channels * r.out_h * r.out_w
        widest[-1] = max(widest[-1], size)
        if r.name.startswith("Max Pooling"):
            pooled.append(size)
            widest.append(0)
    return widest, pooled


# ---------------------------------------------------------------------------
# the built network


class RecNetModel:
    """Instantiated network; immutable wiring, mutable parameters."""

    def __init__(self, cfg, rng=None, dtype=None):
        rng = rng or np.random.default_rng()
        dtype = dtype or np.float32
        self.cfg = cfg
        a1 = cfg.s1 * cfg.d1
        self.stem_w = ConvKernel(
            rng.normal(0.0, np.sqrt(2.0 / (cfg.in_channels * 9)),
                       (a1, cfg.in_channels, 3, 3)).astype(dtype))
        self.stem_bn = BnState(a1, dtype=dtype)

        layout = list(module_layout(cfg))
        self.modules = [RecModule.create(s, s_out, tb_out, d, cfg.k_x, cfg.k_h, cfg.variant,
                                         rng=rng, dtype=dtype)
                        for s, s_out, d, tb_out, _ in layout]
        # module indices followed by max pooling
        self._pool_after = tuple(i for i, (*_, pool) in enumerate(layout) if pool)

        a3 = cfg.s3 * cfg.d3
        # Zero-initialized classifier: an untrained model outputs the uniform
        # distribution (initial loss ln(n_classes)); gradients flow from the
        # first step regardless.
        self.fc_w = Param(np.zeros((cfg.n_classes, a3), dtype=dtype))
        self.fc_b = Param(np.zeros(cfg.n_classes, dtype=dtype))

    # -- parameter plumbing --------------------------------------------------

    def named_params(self):
        yield "stem.w", self.stem_w
        yield "stem.bn.gamma", self.stem_bn.gamma
        yield "stem.bn.beta", self.stem_bn.beta
        for i, mod in enumerate(self.modules):
            yield from mod.named_params(f"m{i}.")
        yield "fc.w", self.fc_w
        yield "fc.b", self.fc_b

    def decay_names(self):
        """Parameters subject to weight decay: convolution and linear
        weights, the parameters with more than one dimension; BN affine
        parameters and biases are excluded."""
        return {name for name, p in self.named_params() if p.data.ndim > 1}

    def named_bn_states(self):
        yield "stem.bn", self.stem_bn
        for i, mod in enumerate(self.modules):
            yield from mod.named_bn_states(f"m{i}.")

    def named_tensors(self):
        """Trainable parameters plus BN running statistics (checkpoint set)."""
        for name, p in self.named_params():
            yield name, p.data
        for name, s in self.named_bn_states():
            yield name + ".running_mean", s.running_mean
            yield name + ".running_var", s.running_var

    def num_params(self):
        return sum(p.data.size for _, p in self.named_params())

    def set_mode(self, mode):
        """Checks mode and changes nothing: forward is always inference and
        forward_cached always training. Kept because the benchmark calls it."""
        if mode not in ("train", "eval"):
            raise ConfigError(f"unknown mode {mode!r}")

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    # -- execution -----------------------------------------------------------

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1] != self.cfg.in_channels:
            raise ShapeError(f"expected (N, {self.cfg.in_channels}, H, W), got {x.shape}")
        if x.shape[2] != self.cfg.in_size or x.shape[3] != self.cfg.in_size:
            raise ShapeError(f"expected spatial {self.cfg.in_size}, got {x.shape[2:]}")
        if x.shape[0] == 0:
            raise ShapeError(f"empty batch: expected at least one sample, got {x.shape}")

    def _slices(self, x):
        """(slices, blocks, outer): x cut into contiguous slices of its batch,
        one when it fits one block, whose widest ledger() row fits
        _BLOCK_BYTES, else one per CPU of the process's affinity; then
        _features' stage blocks and outer block, each sized from the whole
        _BLOCK_BYTES whatever the slice count."""
        n = x.shape[0]
        widest, pooled = _stage_sizes(self.cfg)
        share = _BLOCK_BYTES // np.result_type(x, self.stem_w.data).itemsize
        blocks = [max(1, share // w) for w in widest]
        # an outer block also holds both max-pooling outputs between stages
        outer = max(1, min(blocks[-1], share // sum(pooled)))
        count = 1 if n <= min(blocks) else min(n, workers.cpu_count())
        return [x[n * i // count:n * (i + 1) // count] for i in range(count)], blocks, outer

    def forward(self, x):
        """Inference pass; recurrent modules run in their configured form
        (merged by default). Batch norm uses, and leaves unchanged, the
        running statistics.

        So every layer before the classifier maps each sample on its own,
        and the features are computed in blocks of samples. The batch is cut
        into contiguous slices (_slices), each run by workers.run_slices:
        the last on the calling thread, each other in a worker process.
        Each slice runs its stages in blocks sized from the whole
        _BLOCK_BYTES (_features), whatever the slice count. The classifier
        runs once over the whole batch's features, so the logits depend on
        neither the blocks nor the worker count."""
        x = _as_array(x)
        self._check_input(x)
        slices, blocks, outer = self._slices(x)
        parts = [(s, blocks, outer) for s in slices]
        flat = np.concatenate(workers.run_slices(self._features, parts))
        return linear_forward(flat, self.fc_w, self.fc_b)

    def _features(self, x, blocks, outer):
        """The classifier's input (N, S3*d3) for one slice, in outer blocks
        of `outer` samples, the same for every slice. Inside one, stage k
        (the stem, its modules, then max or global average pooling) runs in
        blocks of blocks[k] samples, regrouped after each pooling layer."""
        ends = [i + 1 for i in self._pool_after] + [len(self.modules)]
        flat = []
        for i in range(0, len(x), outer):
            cur, lo = x[i:i + outer], 0
            for hi, step in zip(ends, blocks):
                cur = np.concatenate([self._stage(cur[j:j + step], lo, hi)
                                      for j in range(0, len(cur), step)])
                lo = hi
            flat.append(cur)
        return np.concatenate(flat)

    def _stage(self, x, lo, hi):
        """Modules lo..hi-1 of the feature path and the pooling after them
        over a block of samples; the stem runs first when lo is 0."""
        if lo == 0:
            x = conv2d_forward(x, self.stem_w)
            relu(batchnorm_forward(x, self.stem_bn, out=x), out=x)
        for mod in self.modules[lo:hi]:
            x = rec_forward(x, mod)
        if hi < len(self.modules):
            return maxpool2(x)[0]
        pooled = avgpool_global(x)
        return pooled.reshape(pooled.shape[0], -1)

    def forward_cached(self, x):
        """Training pass returning (logits, cache) for backward. Batch norm
        normalizes by batch statistics and updates the running statistics.

        The batch is cut into slices as in forward (_slices) and each runs
        _slice_forward through workers.step_forward: the last on the
        calling thread, each other in a worker process, which keeps its
        slice's cache for the backward. Every batch-norm statistic is the
        whole batch's (tensor._batch_sums), and the classifier runs once
        over the whole batch's features, so the logits and the running
        statistics are the same bits for any slice count.

        The workers are the process's, so they keep one step at a time: a
        multi-slice forward_cached of any model, on any thread, drops the
        step they held, whose backward then raises SpentCacheError. The
        slice count follows the CPU count, so two steps interleaved that
        way fail on two CPUs and run on one.

        The cache holds the last slice's input ("x"), stem pre-activation
        and BN statistics ("stem") and module caches ("mods"), the whole
        batch's classifier input ("flat"), and the slice sizes and the id
        of the step the workers keep ("slices"). It holds no post-activation
        that backward can rebuild from a pre-activation and its statistics:
        no stem output, module input or output, or pooling result."""
        x = _as_array(x)
        self._check_input(x)
        slices = self._slices(x)[0]
        flats, cache, step = workers.step_forward(self._slice_forward, [(s,) for s in slices])
        flat = np.concatenate(flats)
        cache.update(flat=flat, slices=([len(s) for s in slices], step))
        return linear_forward(flat, self.fc_w, self.fc_b), cache

    def _slice_forward(self, x):
        """(classifier input, cache) of one slice of a training forward: the
        stem, every module and the pooling layers."""
        stem = {"pre": conv2d_forward(x, self.stem_w)}
        cur = batchnorm_forward(stem["pre"], self.stem_bn, stats=stem)
        relu(cur, out=cur)
        mods = []
        for i, mod in enumerate(self.modules):
            cur, mcache = rec_forward_cached(cur, mod)
            mods.append(mcache)
            if i in self._pool_after:
                cur, _ = maxpool2(cur)
        pooled = avgpool_global(cur)
        return pooled.reshape(pooled.shape[0], -1), {"x": x, "stem": stem, "mods": mods}

    def backward(self, cache, grad_logits):
        """Accumulate gradients for a forward_cached pass; returns None.

        The classifier's backward runs once over the whole batch; each slice
        then runs _slice_backward on its rows of the classifier-input
        gradient through workers.step_backward, the last on the calling
        thread, each other in the worker that kept its cache. Every
        gradient sum over the batch is the whole batch's, added in the
        one-slice order (tensor._batch), so every gradient is the same bits
        for any slice count. The cache is consumed, and a second call on the
        same cache, or a call on an older step's cache than the workers hold
        (see forward_cached), raises SpentCacheError. The cotangent's shape
        is checked before anything is consumed, so a ShapeError leaves the
        cache usable."""
        grad_logits = np.asarray(grad_logits)
        if "flat" in cache:
            expect = (cache["flat"].shape[0], self.fc_w.data.shape[0])
            if grad_logits.shape != expect:
                raise ShapeError(f"grad_logits shape {grad_logits.shape} != {expect}")
        flat, (sizes, step) = consume(cache, "flat", "slices")
        grad_flat, g_w, g_b = linear_backward(flat, self.fc_w, grad_logits)
        ends = list(itertools.accumulate(sizes, initial=0))
        parts = [(grad_flat[lo:hi],) for lo, hi in zip(ends, ends[1:])]
        workers.step_backward(self._slice_backward, parts, cache, step)
        self.fc_w.accumulate(g_w)
        self.fc_b.accumulate(g_b)

    def _slice_backward(self, cache, grad_flat):
        """Accumulate one slice's gradients below the classifier, given its
        rows of the classifier-input gradient.

        Walking the modules in reverse, it rebuilds each module's input once,
        bit for bit, from the previous module's cache (rec_output, then
        maxpool2 where a pooling layer sits between them) or from the stem's
        pre-activation and statistics. Where no pooling layer sits between,
        the same array is the previous module's output, whose transition
        block reads it for its ReLU mask; the stem reads the first module's
        input for its own. Each module entry is dropped once its backward
        has run. The input gradient is never formed: nothing trains the
        images."""
        x, stem, mods = consume(cache, "x", "stem", "mods")
        out = rec_output(self.modules[-1], mods[-1])
        grad = avgpool_global_backward(grad_flat.reshape(grad_flat.shape + (1, 1)), out.shape)
        for i in reversed(range(len(self.modules))):
            mcache = mods.pop()
            if i == 0:
                prev = batchnorm_replay(stem["pre"], self.stem_bn, stem)
                relu(prev, out=prev)
            else:
                prev = rec_output(self.modules[i - 1], mods[-1])
            x_in = prev
            if i - 1 in self._pool_after:
                x_in, pool_idx = maxpool2(prev)
            grad = rec_backward(x_in, self.modules[i], grad, mcache, out)
            if i - 1 in self._pool_after:
                grad = maxpool2_backward(pool_idx, grad, prev.shape)
            out = prev
        grad = relu_backward(out, grad)
        grad, g_gamma, g_beta = batchnorm_backward(stem["pre"], self.stem_bn, grad, stem,
                                                   out=stem["pre"])
        self.stem_bn.gamma.accumulate(g_gamma)
        self.stem_bn.beta.accumulate(g_beta)
        _, g_stem = conv2d_backward(x, self.stem_w, grad, need_grad_x=False)
        self.stem_w.accumulate(g_stem)


def build(cfg, seed=None, rng=None, dtype=None):
    """Construct a RecNetModel from its configuration.

    Hidden weights draw from a zero-mean normal with std sqrt(2/fan_in); BN
    starts at identity (gamma=1, beta=0); the classifier weights and all
    biases start at zero. dtype is float32 when None.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    return RecNetModel(cfg, rng=rng, dtype=dtype)
