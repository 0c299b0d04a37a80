"""Property suites behind `recnet verify`.

Five suites, all executed in float64: gradient checks against central
finite differences, module equivalence (merged-vs-naive forward,
whole-block-vs-segment-wise backward), linear-recurrence
unrolled equivalence, recurrence causality, and cost accounting against the
published RecNet reference totals. Every op and layer gradient row goes
through one finite-difference comparison, _fd_err, and the CRC layer and
recurrent-module rows through one layer check, _check_layer; the
whole-model rows compare derivatives along random directions instead.
Each suite returns CheckResult rows; a row with gating=False is
informational and never fails the run (used for reference totals that are
documented as unreachable from the architecture description; see README).
"""

import copy
from dataclasses import dataclass

import numpy as np

from .crc import (
    CrcParams,
    CrcVariant,
    crc_backward,
    crc_forward,
    crc_forward_cached,
    crc_linear_unrolled,
    grouped_shared_forward,
    step_bn,
)
from .errors import ConfigError
from .model import (
    RecNetConfig,
    acronym,
    build,
    crc_layer_params,
    dense_conv_params,
    param_count,
)
from .rec import (
    RecModule,
    TransitionBlock,
    rec_backward,
    rec_forward,
    rec_forward_blocked,
    rec_forward_cached,
    rec_output,
    tb_segment_block,
)
from .tensor import (
    BnState,
    avgpool_global,
    avgpool_global_backward,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    conv2d_backward,
    conv2d_forward,
    linear_backward,
    linear_forward,
    maxpool2,
    maxpool2_backward,
    relu,
    relu_backward,
)
from .train import softmax_cross_entropy

FD_STEP = 1e-4
GRAD_TOL = 1e-5
# Resample instances whose activations sit closer than this to a ReLU kink
# or max-pool tie; finite differences are only a valid oracle away from
# non-differentiable points.
KINK_MARGIN = 2e-3
# Also resample when any batch-norm input channel has batch std below this:
# stacked normalizations of near-constant channels have third derivatives
# large enough that the h^2 truncation error of central differences swamps
# the tolerance even though the analytic gradient is exact.
BN_STD_FLOOR = 0.5


@dataclass
class CheckResult:
    suite: str
    name: str
    max_err: float
    tol: float
    passed: bool
    gating: bool = True
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else ("FAIL" if self.gating else "WARN")
        extra = f"  [{self.note}]" if self.note else ""
        return (f"{status}  {self.suite}/{self.name}: max_err={self.max_err:.3e} "
                f"tol={self.tol:.1e}{extra}")


def _fd_grad(f, arr, h=FD_STEP):
    """Central-difference gradient of scalar f with respect to arr (in place)."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def _rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def _fd_err(forward, g, pairs):
    """Largest _rel_err of each (analytic gradient, array) pair against the
    central-difference gradient of the loss <forward(), g> with respect to
    that array."""
    def loss():
        return float((forward() * g).sum())

    return max(_rel_err(grad, _fd_grad(loss, arr)) for grad, arr in pairs)


def _result(suite, name, max_err, tol, **kw):
    return CheckResult(suite, name, float(max_err), tol, max_err < tol, **kw)


def _holds(suite, name, ok):
    """A yes/no property as a row: error 0 when it holds, 1 when not."""
    return _result(suite, name, 0.0 if ok else 1.0, 0.5)


# ---------------------------------------------------------------------------
# gradient suite


def _check_conv(rng):
    n, c_in, c_out = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.choice([1, 3]))
    h = w = int(rng.integers(max(k, 3), 6))
    pad = "same" if rng.random() < 0.5 else 0
    x = rng.standard_normal((n, c_in, h, w))
    wgt = rng.standard_normal((c_out, c_in, k, k))
    bias = rng.standard_normal(c_out)
    g = rng.standard_normal(conv2d_forward(x, wgt, bias, pad).shape)
    gx, gw = conv2d_backward(x, wgt, g, pad)
    gb = g.sum(axis=(0, 2, 3))
    return _fd_err(lambda: conv2d_forward(x, wgt, bias, pad), g,
                   [(gx, x), (gw, wgt), (gb, bias)])


def _check_batchnorm(rng):
    n, c = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    h = w = int(rng.integers(2, 5))
    s = BnState(c, dtype=np.float64)
    s.gamma.data[:] = rng.standard_normal(c)
    s.beta.data[:] = rng.standard_normal(c)
    x = rng.standard_normal((n, c, h, w))
    g = rng.standard_normal((n, c, h, w))
    stats = {}
    batchnorm_forward(x, s, stats=stats)
    gx, ggamma, gbeta = batchnorm_backward(x, s, g, stats)
    return _fd_err(lambda: batchnorm_forward(x, s), g,
                   [(gx, x), (ggamma, s.gamma.data), (gbeta, s.beta.data)])


def _check_relu(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    x = np.where(np.abs(x) < 0.05, x + np.sign(x) * 0.1 + 0.01, x)
    g = rng.standard_normal(x.shape)
    return _fd_err(lambda: relu(x), g, [(relu_backward(x, g), x)])


def _check_maxpool(rng):
    for _ in range(50):
        x = rng.standard_normal((2, 2, 4, 4))
        tiles = x.reshape(2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 2, 2, 2, 4)
        top2 = np.sort(tiles, axis=-1)[..., -2:]
        if np.min(top2[..., 1] - top2[..., 0]) > KINK_MARGIN:
            break
    g = rng.standard_normal((2, 2, 2, 2))
    _, idx = maxpool2(x)
    return _fd_err(lambda: maxpool2(x)[0], g, [(maxpool2_backward(idx, g, x.shape), x)])


def _check_avgpool(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    g = rng.standard_normal((2, 3, 1, 1))
    return _fd_err(lambda: avgpool_global(x), g, [(avgpool_global_backward(g, x.shape), x)])


def _check_linear(rng):
    n, f, k = 3, 5, 4
    x = rng.standard_normal((n, f))
    w = rng.standard_normal((k, f))
    b = rng.standard_normal(k)
    g = rng.standard_normal((n, k))
    gx, gw, gb = linear_backward(x, w, g)
    return _fd_err(lambda: linear_forward(x, w, b), g, [(gx, x), (gw, w), (gb, b)])


def _random_crc(rng, variant, d=(1, 4), s_out=(1, 3)):
    """A float64 layer with d and S_out drawn from the inclusive ranges."""
    d = int(rng.integers(d[0], d[1] + 1))
    s_in = int(rng.integers(1, max(2, 4 // d) + 1))
    s_out = int(rng.integers(s_out[0], s_out[1] + 1))
    k_x, k_h = int(rng.choice([1, 3])), int(rng.choice([1, 3]))
    p = CrcParams(s_in, s_out, d, k_x, k_h, variant,
                  rng=np.random.default_rng(rng.integers(2 ** 32)), dtype=np.float64)
    # He-initialized weights are fine, but randomize the parameters the init
    # leaves at neutral values so the checks see a generic point.
    p.w_x.data[:] = rng.standard_normal(p.w_x.shape) * 0.6
    p.w_h.data[:] = rng.standard_normal(p.w_h.shape) * 0.6
    if p.bias is not None:
        p.bias.data[:] = rng.standard_normal(p.s_out) * 0.3
    for s in p.bn_states():
        s.gamma.data[:] = 0.5 + rng.random(s.channels)
        s.beta.data[:] = rng.standard_normal(s.channels) * 0.3
    return p


def _bn_input_std(arr):
    return float(np.min(arr.std(axis=(0, 2, 3))))


def _crc_conditioning(cache, p):
    """(kink margin, min BN-input channel std) along the layer's path, read
    from a crc_forward_cached cache.

    The cache keeps no ReLU inputs behind a BN; they are replayed here from
    the cached BN inputs and statistics."""
    margin, bn_std = np.inf, np.inf
    for i, step in enumerate(cache["steps"]):
        state, channel_slice = step_bn(p, i)
        z = step["pre"]
        if state is not None:
            z = batchnorm_replay(z, state, step, channel_slice=channel_slice)
            bn_std = min(bn_std, _bn_input_std(step["pre"]))
        margin = min(margin, float(np.min(np.abs(z))))
    return margin, bn_std


def _rec_backward(x, m, g, cache):
    """rec_backward as RecNetModel.backward runs it: on the output rebuilt
    from the cache."""
    return rec_backward(x, m, g, cache, rec_output(m, cache))


def _random_rec(rng, variant, d=(1, 4), s_out=(1, 3)):
    crc = _random_crc(rng, variant, d, s_out)
    c_out = int(rng.integers(1, 5))
    tb_rng = np.random.default_rng(rng.integers(2 ** 32))
    tb = TransitionBlock(crc.d * crc.s_out, c_out, rng=tb_rng, dtype=np.float64)
    tb.a.data[:] = rng.standard_normal(tb.a.shape) * 0.6
    tb.bn.gamma.data[:] = 0.5 + rng.random(c_out)
    tb.bn.beta.data[:] = rng.standard_normal(c_out) * 0.3
    return RecModule(crc, tb)


def _rec_conditioning(cache, m):
    """_crc_conditioning extended to the transition block, read from a
    rec_forward_cached cache."""
    margin, bn_std = _crc_conditioning(cache["crc"], m.crc)
    tb = cache["tb"]
    z = batchnorm_replay(tb["pre"], m.tb.bn, tb)
    return (min(margin, float(np.min(np.abs(z)))),
            min(bn_std, _bn_input_std(tb["pre"])))


def _check_layer(rng, variant, make, forward, forward_cached, backward, conditioning):
    """Largest relative error of backward's gradients, for the input and every
    parameter, against central differences of forward. make(rng, variant)
    draws layers until one whose forward_cached cache passes the
    conditioning screen."""
    for _ in range(200):
        layer = make(rng, variant)
        n = int(rng.integers(1, 3))
        h = w = int(rng.integers(4, 7))
        x = rng.standard_normal((n, layer.c_in, h, w))
        y, cache = forward_cached(x, layer)
        margin, bn_std = conditioning(cache, layer)
        if margin > KINK_MARGIN and bn_std > BN_STD_FLOOR:
            break
    g = rng.standard_normal(y.shape)
    for _, q in layer.named_params():
        q.zero_grad()
    gx = backward(x, layer, g, cache)
    params = [(q.grad, q.data) for _, q in layer.named_params() if q.grad is not None]
    return _fd_err(lambda: forward(x, layer), g, [(gx, x)] + params)


# The whole-model check runs RecNetModel.forward_cached + backward on a tiny
# network and compares <grad, v> with a central difference of the loss along
# a random direction v over every parameter at once.
MODEL_ARCH = "1,2,2,2,2,3,2"
MODEL_SIZE = 8
MODEL_CLASSES = 5
MODEL_BATCH = 3
MODEL_DIRECTIONS = 4
# A step of 1e-7 per scalar moves the activations by well under the 1e-5
# kink margin. The BN floor can sit lower than BN_STD_FLOOR because the
# truncation error scales with the square of the step. Over 320 instances
# (four variants, three kernel pairs, seeds 0-3) the largest error was 1.2e-6
# and the median 2e-9; a dropped stem ReLU mask or ignored pool indices give
# errors of order 1.
MODEL_FD_STEP = 1e-7
MODEL_KINK_MARGIN = 1e-5
MODEL_BN_STD_FLOOR = 0.1
MODEL_GRAD_TOL = 1e-5
# Kernel pairs cycled through the instances, so equal and unequal k_x/k_h
# both reach the recurrence.
MODEL_KERNELS = ((3, 3), (3, 1), (1, 3))


def _random_model(rng, variant, k_x, k_h):
    cfg = RecNetConfig.from_arch_string(
        MODEL_ARCH, n_classes=MODEL_CLASSES, variant=variant, k_x=k_x, k_h=k_h,
        in_size=MODEL_SIZE)
    model = build(cfg, rng=np.random.default_rng(rng.integers(2 ** 32)), dtype=np.float64)
    # The classifier starts at zero, which would cut every hidden gradient
    # out of the loss; BN affine pairs and biases start neutral.
    model.fc_w.data[:] = rng.standard_normal(model.fc_w.shape) / np.sqrt(model.fc_w.shape[1])
    model.fc_b.data[:] = rng.standard_normal(model.fc_b.shape) * 0.1
    for name, q in model.named_params():
        if name.endswith(".gamma"):
            q.data[:] = 0.5 + rng.random(q.shape)
        elif name.endswith((".beta", ".b")):
            q.data[:] = rng.standard_normal(q.shape) * 0.3
    return model


def _pool_gap(y):
    """Smallest gap between the two largest cells of a 2x2 window.

    Windows whose maximum is a ReLU zero route no gradient. Exact ties are
    skipped: they come from cells computed from the same values (a TB output
    whose inputs are all ReLU zeros), which move together."""
    n, c, h, w = y.shape
    tiles = y.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    top2 = np.sort(tiles.reshape(n, c, h // 2, w // 2, 4), axis=-1)[..., -2:]
    gap = top2[..., 1] - top2[..., 0]
    live = (top2[..., 1] > 0) & (gap > 0)
    return float(np.min(gap[live])) if live.any() else np.inf


def _model_conditioning(model, x):
    """(kink margin, min BN-input channel std) over the stem, every module
    and every pooling window."""
    _, cache = model.forward_cached(x)
    stem = cache["stem"]
    z = batchnorm_replay(stem["pre"], model.stem_bn, stem)
    margin, bn_std = float(np.min(np.abs(z))), _bn_input_std(stem["pre"])
    for i, (mod, mcache) in enumerate(zip(model.modules, cache["mods"])):
        m, s = _rec_conditioning(mcache, mod)
        margin, bn_std = min(margin, m), min(bn_std, s)
        if i in model._pool_after:
            margin = min(margin, _pool_gap(rec_output(mod, mcache)))
    return margin, bn_std


def model_grad_error(rng, variant, kernels=(3, 3)):
    """Largest relative error of <grad, v> against the central difference
    along MODEL_DIRECTIONS random directions, on one well-conditioned
    instance of the tiny network."""
    for _ in range(200):
        model = _random_model(rng, variant, *kernels)
        x = rng.standard_normal((MODEL_BATCH, 3, MODEL_SIZE, MODEL_SIZE))
        margin, bn_std = _model_conditioning(model, x)
        if margin > MODEL_KINK_MARGIN and bn_std > MODEL_BN_STD_FLOOR:
            break
    labels = rng.integers(0, MODEL_CLASSES, MODEL_BATCH)
    params = [q for _, q in model.named_params()]
    originals = [q.data.copy() for q in params]

    def run():
        """(loss, dloss/dlogits, cache) of a training forward."""
        logits, cache = model.forward_cached(x)
        return (*softmax_cross_entropy(logits, labels), cache)

    _, dlogits, cache = run()
    model.zero_grad()
    model.backward(cache, dlogits)
    grads = [q.grad for q in params]
    err = 0.0
    for _ in range(MODEL_DIRECTIONS):
        v = [rng.standard_normal(q.shape) for q in params]
        analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        ends = []
        for step in (MODEL_FD_STEP, -MODEL_FD_STEP):
            for q, d, keep in zip(params, v, originals):
                q.data[...] = keep + step * d
            ends.append(run()[0])
        for q, keep in zip(params, originals):
            q.data[...] = keep
        numeric = (ends[0] - ends[1]) / (2 * MODEL_FD_STEP)
        err = max(err, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return err


def grad_suite(seed=0, trials=None):
    trials = trials or 20
    rng = np.random.default_rng(seed)
    results = []
    simple = {
        "conv2d": _check_conv,
        "batchnorm": _check_batchnorm,
        "relu": _check_relu,
        "maxpool2": _check_maxpool,
        "avgpool_global": _check_avgpool,
        "linear": _check_linear,
    }
    for name, fn in simple.items():
        err = max(fn(rng) for _ in range(trials))
        results.append(_result("grad", name, err, GRAD_TOL))
    for variant in CrcVariant:
        err = max(_check_layer(rng, variant, _random_crc, crc_forward, crc_forward_cached,
                               crc_backward, _crc_conditioning) for _ in range(trials))
        results.append(_result("grad", f"crc[{variant.value}]", err, GRAD_TOL))
    for variant in (CrcVariant.SEPARATE_BN_RELU, CrcVariant.LINEAR):
        err = max(_check_layer(rng, variant, _random_rec, rec_forward, rec_forward_cached,
                               _rec_backward, _rec_conditioning) for _ in range(trials))
        results.append(_result("grad", f"rec[{variant.value}]", err, GRAD_TOL))
    for variant in CrcVariant:
        err = max(model_grad_error(rng, variant, MODEL_KERNELS[t % len(MODEL_KERNELS)])
                  for t in range(trials))
        results.append(_result("grad", f"model[{variant.value}]", err, MODEL_GRAD_TOL))
    return results


# ---------------------------------------------------------------------------
# merged-vs-naive equivalence


# block_size is ceil(128 / S_out) capped at d, so it gives g < d from
# S_out = 43 at d >= 4. The naive-vs-merged row draws its modules from these
# ranges, from a generator of its own, so the other rows keep their instances.
WIDE_D = (4, 6)
WIDE_S_OUT = (43, 64)


def whole_block_rec_forward(x, m):
    """Training forward of one module that keeps the whole d*S_out hidden
    block; returns the output and what whole_block_rec_backward reads."""
    h, crc_cache = crc_forward_cached(x, m.crc)
    tb = {"pre": conv2d_forward(h, m.tb.a)}
    z = batchnorm_forward(tb["pre"], m.tb.bn, stats=tb)
    return relu(z), (h, crc_cache, tb, z)


def whole_block_rec_backward(x, m, g, saved):
    """Gradients of one module taken over the whole hidden block: one
    transition conv backward over the d*S_out block that
    whole_block_rec_forward saved, and crc_backward given dL/dh as one
    array. Accumulates into m's parameter buffers and returns grad_x."""
    h, crc_cache, tb, z = saved
    grad_pre, g_gamma, g_beta = batchnorm_backward(tb["pre"], m.tb.bn, relu_backward(z, g), tb)
    grad_h, g_a = conv2d_backward(h, m.tb.a, grad_pre)
    for q, grad in ((m.tb.bn.gamma, g_gamma), (m.tb.bn.beta, g_beta), (m.tb.a, g_a)):
        q.accumulate(grad)
    return crc_backward(x, m.crc, grad_h, crc_cache)


def _backward_sweep_err(rng, variant):
    """Largest _rel_err between rec_backward's segment-wise gradients and
    whole_block_rec_backward's, for the input and every parameter, on one
    module and its deep copy."""
    m = _random_rec(rng, variant, d=(1, 6))
    n = int(rng.integers(1, 3))
    h = w = int(rng.integers(4, 7))
    x = rng.standard_normal((n, m.c_in, h, w))
    g = rng.standard_normal((n, m.tb.c_out, h, w))
    ref = copy.deepcopy(m)
    y, cache = rec_forward_cached(x, m)
    _, saved = whole_block_rec_forward(x, ref)
    err = _rel_err(rec_backward(x, m, g, cache, y), whole_block_rec_backward(x, ref, g, saved))
    for (_, q), (_, q_ref) in zip(m.named_params(), ref.named_params()):
        err = max(err, _rel_err(q.grad, q_ref.grad))
    return err


def equiv_suite(seed=0, trials=None):
    trials = trials or 50
    rng = np.random.default_rng(seed)
    wide_rng = np.random.default_rng([seed, 1])
    fwd_err = blocks_err = block_err = 0.0
    variants = [CrcVariant.SEPARATE_BN_RELU, CrcVariant.LINEAR, CrcVariant.RELU]
    for t in range(trials):
        variant = variants[t % len(variants)]
        m = _random_rec(wide_rng, variant, WIDE_D, WIDE_S_OUT)
        n = int(wide_rng.integers(1, 3))
        h = w = int(wide_rng.integers(4, 9))
        x = wide_rng.standard_normal((n, m.crc.c_in, h, w))
        y_naive = rec_forward_blocked(x, m, m.crc.d)
        y_merged = rec_forward(x, m)
        fwd_err = max(fwd_err, float(np.max(np.abs(y_naive - y_merged))))

        m = _random_rec(rng, variant, d=(1, 8))
        n = int(rng.integers(1, 3))
        h = w = int(rng.integers(4, 9))
        x = rng.standard_normal((n, m.crc.c_in, h, w))
        y_naive = rec_forward_blocked(x, m, m.crc.d)
        # These modules are narrow enough that block_size gives g = d, so
        # every smaller block size is compared against g = d.
        for g_blk in range(1, m.crc.d):
            y_g = rec_forward_blocked(x, m, g_blk)
            blocks_err = max(blocks_err, float(np.max(np.abs(y_naive - y_g))))
        # Drawn and unused, so that every seed keeps the instances it has
        # always checked.
        rng.standard_normal(y_naive.shape)

        # Block decomposition: concat(h) * A == sum_i h_i * A_i exactly in
        # exact arithmetic.
        d, s_out = m.crc.d, m.crc.s_out
        hcat = rng.standard_normal((n, d * s_out, h, w))
        full = conv2d_forward(hcat, m.tb.a)
        parts = sum(
            conv2d_forward(hcat[:, i * s_out:(i + 1) * s_out],
                           tb_segment_block(m.tb.a.data, i, s_out))
            for i in range(d)
        )
        block_err = max(block_err, float(np.max(np.abs(full - parts))))
    # A generator of its own, so the rows above keep their instances.
    sweep_rng = np.random.default_rng([seed, 2])
    sweep_err = max(_backward_sweep_err(sweep_rng, list(CrcVariant)[t % len(CrcVariant)])
                    for t in range(trials))
    return [
        _result("equiv", "forward naive-vs-merged", fwd_err, 1e-9),
        _result("equiv", "forward naive-vs-every-block-size", blocks_err, 1e-9),
        _result("equiv", "block decomposition", block_err, 1e-9),
        _result("equiv", "backward whole-block vs segment-wise", sweep_err, 1e-9),
    ]


# ---------------------------------------------------------------------------
# linear-recurrence unrolled equivalence


def _random_linear_crc(rng, d, k_x, k_h, zero_bias):
    s_in, s_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    p = CrcParams(s_in, s_out, d, k_x, k_h, CrcVariant.LINEAR,
                  rng=np.random.default_rng(rng.integers(2 ** 32)), dtype=np.float64)
    p.w_x.data[:] = rng.standard_normal(p.w_x.shape) * 0.5
    p.w_h.data[:] = rng.standard_normal(p.w_h.shape) * 0.5
    p.bias.data[:] = 0.0 if zero_bias else rng.standard_normal(p.s_out) * 0.3
    p.out_bn.gamma.data[:] = 0.5 + rng.random(p.out_bn.channels)
    p.out_bn.beta.data[:] = rng.standard_normal(p.out_bn.channels) * 0.3
    p.out_bn.running_mean[:] = rng.standard_normal(p.out_bn.channels) * 0.2
    p.out_bn.running_var[:] = 0.5 + rng.random(p.out_bn.channels)
    for s in p.bn_states():
        s.eval()
    return p


def unroll_suite(seed=0, trials=None):
    trials = trials or 3
    rng = np.random.default_rng(seed)
    zb_err = 0.0
    interior_err = 0.0
    size = 14
    for d in range(1, 6):
        for k_x in (1, 3):
            for k_h in (1, 3):
                for _ in range(trials):
                    # Zero-border inputs: exact on every pixel (zero bias; a
                    # nonzero bias field is truncated by padding at the
                    # border, which is exactly the boundary effect the
                    # interior check covers).
                    p = _random_linear_crc(rng, d, k_x, k_h, zero_bias=True)
                    border = (k_x - 1) // 2 + max(d - 2, 0) * (k_h - 1) // 2
                    x = rng.standard_normal((2, p.c_in, size, size))
                    if border:
                        x[:, :, :border, :] = 0
                        x[:, :, -border:, :] = 0
                        x[:, :, :, :border] = 0
                        x[:, :, :, -border:] = 0
                    it = crc_forward(x, p)
                    un = crc_linear_unrolled(x, p)
                    zb_err = max(zb_err, float(np.max(np.abs(it - un))))

                    # General inputs with bias: agreement on the interior at
                    # distance >= (d-1)(k_h-1)/2 + (k_x-1)/2 from the border.
                    p = _random_linear_crc(rng, d, k_x, k_h, zero_bias=False)
                    margin = (d - 1) * (k_h - 1) // 2 + (k_x - 1) // 2
                    x = rng.standard_normal((2, p.c_in, size, size))
                    it = crc_forward(x, p)
                    un = crc_linear_unrolled(x, p)
                    lo, hi = margin, size - margin
                    diff = np.abs(it - un)[:, :, lo:hi, lo:hi]
                    interior_err = max(interior_err, float(np.max(diff)))
    return [
        _result("unroll", "zero-border all pixels", zb_err, 1e-5),
        _result("unroll", "general-input interior", interior_err, 1e-5),
    ]


# ---------------------------------------------------------------------------
# causality and the grouped control


def causality_suite(seed=0, trials=None):
    trials = trials or 100
    rng = np.random.default_rng(seed)
    causal_ok = True
    reach_ok = True
    for _ in range(trials):
        variant = list(CrcVariant)[int(rng.integers(0, 4))]
        p = _random_crc(rng, variant)
        if p.d < 2:
            continue
        n, h = 1, 5
        x = rng.standard_normal((n, p.c_in, h, h))
        y = crc_forward(x, p)
        j = int(rng.integers(1, p.d))
        i = int(rng.integers(0, j))
        x2 = x.copy()
        x2[:, j * p.s_in:(j + 1) * p.s_in] += rng.standard_normal((n, p.s_in, h, h))
        y2 = crc_forward(x2, p)
        upto = (i + 1) * p.s_out
        if not np.array_equal(y[:, :upto], y2[:, :upto]):
            causal_ok = False
        if np.array_equal(y[:, j * p.s_out:], y2[:, j * p.s_out:]):
            reach_ok = False  # the perturbed segment itself must move

    # Perturbing x_0 can reach every output segment.
    p = _random_crc(rng, CrcVariant.LINEAR)
    while p.d < 2:
        p = _random_crc(rng, CrcVariant.LINEAR)
    x = rng.standard_normal((1, p.c_in, 5, 5))
    x2 = x.copy()
    x2[:, :p.s_in] += 1.0
    y, y2 = crc_forward(x, p), crc_forward(x2, p)
    full_reach = all(
        not np.array_equal(y[:, pos * p.s_out:(pos + 1) * p.s_out],
                           y2[:, pos * p.s_out:(pos + 1) * p.s_out])
        for pos in range(p.d)
    )

    # Grouped control: permutation equivariance for the grouped form, order
    # sensitivity for the recurrence (witness within 10 seeds).
    equivariant = True
    witness = False
    for s in range(10):
        wrng = np.random.default_rng(seed + 1000 + s)
        p = CrcParams(2, 3, 3, 3, 3, CrcVariant.RELU, rng=wrng, dtype=np.float64)
        p.w_x.data[:] = wrng.standard_normal(p.w_x.shape) * 0.6
        p.w_h.data[:] = wrng.standard_normal(p.w_h.shape) * 0.6
        p.bias.data[:] = wrng.standard_normal(p.s_out) * 0.3
        x = wrng.standard_normal((1, p.c_in, 5, 5))
        perm = np.array([1, 2, 0])
        xp = np.concatenate([x[:, k * p.s_in:(k + 1) * p.s_in] for k in perm], axis=1)
        g = grouped_shared_forward(x, p)
        gp = grouped_shared_forward(xp, p)
        gp_expected = np.concatenate([g[:, k * p.s_out:(k + 1) * p.s_out] for k in perm], axis=1)
        if not np.array_equal(gp, gp_expected):
            equivariant = False
        r = crc_forward(x, p)
        rp = crc_forward(xp, p)
        rp_expected = np.concatenate([r[:, k * p.s_out:(k + 1) * p.s_out] for k in perm], axis=1)
        if not np.allclose(rp, rp_expected, atol=1e-12):
            witness = True
    return [
        _holds("causality", "history-only reads (bit-identical)", causal_ok),
        _holds("causality", "perturbed segment moves", reach_ok),
        _holds("causality", "x_0 reaches every segment", full_reach),
        _holds("causality", "grouped form permutation-equivariant", equivariant),
        _holds("causality", "recurrent form order-sensitive (witness)", witness),
    ]


# ---------------------------------------------------------------------------
# accounting vs published reference totals


# Reference totals for the RecNet family (in thousands of parameters unless
# exact). Every published total exceeds the ledger by a block the documented
# architecture lacks, which depends only on the simulated widths (S*d per
# stage); it takes e=1 and RecNet-60-640 past 5% because they are small.
# RecNet-60-480 and RecNet-90-640 need a larger block than a network wider
# in every stage, which the rest of the table contradicts (see README).
# Entries with a note are reported but do not gate the suite.
_SHARED_BLOCK = "published total carries a block the architecture lacks; documented"
_CONTRADICTED = "published total contradicted by a wider entry; documented"
EXPANSION_TOTALS = {1: (424_000, _SHARED_BLOCK), 2: (824_000, ""),
                    4: (1_769_000, ""), 8: (4_239_000, "")}
KERNEL_TOTALS = {(3, 1): 1_425_000, (1, 3): 1_683_000, (3, 3): 1_769_000}
FAMILY_TABLE = [
    ((4, 4, 8, 16, 10, 10, 10), "RecNet-60-640", 471_000, _SHARED_BLOCK),
    ((4, 4, 8, 16, 15, 15, 15), "RecNet-90-960", 863_000, ""),
    ((4, 4, 8, 16, 20, 20, 20), "RecNet-120-1280", 1_406_000, ""),
    ((4, 8, 16, 32, 10, 10, 10), "RecNet-60-1280", 1_769_000, ""),
    ((4, 8, 16, 32, 15, 15, 15), "RecNet-90-1920", 3_306_000, ""),
    ((4, 8, 16, 32, 20, 20, 20), "RecNet-120-2560", 5_444_000, ""),
    ((4, 8, 8, 8, 5, 10, 15), "RecNet-60-480", 316_000, _CONTRADICTED),
    ((4, 8, 8, 8, 10, 15, 20), "RecNet-90-640", 537_000, _CONTRADICTED),
    ((4, 8, 8, 8, 10, 20, 30), "RecNet-120-960", 930_000, ""),
    ((4, 16, 16, 16, 5, 10, 15), "RecNet-60-960", 1_137_000, ""),
    ((4, 16, 16, 16, 10, 15, 20), "RecNet-90-1280", 2_028_000, ""),
    ((4, 16, 16, 16, 10, 20, 30), "RecNet-120-1920", 3_569_000, ""),
]
TOTAL_TOLERANCE = 0.05


def _total_err(tuple7, ref, k_x=3, k_h=3):
    """Best relative error against the reference over both class counts."""
    best = None
    for n_classes in (100, 10):
        cfg = RecNetConfig(*tuple7, n_classes=n_classes, k_x=k_x, k_h=k_h)
        _, total = param_count(cfg, "with-bn")
        err = abs(total / ref - 1.0)
        best = err if best is None else min(best, err)
    return best


def counts_suite(seed=0, trials=None):
    results = []
    layer = crc_layer_params(16, 64, 10, 3, 3, CrcVariant.SEPARATE_BN_RELU, "with-bn")
    raw = crc_layer_params(16, 64, 10, 3, 3, convention="formula-only")
    dense = dense_conv_params(160, 640, 3)
    results.append(_result("counts", "CRC(16,64,10) with-bn = 47,360",
                           abs(layer - 47_360), 0.5))
    results.append(_result("counts", "CRC(16,64,10) formula-only = 46,080",
                           abs(raw - 46_080), 0.5))
    results.append(_result("counts", "dense 3x3 160->640 = 921,600",
                           abs(dense - 921_600), 0.5))

    for e, (ref, note) in EXPANSION_TOTALS.items():
        err = _total_err((e, 8, 16, 32, 10, 10, 10), ref)
        results.append(_result("counts", f"expansion e={e} total ~ {ref//1000}K", err,
                               TOTAL_TOLERANCE, gating=not note, note=note))
    for (k_x, k_h), ref in KERNEL_TOTALS.items():
        err = _total_err((4, 8, 16, 32, 10, 10, 10), ref, k_x, k_h)
        results.append(_result("counts", f"kernels {k_x}x{k_x}/{k_h}x{k_h} total ~ {ref//1000}K",
                               err, TOTAL_TOLERANCE))
    for tuple7, acr, ref, note in FAMILY_TABLE:
        err = _total_err(tuple7, ref)
        results.append(_result("counts", f"{acr} total ~ {ref//1000}K", err,
                               TOTAL_TOLERANCE, gating=not note, note=note))
        got = acronym(RecNetConfig(*tuple7))
        results.append(_holds("counts", f"acronym {acr}", got == acr))
    return results


# ---------------------------------------------------------------------------


SUITES = {
    "grad": grad_suite,
    "equiv": equiv_suite,
    "unroll": unroll_suite,
    "causality": causality_suite,
    "counts": counts_suite,
}


def run_suites(names, seed=0, trials=None):
    """Run the named suites in float64; returns (results, all gating passed).
    trials, instances per property, is each suite's default when None."""
    if trials is not None and trials < 1:
        raise ConfigError(f"--trials must be positive, got {trials}")
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed, trials=trials))
    ok = all(r.passed for r in results if r.gating)
    return results, ok
