"""Spans around recnet's public functions, and the per-layer metrics built
from them.

A traced run replaces functions on the names their callers bind, for
example `recnet.crc.conv2d_forward` (the CRC's W_x/W_h convolutions) and
`recnet.rec.conv2d_forward` (the transition block's 1x1), so the same
primitive is attributed to the layer that called it. Every span records its
name, its parent span, the operation it belongs to, its start and end, and a
tag naming its `ledger()` row. Spans stay in memory until the run ends;
`restore()` puts every replaced name back.
"""

import collections
import csv
import functools
import gzip
import importlib
import os
import statistics
import time
import tracemalloc

import numpy as np

from recnet.model import RecNetModel, ledger

# By module path: the package re-exports a function named `train`, which
# hides the submodule of that name from attribute access.
crc_mod, model_mod, rec_mod, train_mod = (
    importlib.import_module("recnet." + name) for name in ("crc", "model", "rec", "train"))

TENSOR_OPS = ("conv2d_forward", "conv2d_backward", "batchnorm_forward",
              "batchnorm_backward", "relu", "relu_backward")
# Spans holding the recurrence itself; anything else inside a recurrent
# module's span is the transition block.
CRC_SPANS = ("rec.crc_forward_cached", "rec.crc_backward", "rec.iter_hidden_segments")
MEMORY_SPANS = ("RecNetModel.forward", "RecNetModel.forward_cached", "RecNetModel.backward")
KINDS = {"CONV": "stem", "CRC": "crc", "TB": "tb", "Max": "pool", "Average": "gap",
         "Linear": "linear"}
CONV_KINDS = ("stem", "crc", "tb")

# span fields
NAME, PARENT, OP, T0, T1, INFO = range(6)


def _stem(args):
    return ("stem", 0, args[0].shape[0])


def _pool(args):
    return ("pool", args[0].shape[2], args[0].shape[0])


def _pool_backward(args):
    in_shape = args[2]
    return ("pool", in_shape[2], in_shape[0])


class Tracer:
    """Records spans while installed. `op` is set by the caller before each
    timed operation; `memory` adds a tracemalloc peak to model-level spans."""

    def __init__(self, model, memory=False):
        self.spans = []
        self.op = 0
        self.memory = memory
        self._stack = []
        self._saved = []
        self._module_index = {id(m): i for i, m in enumerate(model.modules)}

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, tag, is_generator) for every
        replaced name."""
        def mod(args):
            return ("mod", self._module_index[id(args[1])], args[0].shape[0])

        yield from ((model_mod, op, "model." + op, _stem, False) for op in TENSOR_OPS)
        yield model_mod, "maxpool2", "model.maxpool2", _pool, False
        yield model_mod, "maxpool2_backward", "model.maxpool2_backward", _pool_backward, False
        yield model_mod, "avgpool_global", "model.avgpool_global", \
            lambda a: ("gap", 0, a[0].shape[0]), False
        yield model_mod, "avgpool_global_backward", "model.avgpool_global_backward", \
            lambda a: ("gap", 0, a[1][0]), False
        yield model_mod, "linear_forward", "model.linear_forward", \
            lambda a: ("linear", 0, a[0].shape[0]), False
        yield model_mod, "linear_backward", "model.linear_backward", \
            lambda a: ("linear", 0, a[0].shape[0]), False
        for name in ("rec_forward", "rec_forward_cached", "rec_backward"):
            yield model_mod, name, "model." + name, mod, False
        for name in ("forward", "forward_cached", "backward"):
            yield RecNetModel, name, "RecNetModel." + name, None, False
        for namespace, prefix in ((rec_mod, "rec."), (crc_mod, "crc.")):
            yield from ((namespace, op, prefix + op, None, False) for op in TENSOR_OPS)
        yield rec_mod, "crc_forward_cached", "rec.crc_forward_cached", None, False
        yield rec_mod, "crc_backward", "rec.crc_backward", None, False
        yield rec_mod, "iter_hidden_segments", "rec.iter_hidden_segments", None, True
        yield train_mod, "minibatches", "train.minibatches", None, True
        yield train_mod, "sgd_step", "train.sgd_step", None, False
        yield train_mod, "evaluate", "train.evaluate", None, False
        yield train_mod, "save_model", "train.save_model", lambda a: a[0], False

    def install(self):
        if self.memory:
            tracemalloc.start()
        for owner, attr, name, tag, is_gen in self._targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            wrap = self._wrap_generator if is_gen else self._wrap
            setattr(owner, attr, wrap(name, original, tag))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self.memory:
            tracemalloc.stop()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _open(self, name, tag, args):
        span = [name, self._stack[-1] if self._stack else None, self.op, 0.0, 0.0,
                tag(args) if tag else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[T0] = time.perf_counter()
        return span

    def _close(self, span):
        span[T1] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, tag):
        track = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span = self._open(name, tag, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if track:
                    span[INFO] = tracemalloc.get_traced_memory()[1] - base
        return traced

    def _wrap_generator(self, name, fn, tag):
        """One span per item pulled, so the consumer's work between items
        is not counted."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    span = self._open(name, tag, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            finally:
                it.close()
        return traced

    # -- output --------------------------------------------------------------

    def write(self, path):
        """All spans as gzip CSV: op, id, parent, name, start and end in
        microseconds from the first span."""
        origin = self.spans[0][T0] if self.spans else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("op", "id", "parent", "name", "start_us", "end_us"))
            for i, s in enumerate(self.spans):
                out.writerow((s[OP], i, "" if s[PARENT] is None else s[PARENT], s[NAME],
                              round((s[T0] - origin) * 1e6, 1), round((s[T1] - origin) * 1e6, 1)))


# ---------------------------------------------------------------------------
# per-layer metrics


def ledger_layout(cfg):
    """[(row index, kind, ledger row)] plus lookups from span tags to rows."""
    rows = [(i, KINDS[r.name.split()[0]], r) for i, r in enumerate(ledger(cfg))]
    by_kind = collections.defaultdict(list)
    for i, kind, r in rows:
        by_kind[kind].append(i)
    lookup = {("stem", 0): by_kind["stem"][0], ("gap", 0): by_kind["gap"][0],
              ("linear", 0): by_kind["linear"][0]}
    # Pool spans are tagged with their input size, twice the row's output.
    lookup.update({("pool", 2 * r.out_h): i for i, kind, r in rows if kind == "pool"})
    modules = list(zip(by_kind["crc"], by_kind["tb"]))
    return rows, lookup, modules


def per_layer_names(cfg):
    """Every metric a traced run reports, its ledger rows taken from cfg."""
    names = []
    for i, kind, r in ledger_layout(cfg)[0]:
        base = f"layer.{i:02d}.{kind}"
        names += [base + ".fwd_s", base + ".bwd_s"]
        if r.flops:
            names += [base + ".fwd_gmacs", base + ".bwd_gmacs"]
        if kind in CONV_KINDS:
            names += [base + ".roof_gmacs", base + ".fwd_mb_computed"]
    return names + list(COUNTER_NAMES) + list(PEAK_NAMES) + list(TRACE_NAMES)


COUNTER_NAMES = (
    "tensor.conv2d_forward.self_s", "tensor.conv2d_forward.calls",
    "tensor.conv2d_forward.us_per_call", "tensor.conv2d_backward.self_s",
    "tensor.conv2d_backward.calls", "tensor.conv2d_backward.us_per_call",
    "tensor.batchnorm.self_s", "crc.self_s",
    "data.next_batch_s", "train.sgd_step_s", "train.evaluate_s",
    "checkpoint.save_s", "checkpoint.bytes",
)
PEAK_NAMES = tuple(n.replace("RecNetModel", "model") + ".peak_mb" for n in MEMORY_SPANS)
TRACE_NAMES = ("trace.ops", "trace.overhead_s", "trace.overhead_frac")


def _op_metrics(spans, cfg):
    """{op: {metric: value}} for the spans of a traced phase."""
    rows, lookup, modules = ledger_layout(cfg)
    dur = [s[T1] - s[T0] for s in spans]
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]

    ops = collections.defaultdict(collections.Counter)
    for i, s in enumerate(spans):
        name, info, m = s[NAME], s[INFO], ops[s[OP]]
        func = name.split(".", 1)[1]
        direction = "bwd" if func.endswith("backward") else "fwd"
        if func in ("conv2d_forward", "conv2d_backward"):
            m[f"tensor.{func}.self_s"] += self_t[i]
            m[f"tensor.{func}.calls"] += 1
        elif func.startswith("batchnorm"):
            m["tensor.batchnorm.self_s"] += self_t[i]
        if name in CRC_SPANS:
            m["crc.self_s"] += self_t[i]
        elif name == "train.minibatches":
            m["data.next_batch_s"] += dur[i]
        elif name == "train.sgd_step":
            m["train.sgd_step_s"] += dur[i]
        elif name == "train.evaluate":
            m["train.evaluate_s"] += dur[i]
        elif name == "train.save_model":
            m["checkpoint.save_s"] += dur[i]
            m["checkpoint.bytes"] += os.path.getsize(info)
        if not isinstance(info, tuple):
            continue
        kind, key, n = info
        if kind == "mod":
            crc_t = sum(dur[c] for c in children[i] if spans[c][NAME] in CRC_SPANS)
            targets = [(modules[key][0], crc_t), (modules[key][1], dur[i] - crc_t)]
        else:
            targets = [(lookup[(kind, key)], dur[i])]
        # The stem is three spans (conv, BN, ReLU); count its samples once.
        counts_samples = kind != "stem" or func.startswith("conv2d")
        for row, t in targets:
            m[(row, direction, "s")] += t
            if counts_samples:
                m[(row, direction, "n")] += n

    out = {}
    for op, m in ops.items():
        vals = {k: v for k, v in m.items() if isinstance(k, str)}
        for func in ("conv2d_forward", "conv2d_backward"):
            calls = m[f"tensor.{func}.calls"]
            vals[f"tensor.{func}.us_per_call"] = (
                m[f"tensor.{func}.self_s"] / calls * 1e6 if calls else 0.0)
        for i, kind, r in rows:
            base = f"layer.{i:02d}.{kind}"
            for direction, factor in (("fwd", 1), ("bwd", 2)):
                t = m[(i, direction, "s")]
                vals[f"{base}.{direction}_s"] = t
                if r.flops:
                    n = m[(i, direction, "n")]
                    vals[f"{base}.{direction}_gmacs"] = factor * r.flops * n / t / 1e9 if t else 0.0
        out[op] = vals
    return out


def phase_metrics(spans, cfg):
    """Median over operations of every per-op metric (0 where no op ran it)."""
    per_op = list(_op_metrics(spans, cfg).values())
    names = set().union(*per_op) if per_op else set()
    return {n: statistics.median(v.get(n, 0.0) for v in per_op) for n in names}


def peak_metrics(spans):
    """Largest tracemalloc peak, in MB, of each model-level span kind."""
    out = {}
    for span_name, metric in zip(MEMORY_SPANS, PEAK_NAMES):
        peaks = [s[INFO] for s in spans if s[NAME] == span_name and s[INFO] is not None]
        out[metric] = max(peaks) / 2**20 if peaks else 0.0
    return out


# ---------------------------------------------------------------------------
# roofline reference and computed traffic


def conv_gemms(model, batch):
    """{row index: (M, K, N, elements moved)} for every conv row: the GEMM a
    direct im2col lowering of the row's forward would run, and the element
    count of its input, output and weight arrays."""
    rows, _, modules = ledger_layout(model.cfg)
    cfg = model.cfg
    out = {}
    stem_row = next(i for i, kind, _ in rows if kind == "stem")
    r = rows[stem_row][2]
    m = batch * r.out_h * r.out_w
    c1 = r.out_channels
    out[stem_row] = (m, cfg.in_channels * 9, c1,
                     m * (cfg.in_channels + c1) + c1 * cfg.in_channels * 9)
    for (crc_row, tb_row), rec in zip(modules, model.modules):
        c, tb = rec.crc, rec.tb
        r = rows[crc_row][2]
        m = batch * r.out_h * r.out_w
        k = c.s_in * c.k_x ** 2 + c.s_out * c.k_h ** 2
        # x read once, h_{i-1} read for d-1 steps, every h_i written.
        act = m * (c.d * c.s_in + (c.d - 1) * c.s_out + c.d * c.s_out)
        out[crc_row] = (m, k, c.s_out, act + k * c.s_out)
        out[tb_row] = (m, tb.c_in, tb.c_out, m * (tb.c_in + tb.c_out) + tb.c_in * tb.c_out)
    return out


def gemm_gmacs(m, k, n, rng, reps=3):
    """Best-of-reps float32 GEMM rate for (m, k) x (k, n) on this thread."""
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b
    best = min(_timed(lambda: a @ b) for _ in range(reps))
    return m * k * n / best / 1e9


def _timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def roof_metrics(model, batch, seed):
    rng = np.random.default_rng(seed)
    rows = {i: kind for i, kind, _ in ledger_layout(model.cfg)[0]}
    out, cache = {}, {}
    for row, (m, k, n, elements) in conv_gemms(model, batch).items():
        if (m, k, n) not in cache:
            cache[(m, k, n)] = gemm_gmacs(m, k, n, rng)
        base = f"layer.{row:02d}.{rows[row]}"
        out[base + ".roof_gmacs"] = cache[(m, k, n)]
        out[base + ".fwd_mb_computed"] = elements * np.dtype(np.float32).itemsize / 2**20
    return out
