"""A batch cut into slices gives the same bits as the whole batch: the
training step, with every sum over the batch exchanged between its slices,
and the inference forward; and the worker processes that run the slices
are well behaved.

The kernel cases run each slice on a thread of this process with its own
place in the batch (tensor._batch) and an exchange between the threads,
so that they can shrink the conv chunks and cut the batch anywhere. The
model cases run real worker processes: replacing workers.cpu_count in this
process forces the slice count, so they run on a one-core host too. The
workers read their own constants, so those cases keep _CHUNK_BYTES and use
networks whose conv chunks straddle the slice boundaries at batch 48 and
200. Every wait on a thread or a worker process has a timeout.
"""

import math
import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from recnet import model as model_mod
from recnet import tensor, workers
from recnet.crc import CrcVariant
from recnet.errors import ShapeError, SpentCacheError
from recnet.model import RecNetConfig, build
from recnet.tensor import (
    BnState,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    bias_grad,
    conv2d_backward,
    linear_forward,
)

DTYPES = [np.float32, np.float64]
BATCH = 48


def within(fn, seconds=60):
    """fn() on a daemon thread, failing the test if it runs past seconds."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert outcome, f"no result after {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


# ---------------------------------------------------------------------------
# kernels on slices that run as threads


def on_slices(fn, arrays, bounds):
    """[fn(*rows) for each slice], the slices of every array cut at bounds,
    each run on a thread of its own as a slice of a data-parallel step:
    across and along meet between the threads as workers.py makes them meet
    between processes, a carry handed on as a copy, as a pipe hands it."""
    count = len(bounds) - 1
    barrier = threading.Barrier(count, timeout=30)
    parts = [None] * count
    carries = [queue.Queue() for _ in range(count)]

    class Exchange:
        def __init__(self, i):
            self.i = i

        def across(self, part, combine):
            parts[self.i] = part
            barrier.wait()
            result = combine(list(parts))
            barrier.wait()
            return result

        def along(self, fold):
            result = fold(carries[self.i].get(timeout=30) if self.i else None)
            if self.i + 1 < count:
                carries[self.i + 1].put(pickle.loads(pickle.dumps(result)))
            return result

    results, errors = [None] * count, []

    def run(i):
        tensor._batch.start, tensor._batch.exchange = bounds[i], Exchange(i)
        try:
            results[i] = fn(*[a[bounds[i]:bounds[i + 1]] for a in arrays])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "a slice did not finish"
    if errors:
        raise errors[0]
    return results


# Cuts of a batch of BATCH samples: one slice, whose sums go through the
# exchange where a call outside a step takes plain NumPy sums, two equal
# slices, uneven ones, and a 1-sample slice that lies inside one chunk,
# which it gets and hands on.
BOUNDS = [[0, 48], [0, 24, 48], [0, 7, 31, 48], [0, 11, 12, 48]]
# (C_in, C_out, k): a 1x1 kernel, a 3x3 one with K = 36 <= _STACK_MAX_K, one
# with K = 144 that runs one GEMM per tap, and 1x1 per-tap products, which
# NumPy sums pairwise.
KERNELS = {"1x1": (24, 16, 1), "stacked": (4, 3, 3), "per-tap": (16, 4, 3),
           "one-channel": (1, 1, 3)}


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of a few samples, so that the slices cut many of them."""
    monkeypatch.setattr(tensor, "_CHUNK_BYTES", 6 << 10)


def same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("bounds", BOUNDS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_conv_backward_on_slices(small_chunks, kernel, dtype, bounds):
    """The weight gradient, folded along the slices, and the input
    gradient equal the whole batch's, bit for bit."""
    c_in, c_out, k = KERNELS[kernel]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((BATCH, c_in, 4, 5)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
    g = rng.standard_normal((BATCH, c_out, 4, 5)).astype(dtype)
    want_x, want_w = conv2d_backward(x, w, g)
    got = on_slices(lambda x, g: conv2d_backward(x, w, g), [x, g], bounds)
    assert same(np.concatenate([gx for gx, _ in got]), want_x)
    assert same(got[-1][1], want_w)


@pytest.mark.parametrize("bounds", BOUNDS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm_on_slices(dtype, bounds):
    """Training forward, replay and backward on slices give the whole
    batch's outputs, statistics, running statistics and gradients."""
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((BATCH, 5, 6, 6)) * 3 + 1).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)

    def run(x, g):
        s = BnState(5, dtype=dtype)
        s.gamma.data[:] = np.linspace(0.5, 2, 5)
        s.beta.data[:] = np.linspace(-1, 1, 5)
        stats = {}
        y = batchnorm_forward(x, s, stats=stats)
        return [y, batchnorm_replay(x, s, stats), *batchnorm_backward(x, s, g, stats),
                stats["mean"], stats["var"], s.running_mean, s.running_var]

    want = run(x, g)
    got = on_slices(run, [x, g], bounds)
    for i in (0, 1, 2):
        assert same(np.concatenate([r[i] for r in got]), want[i])
    for r in got:
        assert all(same(a, b) for a, b in zip(r[3:], want[3:]))


@pytest.mark.parametrize("bounds", BOUNDS)
@pytest.mark.parametrize("channels", [1, 2, 7])
def test_bias_grad_on_slices(channels, bounds):
    """The bias gradient equals NumPy's sum over (N, H, W) of the whole
    batch, which adds one channel pairwise over all of it."""
    g = np.random.default_rng(9).standard_normal((BATCH, channels, 6, 6)).astype(np.float32)
    want = g.sum(axis=(0, 2, 3))
    assert same(bias_grad(g), want)
    assert same(on_slices(bias_grad, [g], bounds)[-1], want)


# ---------------------------------------------------------------------------
# the model on worker processes


@pytest.fixture
def forced(monkeypatch):
    """forced(k) makes this process cut a batch of more than one block into
    k slices, whatever its CPU count."""
    def force(k):
        monkeypatch.setattr(workers, "cpu_count", lambda: k)
    return force


def worker_pids():
    return [p.pid for p in workers._state.procs if p.poll() is None] if workers._state else []


# (arch, batch): at 32x32 the first network's stage-1 conv chunks hold 12-20
# float32 samples, so slices of 48 cut them; the second's 1x1 kernels chunk
# 120 samples, so slices of 200 cut those, and its bias has one channel.
STEPS = [("2,4,4,4,3,3,3", BATCH), ("1,1,1,1,3,3,3", 200)]


def training_step(arch, batch, variant, dtype):
    """fn() running one forward_cached + backward on a fresh model, which
    returns the logits, every gradient and every running statistic."""
    cfg = RecNetConfig.from_arch_string(arch, n_classes=5, variant=variant)
    x = np.random.default_rng(10).standard_normal((batch, 3, 32, 32)).astype(dtype)
    grad_logits = np.random.default_rng(11).standard_normal((batch, 5)).astype(dtype)

    def run():
        model = build(cfg, seed=3, dtype=dtype)
        model.fc_w.data[:] = np.random.default_rng(12).standard_normal(model.fc_w.shape)
        logits, cache = model.forward_cached(x)
        model.backward(cache, grad_logits)
        return ([logits] + [q.grad for _, q in model.named_params()]
                + [s for name, s in model.named_tensors() if "running" in name])

    return run


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("variant", list(CrcVariant))
@pytest.mark.parametrize("arch,batch", STEPS)
def test_training_step_on_any_slice_count(forced, arch, batch, variant, dtype):
    """One, two and three slices give the same logits, gradients and
    running statistics, bit for bit; three slices cut the batch unevenly."""
    run = training_step(arch, batch, variant, dtype)
    forced(1)
    want = run()
    assert len(workers.records) == 1
    for k in (2, 3):
        forced(k)
        got = within(run)
        assert len(workers.records) == k
        assert all(same(g, w) for g, w in zip(got, want)), f"{k} slices"


def forward_case():
    """A small network with a random classifier and a batch of BATCH
    samples; a block of 16 KiB holds 5 of them, so the batch splits."""
    model = build(RecNetConfig(2, 2, 2, 2, 3, 2, 3, n_classes=5, in_size=8), seed=3)
    model.fc_w.data[:] = np.random.default_rng(12).standard_normal(model.fc_w.shape)
    x = np.random.default_rng(10).standard_normal((BATCH, 3, 8, 8)).astype(np.float32)
    return model, x


@pytest.fixture
def small_blocks(monkeypatch, forced):
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 16 << 10)
    return forced


def forward_on_two(forced):
    """forward_case() and its logits on one slice; the forward is then
    forced to two."""
    model, x = forward_case()
    forced(1)
    want = model.forward(x)
    forced(2)
    return model, x, want


def test_forward(small_blocks):
    """The caller runs the last slice and a worker process each other one;
    the logits are the same bits for any count."""
    model, x = forward_case()
    small_blocks(1)
    want = model.forward(x)
    for k in (2, 3):
        small_blocks(k)
        got = within(lambda: model.forward(x))
        assert same(got, want), f"{k} workers"
        assert len(worker_pids()) >= k - 1


def test_records_count_every_sample(small_blocks):
    """A forward and a training step on two slices leave one record per
    slice: their samples add up to the batch, the caller's comes last, and
    the worker's shows its own time and memory."""
    model, x = forward_case()
    small_blocks(2)
    for call in (lambda: model.forward(x),
                 lambda: model.backward(model.forward_cached(x)[1], np.ones((BATCH, 5),
                                                                             np.float32))):
        within(call)
        worker, caller = workers.records
        assert worker.samples + caller.samples == BATCH
        assert caller.pid == os.getpid() and worker.pid in worker_pids()
        assert worker.peak_rss_mb > 0 and worker.wall_s > 0 and worker.cpu_s >= 0


def test_worker_error_reraises_with_its_type_and_message(small_blocks):
    """An exception raised in a worker's slice, or in the caller's, raises
    in the caller once every slice has replied; the workers live on, and
    the next call gets its own replies."""
    w, b = np.ones((5, 4)), np.zeros(5)
    with pytest.raises(ShapeError, match=r"linear shapes incompatible: x \(2, 3\)"):
        within(lambda: workers.run_slices(linear_forward, [(np.ones((2, 3)), w, b),
                                                           (np.ones((2, 4)), w, b)]))
    alive = worker_pids()
    with pytest.raises(ValueError, match="math domain error"):
        within(lambda: workers.run_slices(math.sqrt, [(-1.0,), (4.0,)]))
    assert worker_pids() == alive
    assert within(lambda: workers.run_slices(math.sqrt, [(4.0,), (9.0,), (16.0,)])) == [2, 3, 4]
    model, x, want = forward_on_two(small_blocks)
    assert same(within(lambda: model.forward(x)), want)


def test_a_worker_killed_between_calls_is_replaced(small_blocks):
    """The next forward finds the worker dead and starts another."""
    model, x, want = forward_on_two(small_blocks)
    within(lambda: model.forward(x))
    proc = workers._state.procs[0]
    proc.kill()
    proc.wait(timeout=10)
    assert same(within(lambda: model.forward(x)), want)
    assert proc.pid not in worker_pids()


def test_a_worker_that_dies_in_a_call_raises_a_clear_error(small_blocks):
    """The first slice kills its own worker, so no reply comes; the call
    raises instead of waiting, and the next forward starts a new worker."""
    pid, _ = within(lambda: workers.run_slices(os.getpid, [(), ()]))
    assert pid != os.getpid()
    with pytest.raises(RuntimeError, match=f"worker process {pid} ended before it replied"):
        within(lambda: workers.run_slices(os.kill, [(pid, signal.SIGKILL), (os.getpid(), 0)]))
    model, x, want = forward_on_two(small_blocks)
    assert same(within(lambda: model.forward(x)), want)
    assert pid not in worker_pids()


def step_case():
    """A model, a batch of BATCH samples that splits, and grad(): one
    training step's logits and gradients."""
    model, x = forward_case()
    grad_logits = np.random.default_rng(11).standard_normal((BATCH, 5)).astype(np.float32)

    def grad(x):
        model.zero_grad()
        logits, cache = model.forward_cached(x)
        model.backward(cache, grad_logits)
        return [logits] + [q.grad for _, q in model.named_params()]

    return model, x, grad


def test_a_worker_that_raises_mid_step_gives_its_error(small_blocks):
    """A worker whose slice raises after some sums over the batch: the
    caller raises the worker's error at its next sum instead of waiting,
    the workers stop, and the next step gets new ones and the right bits.
    The worker's slice is 10x10, which its second max pooling rejects,
    after the first two stages' batch norms."""
    model, x, grad = step_case()
    small_blocks(1)
    want = grad(x)
    small_blocks(2)
    bad = np.zeros((BATCH // 2, 3, 10, 10), np.float32)
    with pytest.raises(ShapeError, match="maxpool2 needs even spatial dims, got 5x5"):
        within(lambda: workers.step_forward(model._slice_forward, [(bad,), (x[BATCH // 2:],)]))
    assert worker_pids() == []
    got = within(lambda: grad(x))
    assert all(same(g, w) for g, w in zip(got, want))


def test_a_worker_killed_mid_step_gives_a_clear_error(small_blocks, monkeypatch):
    """The worker dies at the third batch-norm sum of a step: the caller
    raises instead of waiting, and the next step starts a new worker."""
    model, x, grad = step_case()
    small_blocks(1)
    want = grad(x)
    small_blocks(2)
    within(lambda: grad(x))
    pid = workers._state.procs[0].pid
    across, calls = workers._Lead.across, []

    def dying(self, part, combine):
        calls.append(None)
        if len(calls) == 3:
            os.kill(pid, signal.SIGKILL)
        return across(self, part, combine)

    monkeypatch.setattr(workers._Lead, "across", dying)
    with pytest.raises(RuntimeError, match=f"worker process {pid} ended before it replied"):
        within(lambda: grad(x))
    monkeypatch.setattr(workers._Lead, "across", across)
    got = within(lambda: grad(x))
    assert all(same(g, w) for g, w in zip(got, want))
    assert pid not in worker_pids()


def test_an_unfinished_step_is_dropped_by_the_next(small_blocks):
    """A forward_cached that no backward follows is dropped by the next
    one: that step's backward gives the bits that one slice gives after the
    same two forwards, and a backward on the dropped cache, or a second one
    on the spent cache, raises SpentCacheError."""
    grads = {}
    for k in (1, 2):
        small_blocks(k)
        model, x, _ = step_case()
        old = within(lambda: model.forward_cached(x[::-1].copy()))[1]
        logits, cache = within(lambda: model.forward_cached(x))
        within(lambda: model.backward(cache, np.ones_like(logits)))
        grads[k] = [logits] + [q.grad for _, q in model.named_params()] + \
            [s for name, s in model.named_tensors() if "running" in name]
        with pytest.raises(SpentCacheError):
            within(lambda: model.backward(cache, np.ones_like(logits)))
        if k == 2:
            with pytest.raises(SpentCacheError, match="no longer hold this training step"):
                within(lambda: model.backward(old, np.ones_like(logits)))
    assert all(same(g, w) for g, w in zip(grads[2], grads[1]))


def test_two_threads_forward_at_once(small_blocks):
    """A lock makes each forward's requests and replies one exchange, so
    two threads sharing the workers, each forwarding its own batches five
    times, get their own logits every time. Each thread's first batch is
    cut into two slices and its second fits one block, which takes the
    same lock and runs on the thread itself."""
    model, x = forward_case()
    batches = [[x, x[:4]], [x[::-1].copy(), x[-3:]]]
    small_blocks(1)
    wants = [[model.forward(b) for b in pair] for pair in batches]
    small_blocks(2)
    got = [[], []]

    def run(i):
        for _ in range(5):
            got[i].append([model.forward(b) for b in batches[i]])

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "a forward did not finish"
    for want, logits in zip(wants, got):
        assert len(logits) == 5
        assert all(np.array_equal(g, w) for pair in logits for g, w in zip(pair, want))


def test_a_batch_that_fits_one_block_starts_no_worker_process(forced, monkeypatch):
    """At the default _BLOCK_BYTES the whole batch fits one block, so the
    forward and the training step run it as one slice on the calling
    thread and start no worker process, even with two CPUs."""
    forced(2)
    monkeypatch.setattr(workers, "_start", lambda: pytest.fail("a worker process started"))
    alive = worker_pids()
    model, x = forward_case()
    assert within(lambda: model.forward(x)).shape == (BATCH, 5)
    logits, cache = within(lambda: model.forward_cached(x))
    within(lambda: model.backward(cache, np.ones_like(logits)))
    assert worker_pids() == alive


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_import_starts_no_thread():
    """Importing recnet starts no thread and no process."""
    code = ("import os, threading\n"
            "n = threading.active_count()\n"
            "import recnet, recnet.tensor, recnet.workers\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    children = 'some'\n"
            "except ChildProcessError:\n"
            "    children = 'none'\n"
            "print(n, threading.active_count(), children)\n")
    done = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                          text=True, timeout=60, check=True)
    before, after, children = done.stdout.split()
    assert before == after
    assert children == "none"


# A script that forces three slices, runs a forward, and prints its
# workers' pids; a given extra line runs before the print.
SCRIPT = ("import numpy as np\n"
          "from recnet import model, workers\n"
          "model._BLOCK_BYTES = 16 << 10\n"
          "workers.cpu_count = lambda: 3\n"
          "net = model.build(model.RecNetConfig(2, 2, 2, 2, 3, 2, 3, in_size=8), seed=3)\n"
          "x = np.ones((48, 3, 8, 8), np.float32)\n"
          "{}\n"
          "print(*(p.pid for p in workers._state.procs))\n")


@pytest.mark.parametrize("last_call", ["net.forward(x)", "logits, cache = net.forward_cached(x)"])
def test_no_worker_outlives_its_caller(last_call):
    """A script whose last call is a forward on three slices, or a
    training forward whose backward never comes, exits with no worker left
    running, and with every pipe closed: it runs in development mode with
    ResourceWarning an error."""
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
                           SCRIPT.format(last_call)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
