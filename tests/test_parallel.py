"""The conv, batch-norm and ReLU kernels and the inference forward give the
same bits for any number of workers, the thread pool that runs the
kernels' batch slices is well behaved, and so are the worker processes
that run the forward's.

Each kernel case runs once on a pool forced to one worker, the serial
reference, and again on pools of two and three workers; three splits most
calls into uneven groups. The pools are built here, so the tests run on a
one-core host too. The size floors are lowered and the chunks shrunk, so
that these small shapes split into several chunks, and each case checks
that groups really went to the pool. The forward's cases force one to
three slices in the same way; every wait on a worker process has a
timeout.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from recnet import model as model_mod
from recnet import tensor, workers
from recnet.crc import CrcVariant
from recnet.errors import ShapeError
from recnet.model import RecNetConfig, build
from recnet.tensor import (
    BnState,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_replay,
    conv2d_backward,
    conv2d_forward,
    linear_forward,
    relu,
    relu_backward,
)

WORKERS = [2, 3]
DTYPES = [np.float32, np.float64]
# (C_in, C_out, k): a 1x1 kernel, a 3x3 one with K = 36 <= _STACK_MAX_K that
# stacks its taps, and a 3x3 one with K = 144 that runs one GEMM per tap.
KERNELS = {"1x1": (24, 16, 1), "stacked": (4, 3, 3), "per-tap": (16, 4, 3)}
BATCH = 48


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the groups handed to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def pool(monkeypatch):
    """pool(k, fn) runs fn() on k workers and returns its result, after
    checking that a pool of k > 1 workers was handed some groups."""
    monkeypatch.setattr(tensor, "_SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(tensor, "_SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(tensor, "_CHUNK_BYTES", 48 << 10)
    executors = []

    def run(workers, fn):
        executor = CountingPool(workers - 1) if workers > 1 else None
        monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), workers, executor))
        result = fn()
        if executor is not None:
            executors.append(executor)
            assert executor.submitted > 0, "nothing ran on the pool"
        return result

    yield run
    for executor in executors:
        executor.shutdown()


def assert_same(pool, fn):
    """fn() on 2 and 3 workers equals fn() on 1, array by array."""
    want = pool(1, fn)
    for workers in WORKERS:
        got = pool(workers, fn)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), f"{workers} workers"


def conv_case(kernel, dtype):
    c_in, c_out, k = KERNELS[kernel]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((BATCH, c_in, 4, 5)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
    g = rng.standard_normal((BATCH, c_out, 4, 5)).astype(dtype)
    return x, w, g


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_conv_forward(pool, kernel, dtype):
    x, w, _ = conv_case(kernel, dtype)
    split = x.shape[1] // 3
    bias = np.linspace(-1, 1, w.shape[0]).astype(dtype)

    def run():
        added = np.ones((BATCH, w.shape[0], 4, 5), dtype=dtype)
        return [conv2d_forward(x, w),
                conv2d_forward((x[:, :split], x[:, split:]), w, bias),
                conv2d_forward(x, w, add_to=added)]

    assert_same(pool, run)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_conv_backward(pool, kernel, dtype):
    x, w, g = conv_case(kernel, dtype)
    assert_same(pool, lambda: list(conv2d_backward(x, w, g)))


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_with_samples_larger_than_a_workers_share(pool, monkeypatch, dtype):
    """A conv whose one sample needs more than _CHUNK_BYTES / workers runs
    one-sample chunks, and still splits them across the workers."""
    monkeypatch.setattr(tensor, "_CHUNK_BYTES", 4 << 10)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 16, 8, 8)).astype(dtype)
    w = rng.standard_normal((8, 16, 3, 3)).astype(dtype)
    g = rng.standard_normal((6, 8, 8, 8)).astype(dtype)
    assert_same(pool, lambda: [conv2d_forward(x, w), *conv2d_backward(x, w, g)])


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm(pool, dtype):
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((BATCH, 5, 6, 6)) * 3 + 1).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)

    def run():
        s = BnState(5, dtype=dtype)
        s.gamma.data[:] = np.linspace(0.5, 2, 5)
        s.beta.data[:] = np.linspace(-1, 1, 5)
        stats = {}
        y = batchnorm_forward(x, s, stats=stats)
        return [y, stats["mean"], stats["var"], s.running_mean, s.running_var,
                batchnorm_replay(x, s, stats), *batchnorm_backward(x, s, g, stats)]

    assert_same(pool, run)


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu(pool, dtype):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((BATCH, 5, 6, 6)).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    assert_same(pool, lambda: [relu(x), relu_backward(x, g), relu(x.copy(), out=x.copy())])


def training_step(variant):
    """fn() running one forward_cached + backward of a small network, which
    returns the logits and every gradient."""
    cfg = RecNetConfig(2, 2, 2, 2, 3, 2, 3, n_classes=5, variant=variant, in_size=8)
    x = np.random.default_rng(10).standard_normal((BATCH, 3, 8, 8)).astype(np.float32)
    grad_logits = np.random.default_rng(11).standard_normal((BATCH, 5)).astype(np.float32)

    def run():
        model = build(cfg, seed=3)
        model.fc_w.data[:] = np.random.default_rng(12).standard_normal(model.fc_w.shape)
        logits, cache = model.forward_cached(x)
        model.backward(cache, grad_logits)
        return [logits] + [q.grad for _, q in model.named_params()]

    return run


@pytest.mark.parametrize("variant", list(CrcVariant))
def test_training_step(pool, variant):
    assert_same(pool, training_step(variant))


def forward_case():
    """A small network with a random classifier and a batch of BATCH
    samples: its widest ledger() rows take 768, 128 and 48 elements per
    sample in stages 1-3, so the whole batch needs 144 KiB in float32."""
    model = build(RecNetConfig(2, 2, 2, 2, 3, 2, 3, n_classes=5, in_size=8), seed=3)
    model.fc_w.data[:] = np.random.default_rng(12).standard_normal(model.fc_w.shape)
    x = np.random.default_rng(10).standard_normal((BATCH, 3, 8, 8)).astype(np.float32)
    return model, x


@pytest.fixture
def forced(monkeypatch):
    """forced(k) makes the forward cut a batch of more than one 16 KiB block
    into k slices. There is no thread pool and both floors are 0, so a
    split that ran anywhere but in a plain loop would fail."""
    monkeypatch.setattr(model_mod, "_BLOCK_BYTES", 16 << 10)
    monkeypatch.setattr(tensor, "_SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(tensor, "_SPLIT_MIN_ELEMENTS", 0)

    def force(k):
        monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), k, None))

    return force


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


def worker_pids():
    return [p.pid for p in workers._state[1] if p.poll() is None] if workers._state else []


def forward_on_two(forced):
    """forward_case() and its logits on one slice; the forward is then
    forced to two."""
    model, x = forward_case()
    forced(1)
    want = model.forward(x)
    forced(2)
    return model, x, want


def test_forward(forced):
    """The caller runs the first slice and a worker process each other one;
    the logits are the same bits for any count."""
    model, x = forward_case()
    forced(1)
    want = model.forward(x)
    for k in (2, 3):
        forced(k)
        got = within(lambda: model.forward(x))
        assert got.dtype == want.dtype and np.array_equal(got, want), f"{k} workers"
        assert len(worker_pids()) >= k - 1


def test_worker_error_reraises_with_its_type_and_message(forced):
    """An exception raised in a worker's slice, or in the caller's, raises
    in the caller once every slice has replied; the workers live on, and
    the next call gets its own replies."""
    w, b = np.ones((5, 4)), np.zeros(5)
    with pytest.raises(ShapeError, match=r"linear shapes incompatible: x \(2, 3\)"):
        within(lambda: workers.run_slices(linear_forward, [(np.ones((2, 4)), w, b),
                                                           (np.ones((2, 3)), w, b)]))
    alive = worker_pids()
    with pytest.raises(ValueError, match="math domain error"):
        within(lambda: workers.run_slices(math.sqrt, [(-1.0,), (4.0,)]))
    assert worker_pids() == alive
    assert within(lambda: workers.run_slices(math.sqrt, [(4.0,), (9.0,), (16.0,)])) == [2, 3, 4]
    model, x, want = forward_on_two(forced)
    assert np.array_equal(within(lambda: model.forward(x)), want)


def test_a_worker_killed_between_calls_is_replaced(forced):
    """The next forward finds the worker dead and starts another."""
    model, x, want = forward_on_two(forced)
    within(lambda: model.forward(x))
    proc = workers._state[1][0]
    proc.kill()
    proc.wait(timeout=10)
    assert np.array_equal(within(lambda: model.forward(x)), want)
    assert proc.pid not in worker_pids()


def test_a_worker_that_dies_in_a_call_raises_a_clear_error(forced):
    """The second slice kills its own worker, so no reply comes; the call
    raises instead of waiting, and the next forward starts a new worker."""
    _, pid = within(lambda: workers.run_slices(os.getpid, [(), ()]))
    assert pid != os.getpid()
    with pytest.raises(RuntimeError, match=f"worker process {pid} ended before it replied"):
        within(lambda: workers.run_slices(os.kill, [(os.getpid(), 0), (pid, signal.SIGKILL)]))
    model, x, want = forward_on_two(forced)
    assert np.array_equal(within(lambda: model.forward(x)), want)
    assert pid not in worker_pids()


def test_two_threads_forward_at_once(forced):
    """A lock makes each forward's requests and replies one exchange, so
    two threads sharing the workers, each forwarding its own batches five
    times, get their own logits every time. Each thread's first batch is
    cut into two slices and its second fits one block, which takes the
    same lock and runs on the thread itself."""
    model, x = forward_case()
    batches = [[x, x[:4]], [x[::-1].copy(), x[-3:]]]
    forced(1)
    wants = [[model.forward(b) for b in pair] for pair in batches]
    forced(2)
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


def test_a_batch_that_fits_one_block_starts_no_worker_process(monkeypatch):
    """At the default _BLOCK_BYTES the whole batch fits one block, so the
    forward runs it as one slice on the calling thread and starts no
    worker process, even with two CPUs."""
    monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), 2, None))
    monkeypatch.setattr(workers, "_start", lambda: pytest.fail("a worker process started"))
    alive = worker_pids()
    model, x = forward_case()
    assert within(lambda: model.forward(x)).shape == (BATCH, 5)
    assert worker_pids() == alive


class NoPool:
    """An executor that fails every group handed to it."""

    def submit(self, *args, **kwargs):
        raise AssertionError("a split reached the thread pool")


def test_inference_never_reaches_the_pool(monkeypatch):
    """With both floors at 0 every split would go to a pool of two, whose
    executor fails; a forward of one block and one of two slices still
    give the logits of one worker, since every slice runs its splits
    serially."""
    monkeypatch.setattr(tensor, "_SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(tensor, "_SPLIT_MIN_ELEMENTS", 0)
    model, x = forward_case()
    monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), 1, None))
    want = model.forward(x)
    monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), 2, NoPool()))
    for block_bytes in (model_mod._BLOCK_BYTES, 16 << 10):
        monkeypatch.setattr(model_mod, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(within(lambda: model.forward(x)), want), block_bytes


def test_more_workers_than_cores_under_fast_switching(pool):
    """Eight workers, more than the host has cores, with the interpreter
    switching threads every microsecond: a lost or misordered write of any
    chunk or slice changes the step's bits."""
    run = training_step(CrcVariant.SEPARATE_BN_RELU)
    want = pool(1, run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = pool(8, run)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_worker_error_reraises_after_every_group(pool):
    """A slice that raises in a pool thread raises in the caller, and only
    once every other group, slow ones included, has returned."""
    finished = []

    def fn(sl):
        if sl.start == 5:
            raise ValueError("slice 5")
        time.sleep(0.05)
        finished.append(sl.start)

    slices = [slice(i, i + 1) for i in range(9)]

    def call():
        with pytest.raises(ValueError, match="slice 5"):
            tensor._split(fn, slices)
        return list(finished)

    assert sorted(pool(3, call)) == [0, 1, 2, 3, 4, 6, 7, 8]


def test_caller_error_waits_for_the_pool(pool):
    """When the caller's own group raises, its later slices do not run,
    but the call still returns only after the pool's group has written its
    slices, so nothing writes into the output later."""
    out = np.zeros(4)

    def fn(sl):
        if sl.start == 0:
            raise ValueError("caller's slice")
        time.sleep(0.1)
        out[sl] = 1.0

    def call():
        with pytest.raises(ValueError, match="caller's slice"):
            tensor._split(fn, [slice(i, i + 1) for i in range(4)])
        return out.copy()

    assert list(pool(2, call)) == [0.0, 0.0, 1.0, 1.0]


def test_results_come_back_in_slice_order(pool):
    """Seven slices in groups of 2, 2 and 3; later slices sleep less, so
    the pool's groups finish before the caller's."""
    slices = [slice(i, i + 1) for i in range(7)]

    def fn(sl):
        time.sleep(0.01 * (7 - sl.start))
        return sl.start

    assert pool(3, lambda: tensor._split(fn, slices)) == list(range(7))


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


def test_no_worker_outlives_its_caller():
    """A script that ran a forward on three slices exits with no worker left
    running, and with every pipe closed: it runs in development mode with
    ResourceWarning an error."""
    code = ("import os\n"
            "import numpy as np\n"
            "from recnet import model, tensor, workers\n"
            "model._BLOCK_BYTES = 16 << 10\n"
            "tensor._pool_state = (os.getpid(), 3, None)\n"
            "net = model.build(model.RecNetConfig(2, 2, 2, 2, 3, 2, 3, in_size=8), seed=3)\n"
            "net.forward(np.ones((48, 3, 8, 8), np.float32))\n"
            "print(*(p.pid for p in workers._state[1]))\n")
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_forked_child_builds_its_own_pool(monkeypatch):
    """A child forked from a process whose pool has a live thread runs its
    split calls without that pool, whose threads it does not have."""
    executor = ThreadPoolExecutor(1)
    executor.submit(int).result()
    monkeypatch.setattr(tensor, "_pool_state", (os.getpid(), 2, executor))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)
            got = tensor._split(lambda sl: sl.start, [slice(i, i + 1) for i in range(4)])
            code = 0 if got == [0, 1, 2, 3] and tensor._pool_state[0] == os.getpid() else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    executor.shutdown()
    assert os.waitstatus_to_exitcode(status) == 0
