"""Worker processes for the batch slices of the forward and of the training
step.

RecNetModel.forward, forward_cached and backward cut a batch larger than
one inference block into one contiguous slice per CPU of the process's
affinity (cpu_count). The calling thread runs the last slice and a
worker process each earlier one, so a batch of one slice starts no
process. A slice makes thousands of short NumPy calls; processes, unlike
threads, do not queue for one interpreter lock to make them.

A worker is a fresh interpreter (`python -c`), started by the first call
that needs it and kept for the next ones. It imports the caller's own
recnet and inherits the caller's environment and CPU affinity. It reads
requests pickled on its stdin and writes on its stdout, for each, the
result or the exception raised, with a SliceRecord of the request's wall
and CPU time and the worker's peak RSS (resource.getrusage); a Param
pickles without its gradient. `records` holds the last call's records,
one per slice in batch order, the caller's last.

The inference forward's slices are independent (run_slices). A training
step's are not: batch norm normalizes by statistics of the whole batch,
and the bias and weight gradients sum over it. Every such sum goes
through the hook tensor._batch, which a step (step_forward,
step_backward) connects to the other slices. For batch norm
(_batch_sums) a worker writes its part on its stdout and reads the
result back from its stdin; the caller reads every worker's part,
combines them with its own in batch order, as the one-slice code
computes the sum, and writes the result back. A gradient (_along_batch)
is a fold that goes from worker to worker through the caller and ends in
the caller's slice, so the first slice's worker never waits for it.
Every slice runs the same code, so all meet at the same sums in the same
order, and every value is bit-identical for any worker count. Between a
step's forward and its backward each worker keeps its slice's training
cache. A worker's next step forward drops it, so the backward of an
older step raises SpentCacheError. The workers are the process's, shared
by every model and thread, so one multi-slice step at a time is
outstanding: forward_cached of A, then a multi-slice forward_cached of B
(or another thread's step), then backward of A raises SpentCacheError.
Whether a step has more than one slice depends on the CPU count, so on
one CPU the same sequence runs.

A worker exits at the end of its stdin: at the caller's exit each
worker's stdin is closed, and a worker still running after a timeout is
killed. A call of one slice runs on the calling thread alone and takes
no lock; a lock makes a multi-slice call's requests and replies one
exchange, so such calls from several threads run one at a time. An
error that leaves a call's replies unread, and any error in a training
call, whose slices may wait on each other, kills every worker, so the next
call starts new ones.

multiprocessing is not used: its spawn and forkserver contexts leave a
resource-tracker process running after the caller exits and re-run an
unguarded main script in the child, and fork is unsafe in a process whose
BLAS library or caller may run threads.
"""

import atexit
import itertools
import os
import pickle
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from . import tensor
from .errors import SpentCacheError
from .tensor import Param

_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from recnet.workers import serve; serve()"
# Seconds a worker gets to exit once its stdin is closed, before a kill.
_EXIT_TIMEOUT_S = 5.0

_lock = threading.Lock()
_steps = itertools.count()
# The workers of this process (_Workers), None until the first is started.
_state = None


class SliceRecord(NamedTuple):
    """One slice of a call: the process that ran it, its sample count, the
    wall and CPU time the process spent on it, and the process's peak RSS
    so far."""

    pid: int
    samples: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


records = []


class _Workers:
    """The worker processes and the process that started them, and the id
    of the training step whose slices they hold, None when they hold none.
    A forked child starts its own, since its parent's pipes are not its to
    use."""

    def __init__(self):
        self.pid, self.procs, self.held = os.getpid(), [], None


def cpu_count():
    """The CPUs of the process's affinity: the slice count of a batch larger
    than one block."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


class _Pickler(pickle.Pickler):
    """Pickles a Param as its data alone: a worker reads no gradient."""

    def reducer_override(self, obj):
        if isinstance(obj, Param):
            return type(obj), (obj.data,)
        return NotImplemented


def _dump(obj, stream):
    _Pickler(stream, pickle.HIGHEST_PROTOCOL).dump(obj)
    stream.flush()


def _rows(args):
    """A slice's sample count: the length of the arguments' leading batch
    rows, 0 for a call that leads with none."""
    return len(args[0]) if args and hasattr(args[0], "__len__") else 0


def _timed(call, samples):
    """(ok, value, record): call()'s result or the exception it raised, and
    the SliceRecord of a slice of that many samples."""
    t, before = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    try:
        outcome = True, call()
    except Exception as exc:
        outcome = False, exc
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return (*outcome, SliceRecord(os.getpid(), samples, time.perf_counter() - t, cpu,
                                  after.ru_maxrss / 1024))


class _Follow:
    """A worker's side of a step's sums over the batch (tensor._batch): its
    parts go out on its stdout and what it needs back comes in on its
    stdin."""

    def __init__(self, requests, replies):
        self.requests, self.replies = requests, replies

    def across(self, part, combine):
        _dump(("part", part), self.replies)
        return pickle.load(self.requests)

    def along(self, fold):
        carry = None if tensor._batch.start == 0 else pickle.load(self.requests)
        result = fold(carry)
        _dump(("part", result), self.replies)
        return result


def serve():
    """A worker's loop: answer each request until the end of stdin. The
    caller handles Ctrl-C, and a stray print goes to stderr, not into a
    reply.

    A request is (kind, fn, args, start). A "call" replies fn(*args). A
    "forward" drops the kept training cache, runs fn(*args), which returns
    (result, cache), keeps the cache and replies the result. A "backward"
    replies fn(cache, *args) on the kept cache, which it drops. Both run
    their sums over the batch as the slice that begins at sample `start`."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr
    follow = _Follow(requests, replies)
    kept = None
    while True:
        try:
            kind, fn, args, start = pickle.load(requests)
        except EOFError:
            return
        tensor._batch.start = start
        tensor._batch.exchange = None if kind == "call" else follow
        samples = _rows(args)
        if kind == "backward":
            args, kept = (kept, *args), None
        elif kind == "forward":
            kept = None
        ok, value, record = _timed(lambda: fn(*args), samples)
        if ok and kind == "forward":
            value, kept = value
        _dump(("done", ok, value, record), replies)


def _start():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.Popen([sys.executable, "-c", _CODE, src],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _stop(proc, kill=False):
    """Close proc's stdin, wait for it to exit, kill it past the timeout or
    at once."""
    if kill:
        proc.kill()
    try:
        proc.stdin.close()
    except OSError:  # a dead worker's unread request
        pass
    try:
        proc.wait(timeout=_EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


@atexit.register
def _stop_all(kill=False):
    """Stop every worker this process started."""
    global _state
    if _state is not None and _state.pid == os.getpid():
        for proc in _state.procs:
            _stop(proc, kill)
    _state = None


def _workers(count):
    """`count` live workers, started or restarted as needed. A restart
    loses the training step that the workers hold."""
    global _state
    if _state is None or _state.pid != os.getpid():
        _state = _Workers()
    procs = _state.procs
    for i, proc in enumerate(procs[:count]):
        if proc.poll() is not None:
            _stop(proc)
            procs[i] = _start()
            _state.held = None
    procs += [_start() for _ in range(count - len(procs))]
    return procs[:count]


def _ended(proc):
    return RuntimeError(f"worker process {proc.pid} ended before it replied")


def _send(proc, obj):
    try:
        _dump(obj, proc.stdin)
    except BrokenPipeError:
        raise _ended(proc) from None


def _receive(proc):
    try:
        return pickle.load(proc.stdout)
    except EOFError:
        raise _ended(proc) from None


def _final(proc):
    """(ok, value, record) of proc's reply."""
    kind, *reply = _receive(proc)
    if kind != "done":
        raise RuntimeError(f"worker process {proc.pid} summed over the batch where the "
                           "caller's slice did not: the slices ran different code")
    return reply


class _Lead:
    """The caller's side of a step's sums over the batch (tensor._batch),
    with the workers that run the slices before the caller's, in batch
    order."""

    def __init__(self, procs):
        self.procs = procs

    def across(self, part, combine):
        result = combine([self._part(proc) for proc in self.procs] + [part])
        for proc in self.procs:
            _send(proc, result)
        return result

    def along(self, fold):
        carry = self._part(self.procs[0])
        for proc in self.procs[1:]:
            _send(proc, carry)
            carry = self._part(proc)
        return fold(carry)

    @staticmethod
    def _part(proc):
        kind, *reply = _receive(proc)
        if kind == "part":
            return reply[0]
        ok, value, _ = reply
        if not ok:
            raise value
        raise RuntimeError(f"worker process {proc.pid} finished its slice where the "
                           "caller's summed over the batch: the slices ran different code")


def _run(kind, fn, parts, cache=None, step=None):
    """(values, step): the values of fn over parts, the last part on the
    calling thread, after the caller's cache for a "backward", and each
    earlier part in a worker as a request of this kind; and the id of the
    step whose caches the workers keep after a "forward" of more than one
    part. Each part is fn's arguments, led by the slice's rows of the
    batch."""
    global records
    if len(parts) == 1:
        own = parts[0] if kind != "backward" else (cache, *parts[0])
        ok, value, record = _timed(lambda: fn(*own), _rows(parts[0]))
        records = [record]
        if not ok:
            raise value
        return [value], None
    starts = list(itertools.accumulate((_rows(args) for args in parts[:-1]), initial=0))
    with _lock:
        procs = _workers(len(parts) - 1)
        if procs and kind != "call":
            if kind == "backward" and _state.held != step:
                raise SpentCacheError("the worker processes no longer hold this training "
                                      "step; run forward_cached again")
            _state.held = None
        try:
            for proc, args, start in zip(procs, parts, starts):
                _send(proc, (kind, fn, args, start))
            own = parts[-1] if kind != "backward" else (cache, *parts[-1])
            tensor._batch.start = starts[-1]
            tensor._batch.exchange = _Lead(procs) if procs and kind != "call" else None
            try:
                last = _timed(lambda: fn(*own), _rows(parts[-1]))
            finally:
                tensor._batch.start, tensor._batch.exchange = 0, None
            if not last[0] and kind != "call":
                raise last[1]
            outcomes = [_final(proc) for proc in procs] + [last]
        except BaseException:
            _stop_all(kill=True)
            raise
        step = None
        if kind == "forward" and procs and all(ok for ok, _, _ in outcomes):
            step = _state.held = next(_steps)
    records = [record for _, _, record in outcomes]
    for ok, value, _ in outcomes:
        if not ok:
            raise value
    return [value for _, value, _ in outcomes], step


def run_slices(fn, parts):
    """[fn(*args) for args in parts]: the last part on the calling thread,
    each earlier one in a worker process, so a single part starts none.
    Each part is led by its slice's rows of the batch. fn must pickle by
    reference, as a module-level function or a bound method of an object
    that pickles. Returns once every part has finished, then raises the
    first part's exception, with its type and message."""
    return _run("call", fn, parts)[0]


def step_forward(fn, parts):
    """A training step's forward over the batch slices in parts, as
    run_slices, with every sum over the batch exchanged between them.

    fn(*args) returns (result, cache). Returns (results, the caller's
    cache, step): each worker keeps its slice's cache for step_backward,
    and step names what they keep (None for a single part)."""
    values, step = _run("forward", fn, parts)
    last, cache = values[-1]
    return values[:-1] + [last], cache, step


def step_backward(fn, parts, cache, step):
    """The backward of the training step that step_forward returned cache
    and step for: fn(cache, *args) over the slices in parts, each worker
    on the cache it kept, with every sum over the batch exchanged. Raises
    SpentCacheError when the workers no longer hold that step."""
    return _run("backward", fn, parts, cache, step)[0]
