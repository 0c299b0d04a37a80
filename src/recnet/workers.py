"""Worker processes for the batch slices of the inference forward.

RecNetModel.forward hands every batch to run_slices: a batch that fits one
block as one slice, a larger one as one contiguous slice per CPU. A slice
makes thousands of short NumPy calls, so threads running slices queue for
the interpreter lock; processes do not. run_slices runs the first slice on
the calling thread and hands each other one to a worker process of its
own, so one slice starts no process.

A worker is a fresh interpreter (`python -c`), started by the first call
that needs it and kept for the next ones. It imports the caller's own
recnet and inherits the caller's environment and CPU affinity. It reads
requests (fn, args) pickled on its stdin, runs fn(*args) with every _split
serial, and writes the result, or the exception fn raised, pickled on its
stdout; a Param pickles without its gradient. A worker exits at the end of
its stdin: at the caller's exit each worker's stdin is closed, and a
worker still running after a timeout is killed. A lock makes one call's
requests and replies one exchange, and a pipe error in an exchange stops
every worker, so the next call starts new ones.

multiprocessing is not used: its spawn and forkserver contexts leave a
resource-tracker process running after the caller exits and re-run an
unguarded main script in the child, and fork is unsafe once the thread
pool's threads exist.
"""

import atexit
import os
import pickle
import signal
import subprocess
import sys
import threading

from .tensor import Param, _serial

_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from recnet.workers import serve; serve()"
# Seconds a worker gets to exit once its stdin is closed, before a kill.
_EXIT_TIMEOUT_S = 5.0

_lock = threading.Lock()
# (pid, [Popen]): the workers and the process that started them. A forked
# child starts its own, since its parent's pipes are not its to use.
_state = None


class _Pickler(pickle.Pickler):
    """Pickles a Param as its data alone: a worker reads no gradient."""

    def reducer_override(self, obj):
        if isinstance(obj, Param):
            return type(obj), (obj.data,)
        return NotImplemented


def serve():
    """A worker's loop: answer each request until the end of stdin. The
    caller handles Ctrl-C, and a stray print goes to stderr, not into a
    reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _serial.on = True
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = True, fn(*args)
        except Exception as exc:
            reply = False, exc
        pickle.dump(reply, replies)
        replies.flush()


def _start():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.Popen([sys.executable, "-c", _CODE, src],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _stop(proc):
    """Close proc's stdin, wait for it to exit, kill it past the timeout."""
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
def _stop_all():
    """Stop every worker this process started."""
    global _state
    if _state is not None and _state[0] == os.getpid():
        for proc in _state[1]:
            _stop(proc)
    _state = None


def _workers(count):
    """`count` live workers, started or restarted as needed."""
    global _state
    if _state is None or _state[0] != os.getpid():
        _state = (os.getpid(), [])
    procs = _state[1]
    for i, proc in enumerate(procs[:count]):
        if proc.poll() is not None:
            _stop(proc)
            procs[i] = _start()
    procs += [_start() for _ in range(count - len(procs))]
    return procs[:count]


def _receive(proc):
    try:
        return pickle.load(proc.stdout)
    except EOFError:
        raise RuntimeError(f"inference worker process {proc.pid} ended before it "
                           "replied") from None


def run_slices(fn, parts):
    """[fn(*args) for args in parts]: parts[0] on the calling thread with
    every _split serial, each later one in a worker process, so a single
    part starts none. fn must pickle by reference, as a module-level
    function or a bound method of an object that pickles. Returns once
    every part has finished, then raises the first part's exception, with
    its type and message."""
    with _lock:
        procs = _workers(len(parts) - 1)
        try:
            for proc, args in zip(procs, parts[1:]):
                _Pickler(proc.stdin).dump((fn, args))
                proc.stdin.flush()
            _serial.on = True
            try:
                first = True, fn(*parts[0])
            except Exception as exc:
                first = False, exc
            finally:
                _serial.on = False
            outcomes = [first] + [_receive(proc) for proc in procs]
        except BaseException:
            _stop_all()
            raise
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
