"""Golden bytes of seeded training and of `recnet verify`.

Each entry below is one seeded `recnet` command, run with one BLAS thread
in a fresh process from this checkout's `src`; its entry keeps the SHA-256
of what the command writes. `tests/test_golden_bytes.py` reruns the
commands and compares against the committed `tests/golden_bytes.json`. The
bytes do not depend on how many CPUs the process may use, since recnet
cuts a large batch into one slice per CPU without moving a bit, so the
test also reruns on a single CPU the one entry whose batch is cut. A change that alters these bytes on
purpose re-records the file in the same commit, and says why, with

    python3 tests/record_golden.py

The bytes belong to one environment: the NumPy build, the BLAS library and
the kernels it picks for the CPU. The file records all three.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_bytes.json")
RECORD_COMMAND = "python3 tests/record_golden.py"

SMOKE = "1,2,2,2,2,2,2"
TRAIN_FLAGS = ["--synthetic", "--restarts", "", "--seed", "3", "--epochs", "2"]
TRAIN_RUNS = {
    "relu": [SMOKE, "--variant", "relu"],
    "shared-bn": [SMOKE, "--variant", "shared-bn"],
    "separate-bn": [SMOKE, "--variant", "separate-bn"],
    "linear": [SMOKE, "--variant", "linear"],
    "linear-kx3-kh1": [SMOKE, "--variant", "linear", "--kx", "3", "--kh", "1"],
    "linear-kx1-kh3": [SMOKE, "--variant", "linear", "--kx", "1", "--kh", "3"],
    "linear-1,1,1,1,3,3,3": ["1,1,1,1,3,3,3", "--variant", "linear"],
    # Its stage blocks are 21, 85 and 341 samples, so a batch of 64 runs in
    # one slice per CPU.
    "separate-bn-2,4,4,4,3,3,3": ["2,4,4,4,3,3,3", "--synthetic-train", "256",
                                  "--synthetic-test", "64"],
}
VERIFY = ["verify", "--suite", "all", "--seed", "0", "--trials", "1"]
ENTRIES = [*TRAIN_RUNS, "verify"]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """What the bytes depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu": _cpu_model()}


def _recnet(argv, cpu=None):
    """stdout of `python -m recnet *argv` with one BLAS thread, pinned to
    the given CPU when one is given."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    done = subprocess.run([sys.executable, "-m", "recnet", *argv], env=env,
                          capture_output=True, timeout=600, preexec_fn=pin)
    if done.returncode != 0:
        raise RuntimeError(f"recnet {' '.join(argv)} exited {done.returncode}:\n"
                           + done.stderr.decode(errors="replace"))
    return done.stdout


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def record(name, work_dir, cpu=None):
    """The golden entry `name`: its command and the hashes of its output,
    run on the given CPU alone when one is given."""
    if name == "verify":
        return {"command": "recnet " + " ".join(VERIFY),
                "stdout": _sha256(_recnet(VERIFY, cpu))}
    argv = ["train", *TRAIN_RUNS[name], *TRAIN_FLAGS]
    out = Path(work_dir, name)
    _recnet([*argv, "--out", str(out)], cpu)
    return {"command": "recnet " + " ".join(a or '""' for a in argv),
            **{f: _sha256((out / f).read_bytes()) for f in ("metrics.csv", "model.ckpt")}}


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        entries = {name: record(name, work_dir) for name in ENTRIES}
    GOLDEN.write_text(json.dumps({"environment": environment(), "entries": entries},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
