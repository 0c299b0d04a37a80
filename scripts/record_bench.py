"""Record benchmark runs of one or more checkouts into one BENCH_<pr>.json.

    python3 scripts/record_bench.py --pr NUMBER --rounds 10 parent=../parent change=.

Each LABEL=PATH names a git checkout. The script runs that checkout's own
`perfbench/run.py`, unchanged, from the checkout's root, once per
workload, round and checkout, for the run length that checkout's
benchmark fixes. In each round the checkouts run in turn,
and the first checkout of a round alternates, so that pairs compare runs
made minutes apart. Round r runs with seed `--seed` + r. `--cpu N` pins
every run to CPU N; by default a run keeps the affinity this script has.
After `--workloads`, put `--` before the checkouts.

The output file is one JSON object: the host (CPU model, CPU count, the
runs' affinity, Python, NumPy and BLAS versions), the options, and one
record per run with its label, commit, whether the checkout differs
from that commit, workload, seed, trace flag, start time, the run's last
line (its JSON result), and, parsed from its report, the median wall time
of one operation and of the calibration pass (`--trace 0`), or the
untraced and traced medians (`--trace 1`).
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

WORKLOADS = ("train-ref", "infer-ref", "epoch-smoke")
# Report lines of perfbench/run.py that hold the raw medians.
PATTERNS = {
    "op_wall_s": r"wall: op ([0-9.]+) s",
    "calibration_s": r"calibration pass ([0-9.]+) s",
    "untraced_op_s": r"untraced median ([0-9.]+) s",
    "traced_op_s": r"traced median ([0-9.]+) s",
}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host(cpus):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu_model(), "cpu_count": os.cpu_count(), "affinity": sorted(cpus),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


def commit(path):
    """(commit hash, whether the checkout's files differ from it)."""
    def git(*args):
        return subprocess.run(["git", "-C", path, *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def run(path, workload, seed, args, cpus):
    """One perfbench run: (its JSON result, the parsed medians)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=1800,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {path} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    parsed = {}
    for name, pattern in PATTERNS.items():
        found = re.search(pattern, done.stdout)
        if found:
            parsed[name] = float(found.group(1))
    return json.loads(lines[-1]), parsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", metavar="LABEL=PATH")
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpu", type=int, help="pin every run to this CPU")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    trees = [tree.split("=", 1) for tree in args.trees]
    cpus = {args.cpu} if args.cpu is not None else os.sched_getaffinity(0)
    commits = {label: commit(path) for label, path in trees}
    out = f"BENCH_{args.pr}.json"
    records = []
    for r in range(args.rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for workload in args.workloads:
            for label, path in order:
                start = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
                result, parsed = run(path, workload, args.seed + r, args, cpus)
                records.append({"label": label, "commit": commits[label][0],
                                "dirty": commits[label][1], "workload": workload,
                                "seed": args.seed + r, "trace": args.trace,
                                "started": start, "result": result, **parsed})
                print(f"round {r} {workload} {label}: "
                      + " ".join(f"{k}={v}" for k, v in parsed.items()), flush=True)
    with open(out, "w") as fh:
        options = {name: getattr(args, name)
                   for name in ("workloads", "rounds", "seed", "trace", "cpu")}
        json.dump({"pr": args.pr, "host": host(cpus), "options": options, "runs": records},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
