"""recnet benchmark: one workload per process, as a closed loop with one
client and single-threaded BLAS.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 30 --trace 0

Run from the repository root; recnet is imported from ./src. The report
goes to standard output, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run (see README.md).
"""

import os
import sys
import time

T_START = time.perf_counter()
# One client, one thread: fixed before NumPy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "work")
SETUP_PROBES = 8
WORKLOAD_NAMES = ("train-ref", "infer-ref", "epoch-smoke")


def import_recnet():
    """Import recnet from this checkout's src, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import recnet
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import recnet from {SRC}: {exc}")
    if not os.path.abspath(recnet.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: recnet resolved to {recnet.__file__}, not to {SRC}")


def measure(workload, seconds, tracer=None, calibration=None):
    """Run operations back to back until `seconds` have passed (at least
    one); returns (per-op wall times, failed op count, calibration pass
    times taken before every op and after the last)."""
    times, cal_times, failed = [], [], 0
    end = time.perf_counter() + seconds
    while True:
        if calibration is not None:
            cal_times.append(calibration.run())
        if tracer is not None:
            tracer.op = len(times)
        t = time.perf_counter()
        ok = workload.op()
        times.append(time.perf_counter() - t)
        failed += not ok
        if time.perf_counter() >= end:
            if calibration is not None:
                cal_times.append(calibration.run())
            return times, failed, cal_times


def setup_samples(args, own):
    """This process's set-up time plus that of fresh interpreters doing the
    same imports and set-up."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def unit_of(name):
    for suffix, unit in ((".calls", "count"), (".ops", "count"), ("_gmacs", "GMAC/s"),
                         ("us_per_call", "us"), ("_mb", "MB"), ("_mb_computed", "MB"),
                         (".bytes", "B"), ("_frac", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def plain_run(workload, args, own_setup):
    from calibration import REFERENCE_S, Calibration

    times, failed, cal_times = measure(workload, args.seconds, calibration=Calibration())
    setups = setup_samples(args, own_setup)
    # Each op is scaled by the calibration passes just before and after it.
    brackets = [(a + b) / 2 for a, b in zip(cal_times, cal_times[1:])]
    op_ref_s = statistics.median(t * REFERENCE_S / c for t, c in zip(times, brackets))
    op_s = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ref_s": op_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"  wall: op {op_s:.4f} s (median of {len(times)} ops), set-up "
          f"{statistics.median(setups):.4f} s (median of {len(setups)})")
    print(f"  calibration pass {statistics.median(cal_times):.4f} s (median of "
          f"{len(cal_times)}), reference {REFERENCE_S} s")
    for speed, op in (("wall", op_s), ("reference speed", op_ref_s)):
        name, unit, value = workload.headline(op)
        print(f"  {name} at {speed}: {value:.4f} {unit} per {workload.unit_name}")
    return len(times), failed, metrics


def traced_run(workload, args):
    import tracing
    half = args.seconds / 2
    plain, failed, _ = measure(workload, half)
    spans = tracing.Tracer(workload.model)
    with spans:
        traced, traced_failed, _ = measure(workload, half, spans)
    # One more op with tracemalloc on, for the per-span peaks only.
    memory = tracing.Tracer(workload.model, memory=True)
    with memory:
        _, memory_failed, _ = measure(workload, 0, memory)

    cfg = workload.model.cfg
    metrics = dict.fromkeys(tracing.per_layer_names(cfg), 0.0)
    metrics.update(tracing.phase_metrics(spans.spans, cfg))
    metrics.update(tracing.peak_metrics(memory.spans))
    metrics.update(tracing.roof_metrics(workload.model, workload.batch, args.seed))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics.update({"trace.ops": len(traced), "trace.overhead_s": overhead,
                    "trace.overhead_frac": overhead / statistics.median(plain)})
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.csv.gz")
    spans.write(path)
    print(f"  {len(spans.spans)} spans over {len(traced)} traced ops written to {path}")
    print(f"  untraced median {statistics.median(plain):.4f} s over {len(plain)} ops, "
          f"traced median {statistics.median(traced):.4f} s over {len(traced)} ops")
    return len(plain) + len(traced) + 1, failed + traced_failed + memory_failed, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    import_recnet()
    from workloads import WORKLOADS

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(own_setup)
        return 0
    try:
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}")
        checks = workload.checks()
        if args.trace:
            ops, failed, metrics = traced_run(workload, args)
        else:
            ops, failed, metrics = plain_run(workload, args, own_setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    bad = [c for c in checks if not c[1]]
    for name, _, detail in bad:
        print(f"  CHECK FAILED {name}: {detail}")
    attempted = ops + len(checks)
    failed += len(bad)
    print(f"  checks: {len(checks) - len(bad)} of {len(checks)} passed")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
