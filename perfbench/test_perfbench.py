"""Self-tests of the benchmark, run from the repository root:

    python3 -m pytest perfbench -q

The short-run tests start the benchmark once per workload and trace mode;
together they take a few minutes on one core.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from recnet import RecNetConfig, build  # noqa: E402
from recnet.train import softmax_cross_entropy  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _pass(model, x, y):
    """Eval logits, then one training forward/backward; returns every array
    the model produced."""
    model.set_mode("eval")
    eval_logits = model.forward(x)
    model.set_mode("train")
    logits, cache = model.forward_cached(x)
    _, dlogits = softmax_cross_entropy(logits, y)
    model.zero_grad()
    model.backward(cache, dlogits.astype(logits.dtype))
    return [eval_logits, logits] + [p.grad for _, p in model.named_params()]


@pytest.mark.parametrize("memory", [False, True])
def test_tracing_changes_no_arithmetic_and_restores_every_name(memory):
    cfg = RecNetConfig.from_arch_string(workloads.SMOKE_ARCH, n_classes=workloads.N_CLASSES)
    x, y = workloads.fixed_batches(0, 1)[0]
    x, y = x[:4], y[:4]
    plain_model, traced_model = build(cfg, seed=0), build(cfg, seed=0)
    for model in (plain_model, traced_model):
        workloads.seeded_head(model, np.random.default_rng(0))
    tracer = tracing.Tracer(traced_model, memory=memory)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer._targets()]

    plain = _pass(plain_model, x, y)
    with tracer:
        traced = _pass(traced_model, x, y)

    assert tracer.spans
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


# Layers each workload must not touch, read from its traced run.
BYPASSED = {
    "train-ref": ("data.next_batch_s", "checkpoint.save_s"),
    "infer-ref": tuple(m["name"] for m in BENCH["per_layer"] if m["name"].endswith(".bwd_s"))
    + ("tensor.conv2d_backward.calls",),
    "epoch-smoke": (),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_short_run_emits_every_named_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        for name in BYPASSED[workload]:
            assert result["metrics"][name]["value"] == 0, name
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package():
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _run("epoch-smoke", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
