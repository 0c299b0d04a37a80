"""The benchmark's traced runs replace recnet functions by the names their
callers bind (perfbench/tracing.py). A rename or a dropped import in recnet
breaks `perfbench/run.py --trace 1`, and a call that goes around a replaced
name zeroes per-layer numbers, without failing any other test. So this loads
the tracer from its file, unchanged, checks every name it replaces, and
checks that a traced step records every layer.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from recnet.model import RecNetConfig, build
from recnet.train import softmax_cross_entropy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracing):
    return tracing.Tracer(build(RecNetConfig.from_arch_string("1,2,2,2,2,2,2"), seed=0))


def test_every_traced_name_resolves(tracer):
    targets = list(tracer._targets())
    assert targets
    for owner, attr, name, _, _ in targets:
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr}"
        assert callable(vars(owner)[attr]), name


def test_install_and_restore(tracer):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer._targets()]
    with tracer:
        for owner, attr, fn in originals:
            assert vars(owner)[attr] is not fn
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn


def test_traced_names_record_spans(tracing):
    """A call that goes around a traced name (through another module's
    binding, or by keyword where the tracer reads positional (x, m)) leaves
    its layer's spans empty. One training step and one eval forward of the
    smoke model must give every ledger row forward time, every row backward
    time in the step, and every replaced name outside train() a span; the
    eval forward alone must record every name of a forward function."""
    cfg = RecNetConfig.from_arch_string("1,2,2,2,2,2,2")
    model = build(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((4, 3, 32, 32)).astype(np.float32)
    tracer = tracing.Tracer(model)
    with tracer:
        tracer.op = 0
        logits, cache = model.forward_cached(x)
        _, dlogits = softmax_cross_entropy(logits, np.arange(4) % cfg.n_classes)
        model.zero_grad()
        model.backward(cache, dlogits.astype(logits.dtype))
        tracer.op = 1
        model.forward(x)

    per_op = tracing._op_metrics(tracer.spans, cfg)
    rows = tracing.ledger_layout(cfg)[0]
    for op, directions in ((0, ("fwd", "bwd")), (1, ("fwd",))):
        metrics = per_op[op]
        for i, kind, _ in rows:
            for direction in directions:
                name = f"layer.{i:02d}.{kind}.{direction}_s"
                assert metrics[name] > 0, f"op {op}: {name}"
        for name in ("tensor.batchnorm.self_s", "crc.self_s"):
            assert metrics[name] > 0, f"op {op}: {name}"
    step, forward = ({s[tracing.NAME] for s in tracer.spans if s[tracing.OP] == op}
                     for op in (0, 1))
    for _, _, name, _, _ in tracer._targets():
        if name.startswith("train."):
            continue
        assert name in step | forward, name
        if "backward" not in name and "cached" not in name:
            assert name in forward, f"eval forward: {name}"
