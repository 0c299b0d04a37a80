"""The benchmark's traced runs replace recnet functions by the names their
callers bind (perfbench/tracing.py). A rename or a dropped import in recnet
breaks `perfbench/run.py --trace 1` without failing any other test, so this
loads the tracer from its file, unchanged, and checks every name it replaces.
"""

import importlib.util
from pathlib import Path

import pytest

from recnet.model import RecNetConfig, build

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
