import numpy as np
import pytest

from recnet.train import METRICS_HEADER


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def numerical_grad(f, arr, h=1e-4):
    """Independent central-difference oracle: perturbs arr in place and
    differences the scalar f()."""
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        out[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def metrics_csv(rows):
    """The metrics log train() writes, rebuilt from its returned rows."""
    return "\n".join([METRICS_HEADER] + [r.csv() for r in rows]) + "\n"
