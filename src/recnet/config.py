"""Global numeric settings.

Training runs in float32 by default. The verification suites (gradient
checks, computation-form equivalences) need float64 headroom to meet their
tolerances, so a process-wide default dtype can be switched, either
permanently via :func:`set_default_dtype` or temporarily via the
:func:`use_dtype` context manager.
"""

from contextlib import contextmanager

import numpy as np

_DEFAULT_DTYPE = np.float32


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype):
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; expected float32 or float64")
    _DEFAULT_DTYPE = dtype.type


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default dtype (e.g. float64 verification mode)."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)
