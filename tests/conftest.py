from pathlib import Path

import numpy as np
import pytest


def central_difference(fn, z, step=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for i in range(z.size):
        bump = np.zeros_like(z)
        bump[i] = step
        grad[i] = (fn(z + bump) - fn(z - bump)) / (2.0 * step)
    return grad


def rel_error(actual, expected) -> float:
    """Vector-norm relative error of ``actual`` against ``expected``."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = max(np.linalg.norm(expected), 1e-300)
    return float(np.linalg.norm(actual - expected) / denom)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def open_failing_on_write(name_prefix: str, exc: BaseException):
    """A stand-in for ``open``: files whose name starts with ``name_prefix``
    raise ``exc`` on every write after their first; others pass through."""
    real_open = open

    class File:
        def __init__(self, path, mode, **kwargs):
            self.fh = real_open(path, mode, **kwargs)
            self.fails = Path(path).name.startswith(name_prefix)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.fails and self.writes > 1:
                raise exc
            return self.fh.write(data)

    return File
