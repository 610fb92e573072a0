"""A guard on ``pytest.approx`` for every test in the session.

``pytest.approx(expected, rel=r)`` with no ``abs`` also accepts anything
within its default absolute tolerance, 1e-12, of ``expected``.  Where
``r * |expected|`` is below that, the assertion is looser than the ``rel``
it states; for an expected value below 1e-12 it accepts 0.  The guard fails
such a call, so that each one gives the ``abs`` it means: 0, or a value set
from the expected value's own scale.
"""
import numpy as np
import pytest

APPROX_DEFAULT_ABS = 1e-12
_approx = pytest.approx


def _guarded_approx(expected, rel=None, abs=None, nan_ok=False):
    if rel is not None and abs is None:
        values = list(expected.values()) if isinstance(expected, dict) else expected
        try:
            sizes = np.abs(np.asarray(values, dtype=complex)).ravel()
        except (TypeError, ValueError):  # not numbers: approx itself refuses or compares them
            sizes = np.empty(0)
        hidden = sizes[(sizes > 0.0) & (rel * sizes < APPROX_DEFAULT_ABS)]
        if hidden.size:
            pytest.fail(f"pytest.approx(rel={rel!r}) with no abs: its default abs "
                        f"{APPROX_DEFAULT_ABS:g} exceeds rel * |expected| = "
                        f"{rel * hidden[0]:.3g}; give an explicit abs")
    return _approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)


pytest.approx = _guarded_approx
