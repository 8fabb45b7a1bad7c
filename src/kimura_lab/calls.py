"""NumPy calls bound once to fixed arrays, then replayed.

The kernels of a step (a field's ``evaluate_into``, a spec's ``log_drift``
and ``drift``, an equation's ``drift_batch`` and ``noise_batch``, the drift
change's ``theta_batch``) are binders: handed their arrays and a
:class:`Calls`, a kernel appends the NumPy calls that compute its answer and
returns the array those calls write, running none of them.  The calls read
and write their arrays in place, so a stepping loop binds each kernel to its
workspace once and replays the calls step after step.  A kernel called
without ``calls=``, as a library caller does, gets :data:`NOW`, which runs
each call as the kernel makes it: a kernel reads no array while it binds,
so the calls run in the same order either way.  Work that cannot be bound, an
eigen-decomposition or a lattice interpolation, is bound as one call to its
own eager entry (:func:`assign`), which costs a Python call a step.  What a
list holds changes its cost, not how the stepping loop tests its states.
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

__all__ = ["Calls", "NOW", "assign"]


class Calls(list):
    """NumPy calls bound to fixed arrays, in the order they run."""

    def add(self, fn, *args, **kwargs) -> None:
        self.append(partial(fn, *args, **kwargs))

    def run(self) -> None:
        for call in self:
            call()


class _Now(Calls):
    """Calls run as they are bound, none kept."""

    # ``fn(*args, **kwargs)``; operator.call (Python 3.11) adds no frame
    add = staticmethod(getattr(operator, "call",
                               lambda fn, /, *args, **kwargs: fn(*args, **kwargs)))


# every kernel's default ``calls``: a library caller's call runs at once
NOW = _Now()


def assign(out: np.ndarray, fn, *args) -> None:
    """``fn(*args)`` written into ``out``: an eager entry bound as one call."""
    np.copyto(out, fn(*args))
