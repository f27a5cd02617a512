"""Optional-dependency guard shared by every vectorized module.

The library is dependency-free by design; NumPy is a pure *accelerator*
(the ``[fast]`` extra in ``pyproject.toml``).  Every module with a
vectorized code path imports this single guard instead of try/excepting
``numpy`` itself, so the decision — and the test hook to force the pure
Python fallback — lives in exactly one place.

Usage — a *decider* asks per call and owns both legs::

    from .._compat import get_numpy

    np = get_numpy()
    if np is None:
        ...  # the scalar loop: place() per address, choose() per request
    else:
        ...  # hand ``np`` to the vectorized engine

There are few deciders (the placement batch driver, ``choose_many``, the
fleet engine, the workload samplers).  What they call on the NumPy leg
— engine hooks, :mod:`repro.placement.kernels`, the array primitives in
:mod:`repro.hashing.primitives` — is NumPy-only: it takes ``np`` as a
parameter or binds it once at import, and has no list-based twin.  The
scalar loop is the fallback *and* the oracle.

Setting the environment variable ``REPRO_PURE_PYTHON=1`` (before import)
disables NumPy even when it is installed — used by the equivalence tests
and handy for bisecting suspected fast-path bugs in production.
"""

from __future__ import annotations

import os
from typing import Any, Optional

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

if os.environ.get("REPRO_PURE_PYTHON"):
    _numpy = None

#: The numpy module, or None when unavailable/disabled.  Tests monkeypatch
#: this attribute (not their own import) to force the fallback path.
np: Optional[Any] = _numpy

#: True when the vectorized fast paths are active.
HAVE_NUMPY: bool = np is not None


def get_numpy() -> Optional[Any]:
    """Return the numpy module, or None to request the pure-Python path.

    Deciders consult it at *call* time (never cached), so monkeypatching
    :data:`repro._compat.np` to None switches every batch entry point to
    its scalar loop at once.
    """
    return np

