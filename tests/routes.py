"""Force an engine off its vectorized scoring route.

Engines carry no batch switch: the
:class:`~repro.optim.evaluation.EvaluationService` picks the route from
the kernels registered for the network.  Tests that pin the sequential
route therefore unregister those kernels for the duration of a block,
so every service built inside reports ``is_vectorized`` False.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.schedule import backend as backend_mod


@contextmanager
def no_batch_kernel(network: str = backend_mod.DEFAULT_NETWORK) -> Iterator[None]:
    """Unregister *network*'s NumPy and (if present) jit batch kernels."""
    backend_mod._ensure_builtins()
    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(backend_mod._BATCH_NETWORKS, network)
        mp.delitem(backend_mod._JIT_NETWORKS, network, raising=False)
        yield
