"""Force an engine off its vectorized scoring route.

Engines carry no batch switch: the
:class:`~repro.optim.evaluation.EvaluationService` picks the route from
the kernels the network table lists for the network.  Tests that pin
the sequential route therefore drop those kernels from the table for
the duration of a block, so every service built inside reports
``is_vectorized`` False.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.schedule import backend as backend_mod


@contextmanager
def no_batch_kernel(network: str = backend_mod.DEFAULT_NETWORK) -> Iterator[None]:
    """Drop *network*'s NumPy and jit batch kernels from the table."""
    scalar = backend_mod._NETWORK_TABLE[network][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(backend_mod._NETWORK_TABLE, network, (scalar, None, None))
        yield
