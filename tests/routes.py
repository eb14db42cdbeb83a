"""Force an engine off its vectorized scoring route, or a simulator
onto one walker tier.

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


@contextmanager
def walker(mode: str) -> Iterator[None]:
    """Build simulators on the *mode* walker tier inside the block.

    ``"python"`` forces the Python walker; ``"compiled"`` unsets the
    switch, so the C walker serves when it loads (on a host without a
    compiler the block gets the Python tier, so tier comparisons stay
    meaningful).
    """
    from repro.schedule.walker import ENV

    with pytest.MonkeyPatch.context() as mp:
        if mode == "python":
            mp.setenv(ENV, "python")
        else:
            mp.delenv(ENV, raising=False)
        yield
