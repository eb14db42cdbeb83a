"""Force an engine onto one batch route, or a simulator onto one
walker tier.

Engines carry no batch switch: the
:class:`~repro.optim.evaluation.EvaluationService` picks the route from
the kernel the network table lists and from whether numba imports.
Tests that pin the sequential route drop the kernel from the table for
the duration of a block; tests that pin the kernel route mark numba
available, so the kernel runs (as plain Python where numba is absent).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.schedule import backend as backend_mod


@contextmanager
def no_batch_kernel(network: str = backend_mod.DEFAULT_NETWORK) -> Iterator[None]:
    """Drop *network*'s batch kernel from the table."""
    scalar = backend_mod._NETWORK_TABLE[network][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(backend_mod._NETWORK_TABLE, network, (scalar, None))
        yield


@contextmanager
def jit_kernel() -> Iterator[None]:
    """Select the ``jit`` tier inside the block, numba or not."""
    from repro.schedule import jit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jit, "_NUMBA_OK", True)
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
