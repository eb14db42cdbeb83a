"""Force a simulator onto one walker tier."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest


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
