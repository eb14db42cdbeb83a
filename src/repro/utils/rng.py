"""Deterministic random-number handling.

Every stochastic component in the library (SE engine, GA baseline, workload
generators) accepts a ``RandomSource`` — either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` for OS entropy — and normalises
it through :func:`as_rng`.  Determinism under a fixed seed is part of the
public contract and is enforced by the test suite: two runs constructed from
the same seed must produce identical traces.
"""

from __future__ import annotations

import hashlib
from typing import Any, Union

import numpy as np

#: Anything accepted where randomness is needed.
RandomSource = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(source: RandomSource = None) -> np.random.Generator:
    """Normalise *source* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    source:
        ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence``,
        or an existing ``Generator`` (returned unchanged so state is
        shared with the caller).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    if source is None or isinstance(source, (int, np.integer)):
        return np.random.default_rng(source)
    raise TypeError(
        f"cannot build a random generator from {type(source).__name__!r}; "
        "expected None, int, SeedSequence or numpy.random.Generator"
    )


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from arbitrary (repr-able) coordinates.

    SHA-256 based, so identical coordinates give identical seeds on any
    platform/process — the root of the runner's worker-count-independent
    determinism (:mod:`repro.runner.spec` cells) and of the online
    service's per-job streams.
    """
    digest = hashlib.sha256(
        "\x1f".join(repr(p) for p in parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def spawn_rngs(source: RandomSource, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent generators from one source.

    Used when an experiment fans out into parallel components (e.g. the
    SE-vs-GA comparison harness gives each algorithm its own stream so the
    two runs do not perturb each other).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(source, np.random.SeedSequence):
        seq = source
    elif isinstance(source, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = source.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    else:
        seq = np.random.SeedSequence(source)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
