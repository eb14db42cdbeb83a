"""Extensions beyond the paper's model.

* :mod:`~repro.extensions.contention` — NIC-serialised network model, a
  full simulator backend (network name ``"nic"``) every optimiser in
  the library can run against;
* :mod:`~repro.extensions.hybrid` — HEFT-seeded warm starts for SE and
  the GA (never worse than HEFT by construction).
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.extensions.contention": (
            "ContentionDeltaState",
            "ContentionSchedule",
            "ContentionSimulator",
            "TransferRecord",
            "contention_penalty",
        ),
        "repro.extensions.hybrid": ("heft_seeded_ga", "heft_seeded_se"),
    },
)
