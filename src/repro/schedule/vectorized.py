"""Names the benchmark harness under ``perfbench/`` still reads.

Every batch runs :class:`~repro.optim.evaluation.EvaluationService`'s
loop over its scalar backend; no batch kernel is left.
"""

from __future__ import annotations


class BatchSimulator:
    """Stub with no caller; ROADMAP item 1 deletes it."""

    # perfbench's tracer wraps these two methods by name
    def makespans(self, *args, **kwargs):
        raise NotImplementedError("batches run EvaluationService.batch_makespans")

    string_makespans = makespans


def pack_cache_stats() -> dict:
    """Zero counts (no workload pack exists); ROADMAP item 1 deletes it."""
    return {"hits": 0, "misses": 0, "size": 0}
