"""Transfer-time matrix generation from a CCR target (paper §5).

The paper defines CCR as "the ratio of size of data item over execution
time of the subtask generating this item": CCR = 0.1 means communication
is cheap relative to computation (lightly communicating subtasks),
CCR = 1 means they are comparable (heavily communicating).

Given the DAG, the execution matrix and a target CCR, each data item's
*base* transfer time is ``ccr * mean_exec(producer) * jitter`` and each
machine pair scales it with a mild link factor — a uniform high-speed
network with realistic variation, consistent with the paper's fully
connected model.
"""

from __future__ import annotations

import numpy as np

from repro.model.graph import TaskGraph
from repro.model.matrices import (
    ExecutionTimeMatrix,
    TransferTimeMatrix,
    num_pairs,
)
from repro.utils.rng import RandomSource, as_rng

#: CCR values the paper quotes for its qualitative classes.
CCR_CLASSES = {"low": 0.1, "medium": 0.5, "high": 1.0}


def transfer_matrix(
    graph: TaskGraph,
    exec_times: ExecutionTimeMatrix,
    ccr: float,
    item_jitter: tuple[float, float] = (0.8, 1.2),
    pair_jitter: tuple[float, float] = (0.9, 1.1),
    seed: RandomSource = None,
) -> TransferTimeMatrix:
    """Generate ``Tr`` hitting the target *ccr* in expectation.

    Parameters
    ----------
    graph:
        Supplies each item's producer.
    exec_times:
        The matching ``E`` (mean producer time anchors each item's cost).
    ccr:
        Target communication-to-cost ratio (>= 0).
    item_jitter:
        Per-item multiplicative spread around the CCR anchor.
    pair_jitter:
        Per-machine-pair link-speed spread.
    seed:
        Randomness source.
    """
    if ccr < 0:
        raise ValueError(f"ccr must be >= 0, got {ccr}")
    for name, (lo, hi) in (
        ("item_jitter", item_jitter),
        ("pair_jitter", pair_jitter),
    ):
        if lo < 0 or hi < lo:
            raise ValueError(
                f"{name} must satisfy 0 <= lo <= hi, got {(lo, hi)}"
            )
    rng = as_rng(seed)

    l = exec_times.num_machines
    p = graph.num_data_items
    rows = num_pairs(l)
    if p == 0 or rows == 0:
        return TransferTimeMatrix(np.zeros((rows, p)), l)

    base = np.empty(p)
    for d in graph.data_items:
        anchor = exec_times.average_time(d.producer)
        base[d.index] = ccr * anchor * rng.uniform(*item_jitter)
    pair_factor = rng.uniform(*pair_jitter, size=rows)
    return TransferTimeMatrix(pair_factor[:, None] * base[None, :], l)
