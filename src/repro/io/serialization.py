"""JSON (de)serialization of workloads, strings, schedules and traces.

A reproduction is only useful if instances and results can leave the
process: these helpers give every core object a stable, versioned JSON
form so experiments can be archived, diffed and re-run.  The format is
plain ``dict``/``list`` data — no pickling — and round-trips exactly
(matrices via nested lists of floats).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.trace import ConvergenceTrace, IterationRecord
from repro.model.graph import TaskGraph
from repro.model.matrices import ExecutionTimeMatrix, TransferTimeMatrix
from repro.model.task import DataItem
from repro.model.workload import Workload, WorkloadClass
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule

#: Format version written into every document.
FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Raised when a document cannot be decoded."""


def _require(doc: dict, key: str, kind: str) -> Any:
    if key not in doc:
        raise SerializationError(f"{kind} document is missing key {key!r}")
    return doc[key]


def _check_version(doc: dict, kind: str) -> None:
    v = doc.get("version", FORMAT_VERSION)
    if v != FORMAT_VERSION:
        raise SerializationError(
            f"{kind} document has format version {v}; this library reads "
            f"version {FORMAT_VERSION}"
        )


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def workload_to_dict(workload: Workload) -> dict:
    """Encode *workload* (graph + matrices + metadata)."""
    g = workload.graph
    c = workload.classification
    return {
        "version": FORMAT_VERSION,
        "kind": "workload",
        "name": workload.name,
        "num_tasks": g.num_tasks,
        "num_machines": workload.num_machines,
        "data_items": [
            {
                "index": d.index,
                "producer": d.producer,
                "consumer": d.consumer,
                "size": d.size,
            }
            for d in g.data_items
        ],
        "exec_times": workload.exec_times.values.tolist(),
        "transfer_times": workload.transfer_times.values.tolist(),
        "classification": {
            "connectivity": c.connectivity,
            "heterogeneity": c.heterogeneity,
            "ccr": c.ccr,
            "size": c.size,
        },
    }


def workload_from_dict(doc: dict) -> Workload:
    """Decode a workload document (inverse of :func:`workload_to_dict`)."""
    _check_version(doc, "workload")
    k = int(_require(doc, "num_tasks", "workload"))
    l = int(_require(doc, "num_machines", "workload"))
    items = [
        DataItem(
            int(d["index"]),
            producer=int(d["producer"]),
            consumer=int(d["consumer"]),
            size=float(d.get("size", 1.0)),
        )
        for d in _require(doc, "data_items", "workload")
    ]
    graph = TaskGraph(k, items)
    e = ExecutionTimeMatrix(_require(doc, "exec_times", "workload"))
    tr_rows = _require(doc, "transfer_times", "workload")
    # an empty Tr arrives as [] and loses its column count; rebuild shape
    import numpy as np

    tr_arr = np.asarray(tr_rows, dtype=float)
    if tr_arr.size == 0:
        tr_arr = tr_arr.reshape(
            (l * (l - 1) // 2 if tr_arr.shape[0] != 0 else 0, graph.num_data_items)
        )
        if l * (l - 1) // 2 == 0:
            tr_arr = np.zeros((0, graph.num_data_items))
        elif graph.num_data_items == 0:
            tr_arr = np.zeros((l * (l - 1) // 2, 0))
    tr = TransferTimeMatrix(tr_arr, l)
    cdoc = doc.get("classification", {})
    classification = WorkloadClass(
        connectivity=cdoc.get("connectivity", "unspecified"),
        heterogeneity=cdoc.get("heterogeneity", "unspecified"),
        ccr=cdoc.get("ccr"),
        size=cdoc.get("size", "unspecified"),
    )
    return Workload(
        graph,
        e,
        tr,
        classification=classification,
        name=doc.get("name", ""),
    )


# ----------------------------------------------------------------------
# strings and schedules
# ----------------------------------------------------------------------


def string_to_dict(string: ScheduleString) -> dict:
    """Encode a schedule string as its segment list."""
    return {
        "version": FORMAT_VERSION,
        "kind": "schedule_string",
        "num_machines": string.num_machines,
        "segments": [[t, m] for t, m in string.pairs()],
    }


def string_from_dict(doc: dict) -> ScheduleString:
    _check_version(doc, "schedule_string")
    segments = _require(doc, "segments", "schedule_string")
    l = int(_require(doc, "num_machines", "schedule_string"))
    return ScheduleString.from_pairs(
        [(int(t), int(m)) for t, m in segments], l
    )


def schedule_to_dict(schedule: Schedule) -> dict:
    """Encode an evaluated schedule with its timing vectors."""
    return {
        "version": FORMAT_VERSION,
        "kind": "schedule",
        "order": list(schedule.order),
        "machine_of": list(schedule.machine_of),
        "start": list(schedule.start),
        "finish": list(schedule.finish),
        "makespan": schedule.makespan,
    }


def schedule_from_dict(doc: dict) -> Schedule:
    _check_version(doc, "schedule")
    return Schedule(
        order=tuple(int(t) for t in _require(doc, "order", "schedule")),
        machine_of=tuple(
            int(m) for m in _require(doc, "machine_of", "schedule")
        ),
        start=tuple(float(v) for v in _require(doc, "start", "schedule")),
        finish=tuple(float(v) for v in _require(doc, "finish", "schedule")),
        makespan=float(_require(doc, "makespan", "schedule")),
    )


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def trace_to_dict(trace: ConvergenceTrace) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "trace",
        "records": trace.to_rows(),
    }


def trace_from_dict(doc: dict) -> ConvergenceTrace:
    _check_version(doc, "trace")
    out = ConvergenceTrace()
    for r in _require(doc, "records", "trace"):
        out.append(
            IterationRecord(
                iteration=int(r["iteration"]),
                current_makespan=float(r["current_makespan"]),
                best_makespan=float(r["best_makespan"]),
                num_selected=(
                    None if r.get("num_selected") is None else int(r["num_selected"])
                ),
                elapsed_seconds=float(r.get("elapsed_seconds", 0.0)),
                mean_goodness=(
                    None
                    if r.get("mean_goodness") is None
                    else float(r["mean_goodness"])
                ),
                evaluations=int(r.get("evaluations", 0)),
            )
        )
    return out


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------

_ENCODERS = {
    Workload: workload_to_dict,
    ScheduleString: string_to_dict,
    Schedule: schedule_to_dict,
    ConvergenceTrace: trace_to_dict,
}

_DECODERS = {
    "workload": workload_from_dict,
    "schedule_string": string_from_dict,
    "schedule": schedule_from_dict,
    "trace": trace_from_dict,
}


def save_json(obj, path: str | Path, indent: int = 2) -> Path:
    """Serialise a workload / string / schedule / trace to a JSON file."""
    for cls, encode in _ENCODERS.items():
        if isinstance(obj, cls):
            doc = encode(obj)
            break
    else:
        raise TypeError(
            f"cannot serialise {type(obj).__name__}; expected one of "
            f"{[c.__name__ for c in _ENCODERS]}"
        )
    path = Path(path)
    path.write_text(json.dumps(doc, indent=indent))
    return path


def load_json(path: str | Path):
    """Load any document written by :func:`save_json` (kind-dispatched)."""
    doc = json.loads(Path(path).read_text())
    kind = doc.get("kind")
    if kind not in _DECODERS:
        raise SerializationError(
            f"unknown or missing document kind {kind!r}; expected one of "
            f"{sorted(_DECODERS)}"
        )
    return _DECODERS[kind](doc)
