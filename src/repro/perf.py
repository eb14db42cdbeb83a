"""Machine-readable performance records and the perf-regression gate.

Every micro-benchmark (the MICRO-* cases under ``benchmarks/``)
serializes its headline numbers through this module into
``benchmarks/output/BENCH_micro.json`` — a flat JSON list of records in
the stable schema::

    {"bench": "MICRO-COMPILED", "metric": "makespan_speedup",
     "value": 13.47, "unit": "x", "commit": "4538d5e", "python": "3.11.7"}

``bench``/``metric`` identify a measurement, ``value``/``unit`` carry
it, and ``commit``/``python`` record provenance.  The **unit encodes
the regression direction**: time units (``s``, ``ms``, ``us``, ``ns``)
and cost units (``usd``) regress when the value *rises*; every other
unit (ratios ``x``, throughputs) regresses when the value *falls*, so
a ratio where lower is better (an overhead) is recorded inverted.
Records whose metric name mentions ``cost`` must carry a cost unit —
an unadorned number is ambiguous about direction, so the schema
rejects it at load time (``repro perf check`` included).

CI runs the micro-benchmarks, then ``repro perf check`` compares the
fresh file against the committed ``benchmarks/baseline/BENCH_micro.json``
with a relative tolerance (±30% by default) and exits non-zero on any
regression — the committed baseline deliberately pins only
machine-portable *ratio* metrics, so the gate is meaningful on any
runner while absolute timings ride along as artifacts.

>>> r = make_record("MICRO-X", "speedup", 2.5, "x")
>>> (r.bench, r.metric, r.value, r.unit)
('MICRO-X', 'speedup', 2.5, 'x')
>>> cmp = compare_records([r], [make_record("MICRO-X", "speedup", 2.0, "x")])
>>> cmp.ok
True
>>> cmp = compare_records([r], [make_record("MICRO-X", "speedup", 9.0, "x")])
>>> [e.status for e in cmp.entries]
['regression']
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

#: The stable on-disk schema; every record carries exactly these keys.
SCHEMA_FIELDS = ("bench", "metric", "value", "unit", "commit", "python")

#: Units where a *larger* value is a regression (durations).
TIME_UNITS = frozenset({"s", "ms", "us", "ns"})

#: Currency units (also lower-is-better); every cost metric must carry
#: one, so the gate never guesses a cost record's regression direction.
COST_UNITS = frozenset({"usd"})

#: Default relative tolerance of the regression gate (±30%).
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class PerfRecord:
    """One serialized benchmark measurement (see module docstring)."""

    bench: str
    metric: str
    value: float
    unit: str
    commit: str
    python: str

    def __post_init__(self) -> None:
        if "cost" in self.metric and self.unit not in COST_UNITS:
            raise ValueError(
                f"perf record ({self.bench!r}, {self.metric!r}) is a cost "
                f"metric and must carry a currency unit "
                f"({', '.join(sorted(COST_UNITS))}), got {self.unit!r}"
            )

    @property
    def key(self) -> tuple[str, str]:
        """Identity of the measurement across runs: (bench, metric)."""
        return (self.bench, self.metric)

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in SCHEMA_FIELDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "PerfRecord":
        missing = [f for f in SCHEMA_FIELDS if f not in doc]
        if missing:
            raise ValueError(f"perf record {doc!r} is missing fields {missing}")
        return cls(
            bench=str(doc["bench"]),
            metric=str(doc["metric"]),
            value=float(doc["value"]),
            unit=str(doc["unit"]),
            commit=str(doc["commit"]),
            python=str(doc["python"]),
        )


def current_commit() -> str:
    """Short git commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def make_record(
    bench: str,
    metric: str,
    value: float,
    unit: str,
    commit: Optional[str] = None,
    python: Optional[str] = None,
) -> PerfRecord:
    """A :class:`PerfRecord` with provenance filled in automatically."""
    return PerfRecord(
        bench=bench,
        metric=metric,
        value=float(value),
        unit=unit,
        commit=current_commit() if commit is None else commit,
        python=platform.python_version() if python is None else python,
    )


def lower_is_better(unit: str) -> bool:
    """Regression direction of *unit* (see module docstring)."""
    return unit in TIME_UNITS or unit in COST_UNITS


def load_records(path: Union[str, Path]) -> list[PerfRecord]:
    """Read a BENCH JSON file into records.

    Raises
    ------
    FileNotFoundError / ValueError
        If the file is absent or does not hold a list of schema records.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON list of perf records")
    return [PerfRecord.from_dict(d) for d in doc]


def save_records(path: Union[str, Path], records: Iterable[PerfRecord]) -> Path:
    """Write *records* (sorted by key, stable formatting) to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.key)
    path.write_text(json.dumps([r.to_dict() for r in ordered], indent=2) + "\n")
    return path


def record_results(path: Union[str, Path], records: Sequence[PerfRecord]) -> Path:
    """Merge *records* into the BENCH file at *path*.

    Existing records with the same (bench, metric) key are replaced;
    everything else is preserved, so independent benchmark test cases
    can each contribute their slice of ``BENCH_micro.json``.
    """
    path = Path(path)
    merged: dict[tuple[str, str], PerfRecord] = {}
    if path.exists():
        for r in load_records(path):
            merged[r.key] = r
    for r in records:
        merged[r.key] = r
    return save_records(path, merged.values())


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonEntry:
    """Verdict for one (bench, metric) pair."""

    bench: str
    metric: str
    unit: str
    baseline: Optional[float]
    current: Optional[float]
    change: Optional[float]  # signed relative change vs baseline
    status: str  # "ok" | "improved" | "regression" | "missing" | "new"

    def describe(self) -> str:
        cur = "-" if self.current is None else f"{self.current:.4g}"
        base = "-" if self.baseline is None else f"{self.baseline:.4g}"
        chg = "" if self.change is None else f" ({self.change * 100:+.1f}%)"
        return (
            f"{self.status.upper():10s} {self.bench} {self.metric}: "
            f"{cur} {self.unit} vs baseline {base} {self.unit}{chg}"
        )


@dataclass(frozen=True)
class PerfComparison:
    """Outcome of comparing a BENCH file against a baseline."""

    entries: tuple[ComparisonEntry, ...]
    tolerance: float

    @property
    def regressions(self) -> list[ComparisonEntry]:
        return [
            e for e in self.entries if e.status in ("regression", "missing")
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [
            f"perf gate: {len(self.entries)} metric(s), tolerance "
            f"±{self.tolerance * 100:.0f}%"
        ]
        lines += ["  " + e.describe() for e in self.entries]
        lines.append(
            "PASS: no perf regressions"
            if self.ok
            else f"FAIL: {len(self.regressions)} perf regression(s)"
        )
        return "\n".join(lines)


def compare_records(
    current: Sequence[PerfRecord],
    baseline: Sequence[PerfRecord],
    tolerance: float = DEFAULT_TOLERANCE,
) -> PerfComparison:
    """Gate *current* against *baseline* with a relative *tolerance*.

    Every baseline metric must be present in *current* (a vanished
    benchmark is itself a regression) and within ``tolerance`` of the
    baseline value in the regression direction of its unit.  Movement
    beyond tolerance in the good direction is reported as ``improved``
    (a nudge to refresh the baseline); current-only metrics are ``new``.
    Neither fails the gate.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    cur_by_key = {r.key: r for r in current}
    entries: list[ComparisonEntry] = []
    for base in sorted(baseline, key=lambda r: r.key):
        cur = cur_by_key.pop(base.key, None)
        if cur is None:
            entries.append(
                ComparisonEntry(
                    bench=base.bench,
                    metric=base.metric,
                    unit=base.unit,
                    baseline=base.value,
                    current=None,
                    change=None,
                    status="missing",
                )
            )
            continue
        if base.value == 0:
            change = 0.0 if cur.value == 0 else float("inf")
        else:
            change = (cur.value - base.value) / abs(base.value)
        worse = change > 0 if lower_is_better(base.unit) else change < 0
        beyond = abs(change) > tolerance
        if beyond and worse:
            status = "regression"
        elif beyond:
            status = "improved"
        else:
            status = "ok"
        entries.append(
            ComparisonEntry(
                bench=base.bench,
                metric=base.metric,
                unit=base.unit,
                baseline=base.value,
                current=cur.value,
                change=change,
                status=status,
            )
        )
    for extra in sorted(cur_by_key.values(), key=lambda r: r.key):
        entries.append(
            ComparisonEntry(
                bench=extra.bench,
                metric=extra.metric,
                unit=extra.unit,
                baseline=None,
                current=extra.value,
                change=None,
                status="new",
            )
        )
    return PerfComparison(entries=tuple(entries), tolerance=tolerance)


def check_files(
    current_path: Union[str, Path],
    baseline_path: Union[str, Path],
    tolerance: float = DEFAULT_TOLERANCE,
) -> PerfComparison:
    """:func:`compare_records` over two BENCH JSON files."""
    return compare_records(
        load_records(current_path), load_records(baseline_path), tolerance
    )
