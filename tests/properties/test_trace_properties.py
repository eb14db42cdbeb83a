"""Property tests of the column-wise :class:`ConvergenceTrace`.

Every reader must hand back records ``==`` to the ones appended, with
the fields' declared types and ``None`` kept, through every route a
trace travels: indexing, iteration, ``records``, the series methods,
``to_rows``, ``downsample``, pickle, the JSON trace document and a
runner :class:`CellResult`.  The memory bounds are the point of the
column layout, so they are pinned too.
"""

import dataclasses
import gc
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import ConvergenceTrace, IterationRecord, downsample
from repro.io.serialization import trace_from_dict, trace_to_dict
from repro.optim.tracking import TrajectoryRecorder
from repro.runner.results import CellResult

INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.floats(allow_nan=False)


@st.composite
def record_lists(draw, max_size: int = 30):
    """Records with strictly increasing iterations and every optional
    field drawn independently (so ``None`` mixes with values)."""
    n = draw(st.integers(0, max_size))
    it = draw(st.integers(-(2**40), 2**40))
    records = []
    for _ in range(n):
        it += draw(st.integers(1, 2**20))
        records.append(
            IterationRecord(
                iteration=it,
                current_makespan=draw(FLOATS),
                best_makespan=draw(FLOATS),
                num_selected=draw(st.none() | INT64),
                elapsed_seconds=draw(FLOATS),
                mean_goodness=draw(st.none() | FLOATS),
                evaluations=draw(INT64),
            )
        )
    return records


def assert_same(got, want):
    """``==`` field by field, with the same type in every field."""
    assert list(got) == list(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(IterationRecord):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert type(a) is type(b), (f.name, a, b)


def build(records, route):
    """A trace holding *records*, appended as records or as values."""
    trace = ConvergenceTrace()
    for r in records:
        if route == "append":
            trace.append(r)
        else:
            trace.add(*dataclasses.astuple(r))
    return trace


@settings(max_examples=150, deadline=None)
@given(record_lists(), st.sampled_from(["append", "add"]))
def test_every_reader_returns_the_appended_records(records, route):
    trace = build(records, route)
    assert len(trace) == len(records)
    assert_same(trace.records, records)
    assert_same(list(trace), records)
    assert_same([trace[i] for i in range(len(records))], records)
    assert_same([trace[i - len(records)] for i in range(len(records))], records)
    for bad in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            trace[bad]
    assert trace.iterations() == [r.iteration for r in records]
    assert trace.current_makespans() == [r.current_makespan for r in records]
    assert trace.best_makespans() == [r.best_makespan for r in records]
    assert trace.elapsed() == [r.elapsed_seconds for r in records]
    if any(r.num_selected is None for r in records):
        with pytest.raises(ValueError, match="num_selected"):
            trace.selected_counts()
    else:
        assert trace.selected_counts() == [r.num_selected for r in records]
    rows = trace.to_rows()
    assert rows == [dataclasses.asdict(r) for r in records]
    assert_same([IterationRecord(**row) for row in rows], records)
    if records:
        assert trace.final_best() == records[-1].best_makespan


@settings(max_examples=100, deadline=None)
@given(record_lists())
def test_round_trips_keep_every_record(records):
    trace = build(records, "add")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert_same(pickle.loads(pickle.dumps(trace, protocol)), records)
    doc = json.loads(json.dumps(trace_to_dict(trace)))
    assert_same(trace_from_dict(doc), records)
    cell = CellResult(
        cell_id="c", algorithm="tabu", workload="w", connectivity="low",
        heterogeneity="low", ccr=0.1, num_tasks=4, num_machines=2, seed=0,
        makespan=1.0, normalized=1.0, trace=trace.to_rows(),
    )
    assert_same(cell.convergence_trace(), records)
    back = CellResult.from_dict(json.loads(json.dumps(cell.to_dict())))
    assert_same(back.convergence_trace(), records)


@settings(max_examples=100, deadline=None)
@given(record_lists(max_size=60), st.integers(2, 12))
def test_downsample_keeps_ends_and_records(records, max_points):
    trace = build(records, "add")
    kept = list(downsample(trace, max_points))
    assert len(kept) <= max_points
    if len(records) <= max_points:
        assert_same(kept, records)
    assert_same(kept, [r for r in records if r in kept])
    if records:
        assert kept[0] == records[0] and kept[-1] == records[-1]


@settings(max_examples=100, deadline=None)
@given(
    record_lists(max_size=8), st.integers(0, 3), st.sampled_from(["append", "add"])
)
def test_a_non_increasing_iteration_is_refused_and_changes_nothing(
    records, back, route
):
    trace = build(records, route)
    if not records:
        return
    bad = dataclasses.replace(records[-1], iteration=records[-1].iteration - back)
    with pytest.raises(ValueError, match="iteration numbers must increase"):
        if route == "append":
            trace.append(bad)
        else:
            trace.add(*dataclasses.astuple(bad))
    assert_same(trace.records, records)


def test_a_value_its_column_cannot_hold_leaves_the_trace_as_it_was():
    trace = ConvergenceTrace()
    trace.add(1, 2.0, 2.0, 3, 0.1, 0.5, 4)
    trace.add(2, 1.0, 1.0, None, 0.2, None, 5)
    before = trace.records
    with pytest.raises(TypeError):
        trace.add(3, 1.0, 1.0, 1.5, 0.3, None, 6)  # num_selected is an int
    with pytest.raises(TypeError):
        trace.add(3, 1.0, "x", None, 0.3, None, 6)
    assert_same(trace.records, before)
    trace.add(3, 1.0, 1.0, None, 0.3, 0.25, 6)
    assert trace[-1].mean_goodness == 0.25 and len(trace) == 3


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def kept_bytes(make):
    """Bytes still allocated once ``make()`` returns (its result kept)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return after - before


def se_records(n):
    """Records carrying both optional fields (SE's, the widest)."""
    return [
        (i, 100.0 + i / 2, 90.0 + i / 4, i % 7, i / 1000, 0.5 + i / 1e6, 10 * i)
        for i in range(1, n + 1)
    ]


def test_a_long_trace_keeps_at_most_64_bytes_per_record():
    values = se_records(10_000)

    def make():
        rec = TrajectoryRecorder()
        for v in values:
            rec.record(v[0], v[1], v[2], v[4], v[6], v[3], v[5])
        return rec.trace

    assert kept_bytes(make) / len(values) <= 64


class _ListTrace:
    """The list-of-records layout the column trace replaced."""

    __slots__ = ("_records",)

    def __init__(self, records):
        self._records = list(records)


def test_a_one_record_trace_keeps_no_more_than_the_list_layout():
    (v,) = se_records(1)

    def column_trace():
        trace = ConvergenceTrace()
        trace.add(*v)
        return trace

    def list_trace():
        return _ListTrace([IterationRecord(*v)])

    assert kept_bytes(column_trace) <= kept_bytes(list_trace)
