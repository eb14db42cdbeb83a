"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark writes its regenerated figure (ASCII chart + series data
+ paper-vs-measured verdict) into ``benchmarks/output/`` so EXPERIMENTS.md
can reference concrete artifacts.  Benchmarks assert only *loose* shape
invariants — single-seed stochastic runs must not flake the suite — and
record the strict paper-shape verdicts in their output files.

Micro-benchmarks additionally serialize their headline numbers through
the ``perf_log`` fixture into ``benchmarks/output/BENCH_micro.json``
(schema: :mod:`repro.perf`), the artifact CI's ``perf`` job gates
against the committed ``benchmarks/baseline/BENCH_micro.json``.

Every bench runs its scalar simulators on the Python walker
(``REPRO_WALKER=python``, see :mod:`repro.schedule.walker`): the
committed ratio records were measured against that denominator.  A
bench that times the compiled walker opts out with
``@pytest.mark.walker("compiled")`` (a whole module through its
``pytestmark``); it builds its Python-walker denominators inside
``walkers.python_walker``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"
BENCH_MICRO_JSON = OUTPUT_DIR / "BENCH_micro.json"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "walker(tier): run this bench on the given walker tier"
    )


@pytest.fixture(autouse=True)
def _pinned_walker(request, monkeypatch):
    """Pin the scalar walker tier (Python unless the test says not)."""
    from repro.schedule.walker import ENV

    marker = request.node.get_closest_marker("walker")
    if marker is None or marker.args[0] == "python":
        monkeypatch.setenv(ENV, "python")
    else:
        monkeypatch.delenv(ENV, raising=False)


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def write_output(output_dir):
    """Writer fixture: ``write_output("fig3a", text)``."""

    def write(name: str, text: str) -> Path:
        path = output_dir / f"{name}.txt"
        path.write_text(text)
        return path

    return write


@pytest.fixture
def perf_log(output_dir):
    """Recorder fixture: ``perf_log("MICRO-DELTA", "speedup", 2.2, "x")``.

    Merge-writes one record into ``BENCH_micro.json`` (replacing any
    previous value of the same (bench, metric) pair), so each
    micro-benchmark test contributes its slice independently.
    """
    from repro import perf

    def log(bench: str, metric: str, value: float, unit: str) -> Path:
        return perf.record_results(
            output_dir / "BENCH_micro.json",
            [perf.make_record(bench, metric, value, unit)],
        )

    return log
