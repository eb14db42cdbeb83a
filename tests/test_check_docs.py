"""The docs-integrity checker (scripts/check_docs.py) stays healthy."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docs.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
    )


def test_self_test_passes():
    proc = _run("--self-test")
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_the_repo_docs_are_clean():
    proc = _run()
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "docs check: OK" in proc.stdout


# ----------------------------------------------------------------------
# the individual checks, against names the package has and has deleted
# ----------------------------------------------------------------------


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
DOC = REPO / "README.md"
SRC = REPO / "src" / "repro" / "__init__.py"


@pytest.fixture(scope="module")
def classes():
    return checker._package_classes()


@pytest.mark.parametrize(
    "span",
    [
        "`Workload`",
        "`TaskGraph(3)`",
        "`DataItem.edge`",
        "`ExecutionTimeMatrix`",
        "`Tr`",
        "`SeedSequence`",
        "`CCR`, `E`, `IPPS`",
    ],
)
def test_existing_class_or_symbol_passes(span, classes):
    assert checker.check_class_references(DOC, span, classes) == []


@pytest.mark.parametrize(
    "span",
    [
        "`HCSystem`",
        "`HCSystem.of_size(2)`",
        "`Machine`",
        "`MachineSet.of_size(3)`",
        "`Subtask`",
        "`TimeBudget`",
        "`ExperimentRecord`",
    ],
)
def test_deleted_class_is_reported(span, classes):
    errors = checker.check_class_references(DOC, span, classes)
    assert len(errors) == 1
    assert "no class" in errors[0]


def test_class_names_inside_a_fence_are_not_checked(classes):
    fenced = "```python\nx = `HCSystem`\n```\n"
    assert checker.check_class_references(DOC, fenced, classes) == []


@pytest.mark.parametrize(
    "span",
    [
        "`repro.model.machine`",
        "`repro.model.system.HCSystem`",
        "`repro.model.sample.paper_sample_system`",
        "`repro.utils.validation.check_positive`",
        "`repro.schedule.simulator.evaluate_schedule`",
        "`repro.workloads.ccr.ccr_class`",
    ],
)
def test_deleted_dotted_name_is_reported(span):
    assert checker.check_dotted_references(DOC, span)


@pytest.mark.parametrize(
    "target",
    [
        ":class:`repro.model.workload.Workload`",
        ":func:`~repro.model.sample.paper_sample_workload`",
        ":meth:`repro.model.graph.TaskGraph.from_edges`",
        ":mod:`repro.model.task`",
        ":attr:`repro.model.workload.Workload.num_machines`",
        ":data:`repro.model.sample.SAMPLE_EDGES`",
        ":exc:`repro.schedule.simulator.InvalidScheduleError`",
        ":class:`~repro.model.graph.\n    TaskGraph`",
    ],
    ids=["class", "func", "meth", "mod", "attr", "data", "exc", "wrapped"],
)
def test_live_docstring_target_resolves(target):
    assert checker.check_docstring_targets(SRC, target) == []


@pytest.mark.parametrize(
    "target",
    [
        ":class:`repro.model.machine.Machine`",
        ":class:`~repro.model.system.HCSystem`",
        ":data:`repro.model.system.FULLY_CONNECTED`",
        ":class:`repro.model.task.Subtask`",
        ":attr:`repro.model.workload.Workload.system`",
        ":meth:`repro.model.graph.TaskGraph.subtask`",
        ":mod:`repro.utils.validation`",
        ":func:`~repro.analysis.convergence.\n    time_to_target`",
    ],
    ids=[
        "Machine",
        "HCSystem",
        "FULLY_CONNECTED",
        "Subtask",
        "Workload.system",
        "TaskGraph.subtask",
        "utils.validation",
        "wrapped",
    ],
)
def test_deleted_docstring_target_is_reported(target):
    errors = checker.check_docstring_targets(SRC, "text\n" + target)
    assert len(errors) == 1
    # the report names the line the role starts on, with the target
    # joined back together
    assert errors[0].startswith("src/repro/__init__.py:2: repro.")
    assert "\n" not in errors[0]
