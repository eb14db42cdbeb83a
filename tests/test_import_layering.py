"""Import layering: a command loads only what it runs.

Every package ``__init__`` is a PEP 562 lazy table (:mod:`repro._lazy`),
and ``repro.cli`` imports each subcommand's modules inside its handler.
These tests pin both: the import closure of ``repro run`` (which, for a
deterministic run on the uniform platform, loads neither the scenario
sampler nor the platform catalog) and of a bare ``import repro``, and,
for every package, that its table resolves the same objects an eager
``__init__`` exported.  A third test pins that
no backend method an engine calls per step, probe or move imports in
its body.
"""

import ast
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules no ``repro run`` may load: the experiment runner's pool and
#: its process machinery, the grid analysis and the portfolio race.
RUN_NEVER_LOADS = (
    "repro.runner.pool",
    "repro.analysis.grid",
    "repro.portfolio",
    "multiprocessing",
    "concurrent.futures",
)

#: Modules a deterministic ``repro run`` on the uniform platform does
#: not need: the scenario sampler and the platform catalog.
DETERMINISTIC_RUN_NEVER_LOADS = ("repro.stochastic", "repro.model.platform")

RUN_SE = """
import json, sys
from repro.cli import main
main(["run", "--algo", "se", "--preset", "fig5", "--seed", "3",
      "--iterations", "5"])
print(json.dumps(sorted(sys.modules)))
"""

BARE_IMPORT = """
import json, sys
import repro
print(json.dumps(sorted(sys.modules)))
"""


def _run(code: str) -> str:
    """The last line *code* prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _loaded_by(code: str) -> set:
    """The module names a fresh interpreter holds after running *code*."""
    return set(json.loads(_run(code)))


def _loads(modules: set, name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


@functools.lru_cache(maxsize=None)
def _run_se_modules() -> frozenset:
    return frozenset(_loaded_by(RUN_SE))


class TestImportClosure:
    def test_repro_run_loads_no_runner_pool_grid_or_portfolio(self):
        modules = _run_se_modules()
        assert "repro.core.engine" in modules  # the run did run SE
        loaded = [name for name in RUN_NEVER_LOADS if _loads(modules, name)]
        assert loaded == []

    def test_deterministic_run_loads_no_sampler_or_platform_catalog(self):
        modules = _run_se_modules()
        assert "repro.core.engine" in modules
        loaded = [
            name
            for name in DETERMINISTIC_RUN_NEVER_LOADS
            if _loads(modules, name)
        ]
        assert loaded == []

    def test_bare_import_loads_no_subpackage(self):
        modules = _loaded_by(BARE_IMPORT)
        assert sorted(m for m in modules if m.startswith("repro")) == [
            "repro",
            "repro._lazy",
        ]
        assert [name for name in RUN_NEVER_LOADS if _loads(modules, name)] == []


def _packages() -> list[str]:
    return ["repro"] + sorted(
        m.name
        for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.ispkg
    )


def _table(package: str) -> tuple[dict, tuple]:
    """The ``exports(__name__, table, submodules=...)`` literals of
    *package*'s ``__init__``, read from its source."""
    path = Path(importlib.import_module(package).__file__)
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "exports"
    ]
    assert len(calls) == 1, f"{package}: one lazy table per package"
    (call,) = calls
    table = ast.literal_eval(call.args[1])
    submodules = ()
    for kw in call.keywords:
        if kw.arg == "submodules":
            submodules = ast.literal_eval(kw.value)
    return table, submodules


PACKAGES = _packages()


def test_every_package_is_lazy():
    assert len(PACKAGES) >= 16
    for package in PACKAGES:
        _table(package)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyTable:
    def test_names_resolve_to_their_submodule_objects(self, package):
        pkg = importlib.import_module(package)
        table, submodules = _table(package)
        for module, names in table.items():
            source = importlib.import_module(module)
            for name in names:
                assert getattr(pkg, name) is getattr(source, name), (
                    f"{package}.{name}"
                )
        for name in submodules:
            assert getattr(pkg, name) is importlib.import_module(
                f"{package}.{name}"
            )

    def test_all_and_dir_derive_from_the_table(self, package):
        pkg = importlib.import_module(package)
        table, submodules = _table(package)
        names = [*submodules, *(n for ns in table.values() for n in ns)]
        assert [n for n in pkg.__all__ if n != "__version__"] == names
        assert set(names) <= set(dir(pkg))

    def test_star_import_binds_all(self, package):
        pkg = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(pkg.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        assert not hasattr(pkg, "__no_such_dunder__")


SHADOWED = """
import sys
import repro.baselines.heft, repro.baselines.olb, repro.baselines.random_search
import repro.baselines as b
print(all(
    getattr(b, n) is getattr(sys.modules[f"repro.baselines.{n}"], n)
    for n in ("heft", "olb", "random_search")
))
"""


def test_names_shadowing_their_submodules_stay_the_functions():
    # importing the submodules first must not rebind the package names
    assert _run(SHADOWED) == "True"


def test_submodules_load_on_attribute_access():
    # as they did when every __init__ imported its submodules eagerly
    code = "import repro; print(repro.core.engine.__name__)"
    assert _run(code) == "repro.core.engine"


#: The backend methods an engine calls per step, probe or move.
PER_STEP_METHODS = frozenset(
    {
        "makespan",
        "string_makespan",
        "prepare",
        "evaluate_delta",
        "allocate",
        "score_moves",
        "shuffle",
        "draw_moves",
        "makespans",
        "string_makespans",
        "score_applied",
        "snapshot",
        "batch_makespans",
        "batch_string_makespans",
    }
)

#: The classes that serve them: the scalar backends, the objective and
#: scenario wrappers and the evaluation service.
BACKEND_CLASSES = frozenset(
    {
        "_ScalarBackend",
        "Simulator",
        "ContentionSimulator",
        "ObjectiveBackend",
        "ScenarioBackend",
        "EvaluationService",
    }
)


def test_per_step_backend_methods_import_nothing():
    """An import in a per-step body costs a module lookup on every
    call and hides the name from the benchmark harness's wrapping
    (docs/architecture.md, *Import layering*)."""
    found, offenders = set(), []
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)
            }
            if "evaluate_delta" not in methods and "score_moves" not in methods:
                continue
            found.add(cls.name)
            for name, fn in methods.items():
                if name not in PER_STEP_METHODS:
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders.append(
                            f"{path.name}:{node.lineno} {cls.name}.{name}"
                        )
    assert BACKEND_CLASSES <= found
    assert offenders == []
