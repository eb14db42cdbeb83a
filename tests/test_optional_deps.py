"""``import repro`` needs only the declared ``install_requires``.

networkx is the optional ``graph`` extra (TaskGraph interop only), so
every public name of every package, and the CLI, must load in a fresh
interpreter where it is blocked.  Packages export lazily (a name's
submodule loads on first access), so the check resolves each name
rather than importing the packages alone, which runs no submodule.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

BLOCKED_IMPORT = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises
import importlib, pkgutil
import repro, repro.cli
packages = [repro] + [
    importlib.import_module(m.name)
    for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if m.ispkg
]
for package in packages:
    for name in package.__all__:
        getattr(package, name)
print(len(packages), "ok")
"""


def test_repro_imports_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_IMPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    packages, ok = proc.stdout.split()
    assert ok == "ok" and int(packages) >= 16
