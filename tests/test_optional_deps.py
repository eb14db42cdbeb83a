"""``import repro`` needs only the declared ``install_requires``.

networkx is the optional ``graph`` extra (TaskGraph interop only), so
the package and its CLI must import in a fresh interpreter where it is
blocked.
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
import repro
import repro.cli
print("ok")
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
    assert proc.stdout.strip() == "ok"
