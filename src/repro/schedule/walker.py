"""The compiled scalar walker tier: build on first use, load, or fall back.

:class:`~repro.schedule.simulator.Simulator` and
:class:`~repro.extensions.contention.ContentionSimulator` run their hot
methods through a ``Walker`` of the C extension built from ``_walk.c``
when it loads:

* ``makespan``, ``prepare`` and ``evaluate_delta``, the walks;
* ``allocate``, SE's whole allocation phase: the best re-placement of
  each selected subtask, re-preparing one state in place after each
  move;
* ``optimal_finish``, SE's optimistic finish times ``O``;
* ``score_moves``, tabu's selection over one neighborhood;
* ``shuffle``, the SE initial string's random moves;
* ``draw_moves``, tabu's neighborhoods and SA's proposals: random
  moves against one string.

The Python bodies stay as the specification and the fallback:
:func:`~repro.schedule.valid_range.allocate_by_places` for
``allocate`` (with :func:`~repro.schedule.valid_range.place_by_probes`
for each selected subtask), a loop over the same tables for ``optimal_finish``
(specified by :func:`~repro.core.goodness.optimal_finish_times`),
:func:`~repro.schedule.neighborhood.score_by_deltas` for
``score_moves``, :func:`~repro.schedule.operations.shuffle_string`
for ``shuffle`` and :func:`~repro.schedule.neighborhood.random_move`
for each move of ``draw_moves``.  The two tiers are ``==`` on every
result (property-tested); ``shuffle`` and ``draw_moves`` draw from the
numpy generator's bit generator exactly as ``Generator.integers`` and
``Generator.random`` do, so the generator's state afterwards is the
same on both tiers too.

The extension is compiled on first use with the local C compiler
(``$CC``, else the compiler Python was built with, else ``cc``) and the
flags in :data:`FLAGS`: ``-O2 -ffp-contract=off``, with no fast-math and
no ``-march``, so no float operation is fused or reordered.  The build
is cached in ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), or
in a per-user directory under :func:`tempfile.gettempdir` when that is
not writable, under a name keyed by the source hash, the compiler's
identity (resolved path, size and modification time, which change with
every compiler upgrade) and the interpreter's ``EXT_SUFFIX``.  A build
is written to a temporary file and moved in with :func:`os.replace`, so
processes compiling into one cache at once each load a whole module.

``REPRO_WALKER=python`` forces the Python tier; the variable is read
each time a simulator is constructed.  Without a compiler, or when the
compile fails, the Python tier serves and the simulator's
``walker_reason`` says why.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.resources
import importlib.util
import os
import stat
import sys
import sysconfig
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.model.workload import Workload

#: Environment switch: unset/``""`` (compiled when it loads) or
#: ``"python"``.
ENV = "REPRO_WALKER"

#: Compiler flags; no fast-math and no ``-march``, no FP contraction.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC")

_MODULE_NAME = "repro.schedule._walk"

#: ``(module, reason)`` after the first load attempt in this process.
_loaded: Optional[tuple[Optional[ModuleType], Optional[str]]] = None


def _compiler() -> Optional[list[str]]:
    """The compiler command (argv prefix), or ``None`` if none is found."""
    import shlex
    import shutil

    cmd = shlex.split(
        os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    )
    exe = shutil.which(cmd[0]) if cmd else None
    if exe is None and not os.environ.get("CC"):
        exe = shutil.which("cc")
        cmd = ["cc"]
    return None if exe is None else [exe, *cmd[1:]]


def _cache_dirs() -> Iterator[Path]:
    """Candidate cache directories, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    yield Path(base) / "repro"
    import tempfile

    user = getattr(os, "getuid", lambda: "user")()
    yield Path(tempfile.gettempdir()) / f"repro-{user}"


def _private_dir(path: Path) -> bool:
    """Create *path* if needed; True when this user may build and load
    from it (owned by us and not writable by anyone else)."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
    except OSError:
        return False
    shared = info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    if hasattr(os, "getuid") and (info.st_uid != os.getuid() or shared):
        return False
    return os.access(path, os.W_OK | os.X_OK)


def _build_key(source: bytes, compiler: list[str]) -> str:
    info = os.stat(compiler[0])
    h = hashlib.sha256(source)
    for part in (
        *compiler,
        str(info.st_size),
        str(info.st_mtime_ns),
        *FLAGS,
        sysconfig.get_config_var("EXT_SUFFIX") or "",
        sys.version,
    ):
        h.update(b"\0" + part.encode())
    return h.hexdigest()[:20]


def _compile(compiler: list[str], source: Path, target: Path) -> None:
    """Compile *source* into *target* atomically (temp file + replace).

    Raises :class:`RuntimeError` when the compiler fails or times out.
    """
    import subprocess
    import tempfile

    include = sysconfig.get_paths()["include"]
    link = (
        ["-bundle", "-undefined", "dynamic_lookup"]
        if sys.platform == "darwin"
        else ["-shared"]
    )
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*compiler, *FLAGS, *link, f"-I{include}", str(source), "-o", tmp],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise RuntimeError(
                f"{Path(compiler[0]).name} exited {proc.returncode}: "
                + " | ".join(tail)
            )
        os.replace(tmp, target)
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{Path(compiler[0]).name} timed out: {e}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(
        _MODULE_NAME, str(path), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _import_or_build(compiler: list[str], resource, target: Path) -> ModuleType:
    if target.exists():
        try:
            return _import(target)
        except ImportError:
            target.unlink()  # a damaged build: replace it
    with importlib.resources.as_file(resource) as src:
        _compile(compiler, src, target)
    return _import(target)


def _load() -> tuple[Optional[ModuleType], Optional[str]]:
    if sys.platform == "win32":
        return None, "the compiled walker is not built on Windows"
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler found (set CC or put cc on PATH)"
    resource = importlib.resources.files("repro.schedule") / "_walk.c"
    try:
        source = resource.read_bytes()
        key = _build_key(source, compiler)
    except OSError as e:
        return None, f"cannot read the walker source or compiler: {e}"
    name = f"_walk-{key}{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    error = "no writable cache directory"
    for cache in _cache_dirs():
        if not _private_dir(cache):
            continue
        try:
            module = _import_or_build(compiler, resource, cache / name)
        except RuntimeError as e:  # the compiler failed: no dir can help
            return None, f"compile failed: {e}"
        except (OSError, ImportError) as e:
            error = f"build failed in {cache}: {e}"
            continue
        from repro.schedule.neighborhood import Move
        from repro.schedule.simulator import InvalidScheduleError, Schedule

        module.bind(Schedule, InvalidScheduleError, restore_state, Move)
        return module, None
    return None, error


def load() -> tuple[Optional[ModuleType], Optional[str]]:
    """``(extension module, None)``, or ``(None, reason)`` when the
    compiled tier is unavailable.  Builds on the first call in a
    process; later calls return the same answer."""
    global _loaded
    if _loaded is None:
        _loaded = _load()
    return _loaded


def _forced_python() -> bool:
    mode = os.environ.get(ENV, "").strip().lower()
    if mode not in ("", "python"):
        raise ValueError(
            f"{ENV}={mode!r} is not a walker switch; use 'python' or unset it"
        )
    return mode == "python"


def make_walker(
    workload: Workload,
    in_edges: Sequence,
    avail0: Sequence[float],
    out_edges: Optional[Sequence] = None,
    nic0: Optional[Sequence[float]] = None,
) -> tuple[Any, Optional[str]]:
    """``(Walker, None)``: a compiled walker for *workload* (the NIC model
    when *out_edges* is given); or ``(None, reason)`` when the Python
    tier serves.
    """
    if _forced_python():
        return None, f"{ENV}=python"
    module, reason = load()
    if module is None:
        return None, reason
    return module.Walker(
        np.ascontiguousarray(workload.exec_times.values, dtype=np.float64),
        np.ascontiguousarray(workload.transfer_times.values, dtype=np.float64),
        in_edges,
        out_edges,
        avail0,
        nic0,
    ), None


def restore_state(*args: Any) -> Any:
    """Rebuild a pickled compiled delta state (its ``__reduce__`` target)."""
    module, reason = load()
    if module is None:
        raise RuntimeError(f"cannot restore a compiled delta state: {reason}")
    return module.restore(*args)
