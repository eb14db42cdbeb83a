"""Lazy package exports (PEP 562): a name's submodule loads on first use.

Every package ``__init__`` of :mod:`repro` declares one table, mapping
each submodule to the public names it defines, and binds the hooks
:func:`exports` builds from it::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "repro.core.engine": ("SEResult", "SimulatedEvolution", "run_se"),
        ...
    })

``import repro.core`` then runs no submodule; ``repro.core.run_se``
imports :mod:`repro.core.engine` on first access and caches the object
on the package, so later lookups are plain attribute reads.
``__all__`` and ``dir()`` list the table's names, and ``from repro.core
import *`` resolves each of them.  Any other name that is a submodule
(``repro.core.engine``) is imported on access, as it would be found
once an eager ``__init__`` had imported it; every other unknown name
raises :class:`AttributeError`.

A name that shadows its own submodule (the function ``heft`` in
:mod:`repro.baselines.heft`) is bound when the package loads: the import
system sets a package attribute to a submodule the first time anything
imports that submodule, which would hide a name not yet resolved.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping, Sequence


def exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *table* maps absolute submodule names to the public names each one
    defines; *submodules* names subpackages that are public themselves
    (listed first in ``__all__``).
    """
    where = {name: module for module, names in table.items() for name in names}
    names = [*submodules, *where]
    pkg = sys.modules[package]

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            value = _submodule(package, name)
        else:
            value = getattr(_import(module), name)
        setattr(pkg, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(pkg)) | set(names))

    pkg.__getattr__ = __getattr__  # the imports below may resolve names
    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, names


def _submodule(package: str, name: str) -> ModuleType:
    """Import ``package.name``; :class:`AttributeError` if there is none."""
    if not name.startswith("__"):
        try:
            return _import(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def _import(module: str) -> ModuleType:
    # the import statement's path, not importlib.import_module, so that
    # ``python -X importtime`` lists the modules a lazy name loads
    __import__(module)
    return sys.modules[module]
