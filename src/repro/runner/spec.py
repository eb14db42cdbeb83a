"""Declarative experiment specs: algorithm × workload × seed grids.

An :class:`ExperimentSpec` is a fully declarative, picklable description
of an experiment — algorithms by registry name and flat parameters,
workloads as :class:`~repro.workloads.presets.WorkloadSpec` recipes,
seeds as plain integers.  Expanding it yields a deterministic list of
:class:`ExperimentCell` entries whose per-cell seeds derive from a SHA-256
of the cell coordinates: independent of execution order, worker count,
platform, and ``PYTHONHASHSEED``.

>>> spec = ExperimentSpec(
...     name="demo",
...     algorithms={"SE": AlgorithmSpec.make("se", max_iterations=10)},
...     workloads=[WorkloadSpec(num_tasks=10, num_machines=2, seed=1,
...                             name="w0")],
...     seeds=(0, 1),
... )
>>> [c.cell_id() for c in spec.cells()]
['SE__w0__s0', 'SE__w0__s1']
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence, Tuple

from repro.utils.rng import derive_seed
from repro.workloads.presets import WorkloadSpec

#: Values allowed inside AlgorithmSpec params (JSON-safe scalars/tuples).
_SCALARS = (type(None), bool, int, float, str)


def _check_param(key: str, value: Any) -> Any:
    if isinstance(value, tuple):
        return tuple(_check_param(key, v) for v in value)
    if isinstance(value, list):
        return tuple(_check_param(key, v) for v in value)
    if not isinstance(value, _SCALARS):
        raise TypeError(
            f"algorithm param {key!r} must be a JSON-safe scalar or a "
            f"tuple of them, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registry algorithm plus its configuration, as pure data.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    specs are hashable and two dict orderings compare equal; build
    through :meth:`make` for the ergonomic keyword form.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "AlgorithmSpec":
        items = tuple(
            sorted((k, _check_param(k, v)) for k, v in params.items())
        )
        return cls(kind=kind.lower(), params=items)

    def params_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params}

    def describe(self) -> str:
        if not self.params:
            return self.kind
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({args})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params_dict()}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AlgorithmSpec":
        return cls.make(doc["kind"], **dict(doc.get("params", {})))


def _workload_key(w: WorkloadSpec) -> dict:
    doc = {f.name: getattr(w, f.name) for f in fields(w)}
    return doc


_ID_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass(frozen=True)
class ExperimentCell:
    """One (algorithm, workload, seed) coordinate of an experiment."""

    index: int
    algorithm: str
    algo: AlgorithmSpec
    workload: WorkloadSpec
    seed_index: int
    seed: int

    @property
    def workload_name(self) -> str:
        # ExperimentSpec guarantees a name; the fallback only covers
        # hand-built cells and must not depend on the (algorithm- and
        # seed-varying) global cell index.
        return self.workload.name or "w?"

    def cell_id(self) -> str:
        raw = f"{self.algorithm}__{self.workload_name}__s{self.seed_index}"
        return _ID_SAFE.sub("-", raw)

    def fingerprint(self) -> str:
        """Content hash of everything that determines this cell's result.

        Cached results are only reused when the fingerprint matches, so
        editing an algorithm's parameters or a workload recipe silently
        invalidates stale cache entries.
        """
        doc = {
            "algorithm": self.algorithm,
            "algo": self.algo.to_dict(),
            "workload": _workload_key(self.workload),
            "seed": self.seed,
        }
        blob = json.dumps(doc, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """A named grid of algorithms × workloads × seeds.

    Attributes
    ----------
    name:
        Experiment label (used in persisted artifacts).
    algorithms:
        Display name → :class:`AlgorithmSpec`.
    workloads:
        :class:`WorkloadSpec` recipes.  Each must carry a plain-``int``
        (or ``None``) seed and a unique name — workers rebuild workloads
        from the recipe, so generators cannot be shipped.
    seeds:
        Replicate seeds.  The actual per-cell algorithm seed is derived
        from ``(base_seed, algorithm, workload, seed)`` — see
        :func:`derive_seed` — so two cells never share an RNG stream.
    pairing:
        ``"grid"`` crosses workloads × seeds; ``"zip"`` pairs
        ``workloads[i]`` with ``seeds[i]`` (equal lengths required) —
        the shape used by figure benchmarks that draw one workload per
        replicate.
    seed_mode:
        ``"independent"`` (default) derives each cell's seed from the
        full cell coordinates *including the algorithm*, so no two cells
        ever share an RNG stream.  ``"paired"`` omits the algorithm from
        the derivation: all algorithms get the **same** stream on the
        same (workload, replicate) — the paired-comparison design for
        studies whose variants are the same algorithm under different
        parameters (e.g. an SE Y-parameter sweep, warm vs cold start).
    base_seed:
        Root of the per-cell seed derivation.
    """

    name: str
    algorithms: Tuple[Tuple[str, AlgorithmSpec], ...]
    workloads: Tuple[WorkloadSpec, ...]
    seeds: Tuple[int, ...] = (0,)
    pairing: str = "grid"
    seed_mode: str = "independent"
    base_seed: int = 0

    def __init__(
        self,
        name: str,
        algorithms: Mapping[str, AlgorithmSpec] | Sequence[Tuple[str, AlgorithmSpec]],
        workloads: Sequence[WorkloadSpec],
        seeds: Sequence[int] = (0,),
        pairing: str = "grid",
        seed_mode: str = "independent",
        base_seed: int = 0,
    ):
        if isinstance(algorithms, Mapping):
            algo_items = tuple(algorithms.items())
        else:
            algo_items = tuple(algorithms)
        if not algo_items:
            raise ValueError("need at least one algorithm")
        names = [n for n, _ in algo_items]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate algorithm names in {names}")
        workloads = tuple(workloads)
        if not workloads:
            raise ValueError("need at least one workload")
        # Unnamed recipes get a positional name, so the same workload
        # keeps one identity across algorithms and seeds.
        workloads = tuple(
            w if w.name else replace(w, name=f"w{i}")
            for i, w in enumerate(workloads)
        )
        for w in workloads:
            if w.seed is not None and not isinstance(w.seed, int):
                raise TypeError(
                    f"workload {w.name or '?'} carries a non-int seed "
                    f"({type(w.seed).__name__}); runner workloads must be "
                    "rebuildable from plain data"
                )
        wnames = [w.name for w in workloads]
        if len(set(wnames)) != len(wnames):
            raise ValueError(f"workload names must be unique, got {wnames}")
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if pairing not in ("grid", "zip"):
            raise ValueError(f"pairing must be 'grid' or 'zip', got {pairing!r}")
        if seed_mode not in ("independent", "paired"):
            raise ValueError(
                f"seed_mode must be 'independent' or 'paired', got {seed_mode!r}"
            )
        if pairing == "zip" and len(workloads) != len(seeds):
            raise ValueError(
                f"zip pairing needs len(workloads) == len(seeds), got "
                f"{len(workloads)} != {len(seeds)}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algorithms", algo_items)
        object.__setattr__(self, "workloads", workloads)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "seed_mode", seed_mode)
        object.__setattr__(self, "base_seed", int(base_seed))

    def cells(self) -> list[ExperimentCell]:
        """The deterministic expansion, in a stable canonical order."""
        out: list[ExperimentCell] = []
        if self.pairing == "zip":
            pairs = list(zip(self.workloads, enumerate(self.seeds)))
            coords = [(w, si, s) for w, (si, s) in pairs]
        else:
            coords = [
                (w, si, s)
                for w in self.workloads
                for si, s in enumerate(self.seeds)
            ]
        index = 0
        for algo_name, algo in self.algorithms:
            for w, si, s in coords:
                if self.seed_mode == "paired":
                    seed = derive_seed(self.base_seed, _workload_key(w), s)
                else:
                    seed = derive_seed(
                        self.base_seed, algo_name, algo, _workload_key(w), s
                    )
                out.append(
                    ExperimentCell(
                        index=index,
                        algorithm=algo_name,
                        algo=algo,
                        workload=w,
                        seed_index=si,
                        seed=seed,
                    )
                )
                index += 1
        return out

    def __len__(self) -> int:
        return len(self.algorithms) * (
            len(self.seeds)
            if self.pairing == "zip"
            else len(self.workloads) * len(self.seeds)
        )
