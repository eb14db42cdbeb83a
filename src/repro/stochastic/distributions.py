"""Duration/transfer distributions and seeded scenario sampling.

The paper's ETC model is deterministic: ``E[m, t]`` *is* subtask
``t``'s running time on machine ``m``.  Real durations are
distributions — so this module makes the uncertainty a declarative,
string-keyed axis (exactly like networks and platforms):

* :class:`DistributionSpec` — a named multiplicative noise model.  A
  scenario draws one positive factor per *subtask* (and one per *data
  item*): scenario ``s`` runs with ``E_s = E * f_exec[s]`` (column
  scaling — the task's work is random, the machines' relative speeds
  are not) and ``Tr_s = Tr * f_tr[s]``.  Uniform and lognormal are
  mean-one, so the *expected* matrix is the nominal one; an empirical
  table's mean is whatever the table says (a straggler table like
  ``1,1,1,1,4`` deliberately inflates it);
* :func:`resolve_distribution` — parses the JSON/CLI-safe forms
  ``"deterministic"``, ``"uniform:<width>"``, ``"lognormal:<sigma>"``
  and ``"empirical:<f1,f2,...>"`` (a per-task empirical factor table in
  the style of bearbattle__dag-scheduling-sim's task-duration sampler —
  e.g. ``"empirical:1,1,1,1,4"`` is a 20%-probability 4x straggler);
* :func:`sample_scenarios` — materialises ``S`` scenarios as a
  :class:`ScenarioSet`: the ``(S, l, k)`` execution tensor, the
  per-scenario transfer matrices, and per-scenario
  :class:`~repro.model.workload.Workload` views the scenario backends
  are built from.

Determinism contract
--------------------

Sampling is a pure function of ``(workload shape, distribution, S,
seed)``: the generator is seeded from ``(salt, seed)`` alone and the
draw order is fixed (execution factors first, then transfer factors),
so the same call returns bit-identical tensors in every process — the
experiment runner's worker count (``REPRO_WORKERS``) can never change a
scenario (pinned by ``tests/stochastic``).

>>> spec = resolve_distribution("lognormal:0.25")
>>> spec.name
'lognormal:0.25'
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> scen = sample_scenarios(w, spec, scenarios=4, seed=7)
>>> scen.exec_tensor.shape  # (S, l, k)
(4, 5, 20)
>>> bool((scen.exec_tensor > 0).all())
True
>>> again = sample_scenarios(w, "lognormal:0.25", scenarios=4, seed=7)
>>> bool((again.exec_tensor == scen.exec_tensor).all())
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.model.matrices import ExecutionTimeMatrix, TransferTimeMatrix
from repro.model.workload import Workload

__all__ = [
    "DistributionSpec",
    "DETERMINISTIC",
    "DISTRIBUTION_FORMS",
    "resolve_distribution",
    "ScenarioSet",
    "sample_scenarios",
    "validate_scenario_settings",
]

#: The distribution grammar, one ``(form, description)`` pair per
#: accepted spelling — the single source the CLI listing
#: (``repro algorithms``) and the docs point at.
DISTRIBUTION_FORMS = (
    ("deterministic", "the nominal matrices, no noise (the default)"),
    (
        "uniform:<width>",
        "factor ~ U[1-width, 1+width], mean-one jitter (0 <= width < 1)",
    ),
    (
        "lognormal:<sigma>",
        "factor = exp(sigma*Z - sigma^2/2), mean-one heavy-ish tail",
    ),
    (
        "empirical:<f1,f2,...>",
        "factor drawn uniformly from a table, e.g. empirical:1,1,1,1,4 "
        "(a 20% chance of a 4x straggler)",
    ),
)

# Fixed salt so scenario streams never collide with engine/workload
# seeding that uses the same small integer seeds.
_SCENARIO_SALT = 0x5CEA0


@dataclass(frozen=True)
class DistributionSpec:
    """One multiplicative noise model for durations and transfers.

    ``sample_factors`` draws positive factors of any requested shape
    (uniform/lognormal mean-one, empirical with its table's mean).
    Factors must stay strictly positive — execution
    matrices require it (:class:`~repro.model.matrices.
    ExecutionTimeMatrix`) — which every accepted parameterisation
    guarantees by construction.
    """

    kind: str
    width: float = 0.0
    sigma: float = 0.0
    factors: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "uniform", "lognormal", "empirical"):
            raise ValueError(
                f"unknown distribution kind {self.kind!r}; expected "
                "'deterministic', 'uniform', 'lognormal' or 'empirical'"
            )
        if self.kind == "uniform" and not (
            math.isfinite(self.width) and 0 <= self.width < 1
        ):
            raise ValueError(
                f"uniform width must be in [0, 1), got {self.width!r} "
                "(width >= 1 could draw non-positive execution times)"
            )
        if self.kind == "lognormal" and not (
            math.isfinite(self.sigma) and self.sigma >= 0
        ):
            raise ValueError(
                f"lognormal sigma must be finite and >= 0, got {self.sigma!r}"
            )
        if self.kind == "empirical":
            object.__setattr__(
                self, "factors", tuple(float(f) for f in self.factors)
            )
            if not self.factors:
                raise ValueError("empirical factor table must be non-empty")
            for f in self.factors:
                if not (math.isfinite(f) and f > 0):
                    raise ValueError(
                        f"empirical factors must be finite and > 0, got {f!r}"
                    )

    @property
    def name(self) -> str:
        if self.kind == "deterministic":
            return "deterministic"
        if self.kind == "uniform":
            return f"uniform:{self.width:g}"
        if self.kind == "lognormal":
            return f"lognormal:{self.sigma:g}"
        return "empirical:" + ",".join(f"{f:g}" for f in self.factors)

    @property
    def is_deterministic(self) -> bool:
        """True when every drawn factor is exactly 1.0."""
        return self.kind == "deterministic" or (
            self.kind == "uniform" and self.width == 0
        ) or (
            self.kind == "lognormal" and self.sigma == 0
        ) or (
            self.kind == "empirical" and set(self.factors) == {1.0}
        )

    def sample_factors(
        self, rng: np.random.Generator, shape: tuple
    ) -> np.ndarray:
        """Positive multiplicative factors of *shape* drawn from *rng*."""
        if self.kind == "uniform" and self.width > 0:
            return rng.uniform(1.0 - self.width, 1.0 + self.width, shape)
        if self.kind == "lognormal" and self.sigma > 0:
            # mean-one: E[exp(sigma*Z - sigma^2/2)] = 1
            return np.exp(
                rng.normal(-0.5 * self.sigma**2, self.sigma, shape)
            )
        if self.kind == "empirical":
            table = np.asarray(self.factors, dtype=float)
            return table[rng.integers(0, table.size, shape)]
        return np.ones(shape)


#: The identity distribution: the nominal matrices, no noise.
DETERMINISTIC = DistributionSpec("deterministic")


def resolve_distribution(
    spec: Union[str, DistributionSpec],
) -> DistributionSpec:
    """*spec* as a :class:`DistributionSpec`.

    Accepts a spec instance or any string form of
    :data:`DISTRIBUTION_FORMS`.
    """
    if isinstance(spec, DistributionSpec):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"distribution must be a name string or DistributionSpec, "
            f"got {spec!r}"
        )
    if spec == "deterministic":
        return DETERMINISTIC
    try:
        if spec.startswith("uniform:"):
            return DistributionSpec(
                "uniform", width=float(spec.partition(":")[2])
            )
        if spec.startswith("lognormal:"):
            return DistributionSpec(
                "lognormal", sigma=float(spec.partition(":")[2])
            )
        if spec.startswith("empirical:"):
            raw = spec.partition(":")[2]
            return DistributionSpec(
                "empirical",
                factors=tuple(float(f) for f in raw.split(",") if f.strip()),
            )
    except ValueError as e:
        raise ValueError(f"bad distribution {spec!r}: {e}") from None
    raise ValueError(
        f"unknown distribution {spec!r}; expected one of: "
        + ", ".join(form for form, _ in DISTRIBUTION_FORMS)
    )


class ScenarioSet:
    """``S`` sampled scenarios of one workload, as tensors and views.

    Built by :func:`sample_scenarios`.  Holds the per-scenario factor
    matrices and exposes three layers on top of them:

    * :attr:`exec_tensor` — the ``(S, l, k)`` execution-time tensor
      ``E_s = E * f_exec[s]`` (lazily materialised, cached);
    * :attr:`transfer_tensor` — the ``(S, l(l-1)/2, p)`` transfer
      tensor (``None`` when the workload has no data items);
    * :meth:`workload_for` — scenario ``s`` as a
      :class:`~repro.model.workload.Workload` sharing the nominal
      graph object (the *same* nominal object under a
      deterministic distribution, preserving bit-identity), which is
      what the scenario backends are built from.
    """

    __slots__ = (
        "workload",
        "distribution",
        "seed",
        "exec_factors",
        "transfer_factors",
        "_exec_tensor",
        "_transfer_tensor",
        "_workloads",
    )

    def __init__(
        self,
        workload: Workload,
        distribution: DistributionSpec,
        seed: int,
        exec_factors: np.ndarray,
        transfer_factors: np.ndarray,
    ):
        self.workload = workload
        self.distribution = distribution
        self.seed = seed
        self.exec_factors = exec_factors
        self.transfer_factors = transfer_factors
        self._exec_tensor = None
        self._transfer_tensor = None
        self._workloads: dict = {}

    @property
    def scenarios(self) -> int:
        """The scenario count ``S``."""
        return self.exec_factors.shape[0]

    @property
    def exec_tensor(self) -> np.ndarray:
        """The ``(S, l, k)`` execution-time tensor."""
        if self._exec_tensor is None:
            E = self.workload.exec_times.values
            self._exec_tensor = E[None, :, :] * self.exec_factors[:, None, :]
        return self._exec_tensor

    @property
    def transfer_tensor(self):
        """The ``(S, l(l-1)/2, p)`` transfer tensor (``None`` if p=0)."""
        tr = self.workload.transfer_times.values
        if tr.size == 0:
            return None
        if self._transfer_tensor is None:
            self._transfer_tensor = (
                tr[None, :, :] * self.transfer_factors[:, None, :]
            )
        return self._transfer_tensor

    def workload_for(self, s: int) -> Workload:
        """Scenario *s* as a :class:`Workload` (cached).

        Shares the nominal graph and classification objects;
        only the matrices differ.  Under a deterministic distribution
        this *is* the nominal workload object, so downstream packing
        and scoring are bit-identical to the plain path.
        """
        if not 0 <= s < self.scenarios:
            raise IndexError(
                f"scenario index {s} out of range [0, {self.scenarios})"
            )
        if self.distribution.is_deterministic:
            return self.workload
        cached = self._workloads.get(s)
        if cached is not None:
            return cached
        w = self.workload
        trt = self.transfer_tensor
        built = Workload(
            graph=w.graph,
            exec_times=ExecutionTimeMatrix(self.exec_tensor[s]),
            transfer_times=(
                w.transfer_times
                if trt is None
                else TransferTimeMatrix(trt[s], w.num_machines)
            ),
            classification=w.classification,
            name=f"{w.name}#s{s}" if w.name else f"scenario-{s}",
        )
        self._workloads[s] = built
        return built


def sample_scenarios(
    workload: Workload,
    distribution: Union[str, DistributionSpec] = DETERMINISTIC,
    scenarios: int = 1,
    seed: int = 0,
) -> ScenarioSet:
    """Draw *scenarios* perturbed copies of *workload*'s matrices.

    Pure function of its arguments (see the module docstring's
    determinism contract); execution factors are drawn before transfer
    factors, one row per scenario.
    """
    if scenarios < 1:
        raise ValueError(f"scenarios must be >= 1, got {scenarios}")
    spec = resolve_distribution(distribution)
    k = workload.num_tasks
    p = workload.transfer_times.values.shape[1]
    if spec.is_deterministic:
        exec_f = np.ones((scenarios, k))
        tr_f = np.ones((scenarios, p))
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([_SCENARIO_SALT, int(seed) & (2**63 - 1)])
        )
        exec_f = spec.sample_factors(rng, (scenarios, k))
        tr_f = spec.sample_factors(rng, (scenarios, p))
    return ScenarioSet(workload, spec, int(seed), exec_f, tr_f)


def validate_scenario_settings(objective, scenarios: int, distribution):
    """Cross-validate the scenario axis of a config or service.

    Returns the resolved ``(objective, distribution)`` pair; raises
    :class:`ValueError` when the combination cannot be evaluated —
    a scenario objective without scenarios, or scenario parameters
    attached to a deterministic objective (which would silently change
    nothing).
    """
    from repro.optim.objective import resolve_objective

    obj = resolve_objective(objective)
    spec = resolve_distribution(distribution)
    if scenarios < 0:
        raise ValueError(f"scenarios must be >= 0, got {scenarios}")
    if obj.is_scenario:
        if scenarios < 1:
            raise ValueError(
                f"objective {obj.name!r} reduces over Monte-Carlo "
                "scenarios: set scenarios >= 1 (e.g. --scenarios 256)"
            )
    else:
        if scenarios:
            raise ValueError(
                f"scenarios={scenarios} has no effect under objective "
                f"{obj.name!r}; use a scenario objective "
                "(mean / quantile:<q> / cvar:<q> / saa:<T>:<eps>)"
            )
        if not spec.is_deterministic:
            raise ValueError(
                f"distribution {spec.name!r} has no effect under objective "
                f"{obj.name!r}; use a scenario objective "
                "(mean / quantile:<q> / cvar:<q> / saa:<T>:<eps>)"
            )
    return obj, spec
