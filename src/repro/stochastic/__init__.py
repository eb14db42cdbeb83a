"""Stochastic durations: distributions, scenario sampling, risk scoring.

The risk-aware tier of the reproduction (see ``docs/risk_aware.md``):

* :mod:`repro.stochastic.distributions` — declarative duration/transfer
  noise models (``deterministic`` / ``uniform:<w>`` /
  ``lognormal:<sigma>`` / ``empirical:<f1,f2,...>``) and seeded,
  worker-count-invariant scenario sampling;
* :mod:`repro.stochastic.scenarios` — B×S scoring over per-scenario
  scalar backends and the :class:`ScenarioBackend` that makes every
  engine's compared scalar a risk statistic (``mean`` / ``quantile:q``
  / ``cvar:q`` / ``saa:T:eps``) with zero engine changes.

Quickstart — sample scenarios and score one schedule's risk profile:

>>> from repro.stochastic import ScenarioEvaluator, sample_scenarios
>>> from repro.schedule.operations import random_valid_string
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> scen = sample_scenarios(w, "lognormal:0.25", scenarios=8, seed=0)
>>> scen.exec_tensor.shape == (8, w.num_machines, w.num_tasks)
True
>>> ev = ScenarioEvaluator(scen)
>>> s = random_valid_string(w.graph, w.num_machines, 3)
>>> samples = ev.samples_string(s)     # one makespan per scenario
>>> len(samples) == 8 and bool(samples.min() > 0)
True

Engines consume the same machinery through
``EvaluationService(w, objective="quantile:0.95", scenarios=256,
distribution="lognormal:0.25")``.
"""

from repro.stochastic.distributions import (
    DETERMINISTIC,
    DISTRIBUTION_FORMS,
    DistributionSpec,
    ScenarioSet,
    resolve_distribution,
    sample_scenarios,
    validate_scenario_settings,
)
from repro.stochastic.scenarios import ScenarioBackend, ScenarioEvaluator

__all__ = [
    "DETERMINISTIC",
    "DISTRIBUTION_FORMS",
    "DistributionSpec",
    "ScenarioSet",
    "resolve_distribution",
    "sample_scenarios",
    "validate_scenario_settings",
    "ScenarioBackend",
    "ScenarioEvaluator",
]
