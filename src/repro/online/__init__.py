"""Online scheduling service: streaming DAG arrivals over the simulators.

Public surface of the event-driven layer (see
:mod:`repro.online.simulator` for the full semantics):

* :class:`~repro.online.arrivals.JobStream` /
  :func:`~repro.online.arrivals.poisson_stream` /
  :func:`~repro.online.arrivals.load_trace` — where jobs come from;
* :class:`~repro.online.simulator.DynamicSimulator` — the event loop;
* :data:`~repro.online.policies.DISPATCH_POLICIES` /
  :class:`~repro.online.policies.ReoptConfig` — the decision layers;
* :func:`~repro.online.metrics.summarize` — flow-time / throughput
  aggregation.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.online.arrivals": (
            "JobArrival",
            "JobStream",
            "load_trace",
            "mean_job_work",
            "poisson_stream",
            "rate_for_utilisation",
            "save_trace",
        ),
        "repro.online.metrics": (
            "JobRecord",
            "OnlineMetrics",
            "percentile",
            "summarize",
        ),
        "repro.online.policies": (
            "DISPATCH_POLICIES",
            "ReoptConfig",
            "dispatch",
            "improve_residual",
        ),
        "repro.online.simulator": (
            "CommittedJobView",
            "DynamicSimulator",
            "OnlineResult",
        ),
    },
)
