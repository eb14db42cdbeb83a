"""Cloud platform model: instance catalogs with speed, price and boot.

The paper's machine model is a flat ETC matrix — every machine is free
and always on.  A cloud user instead picks *instance types*: each type
runs tasks at some speed factor, bills by the hour, and takes a boot
delay before it accepts work (the model of SNIPPETS.md's bpmn-parser
``extra/task.py`` exemplar).  This module makes that a first-class,
declarative axis next to the network model:

* :class:`InstanceType` — one catalog entry ``(speed, price, boot)``;
* :class:`PlatformSpec` — a named catalog; machine ``m`` of a workload
  is assigned ``instances[m % len(instances)]`` (round-robin, so one
  spec fits any machine count);
* :class:`BoundPlatform` — the spec resolved against a concrete
  workload: per-machine speed/price/boot vectors, the speed-scaled
  execution-time matrix, and the boot-delay initial availability.

The **uniform** platform (an empty catalog) is the identity: ``apply``
returns the *same* :class:`~repro.model.workload.Workload` object and
no initial state, so the evaluation path is bit-identical to the plain
ETC model — the invariant every golden test in this repo pins.

Semantics, precisely:

* **speed** divides the machine's row of ``E`` (speed 2.0 → tasks run
  twice as fast on that machine);
* **price** is dollars per unit of *busy* time: a schedule's cost is
  ``sum over tasks of price[machine] * scaled_exec_time`` — you pay for
  the time your tasks occupy the instance, not for the makespan
  (per-task billing, the serverless model; it makes cost a function of
  the matching string alone);
* **boot** delays the machine's first availability: machine ``m``
  cannot start work before ``boot[m]`` (folded into the simulator's
  ``initial_avail`` — and ``initial_nic_free`` under NIC models, since
  an unbooted machine's NIC is down too).

>>> spec = PlatformSpec(
...     "tiny",
...     instances=(
...         InstanceType("slow", speed=1.0, price=0.1),
...         InstanceType("fast", speed=2.0, price=0.5),
...     ),
... )
>>> bound = spec.bind(3)  # machines 0,1,2 -> slow, fast, slow
>>> bound.speeds
(1.0, 2.0, 1.0)
>>> bound.prices
(0.1, 0.5, 0.1)
>>> UNIFORM_PLATFORM.is_uniform
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "InstanceType",
    "PlatformSpec",
    "BoundPlatform",
    "UNIFORM_PLATFORM",
    "CLOUD_PLATFORM",
    "SPOT_PLATFORM",
]


@dataclass(frozen=True)
class InstanceType:
    """One entry of a platform catalog.

    Attributes
    ----------
    name:
        Catalog label (``"m4.large"``, ``"spot-slow"``, ...).
    speed:
        Relative speed factor; divides the machine's ``E`` row.  Must be
        finite and > 0.
    price:
        Dollars per unit of busy time on this instance; >= 0.
    boot:
        Startup delay before the instance accepts work; >= 0.
    """

    name: str
    speed: float = 1.0
    price: float = 0.0
    boot: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance type needs a non-empty name")
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(
                f"instance {self.name!r}: speed must be finite and > 0, "
                f"got {self.speed!r}"
            )
        if not (math.isfinite(self.price) and self.price >= 0):
            raise ValueError(
                f"instance {self.name!r}: price must be finite and >= 0, "
                f"got {self.price!r}"
            )
        if not (math.isfinite(self.boot) and self.boot >= 0):
            raise ValueError(
                f"instance {self.name!r}: boot must be finite and >= 0, "
                f"got {self.boot!r}"
            )

    @property
    def is_identity(self) -> bool:
        """True when this type changes nothing about the ETC model."""
        return self.speed == 1.0 and self.price == 0.0 and self.boot == 0.0


@dataclass(frozen=True)
class PlatformSpec:
    """A named instance catalog, assignable to any machine count.

    Machine ``m`` of a workload gets ``instances[m % len(instances)]``
    (round-robin), so one spec serves the paper's 8-machine samples and
    the 20-machine figure workloads alike.  An empty catalog is the
    uniform (identity) platform.
    """

    name: str
    instances: tuple[InstanceType, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("platform needs a non-empty name")
        # tolerate list input from callers assembling catalogs
        object.__setattr__(self, "instances", tuple(self.instances))

    @property
    def is_uniform(self) -> bool:
        """True when the spec is the identity over the plain ETC model."""
        return all(inst.is_identity for inst in self.instances)

    @property
    def has_boot(self) -> bool:
        """True when any catalog entry carries a boot delay (which
        forces batch evaluation onto the sequential scalar path)."""
        return any(inst.boot > 0 for inst in self.instances)

    def instance_for(self, machine: int) -> InstanceType:
        """The catalog entry machine *machine* is assigned."""
        if not self.instances:
            return _IDENTITY_INSTANCE
        return self.instances[machine % len(self.instances)]

    def bind(self, num_machines: int) -> "BoundPlatform":
        """Resolve the catalog against a concrete machine count."""
        if num_machines < 1:
            raise ValueError(
                f"num_machines must be >= 1, got {num_machines}"
            )
        assigned = tuple(
            self.instance_for(m) for m in range(num_machines)
        )
        return BoundPlatform(
            spec=self,
            instance_of=assigned,
            speeds=tuple(inst.speed for inst in assigned),
            prices=tuple(inst.price for inst in assigned),
            boots=tuple(inst.boot for inst in assigned),
        )


_IDENTITY_INSTANCE = InstanceType("uniform")


@dataclass(frozen=True)
class BoundPlatform:
    """A :class:`PlatformSpec` resolved against ``num_machines`` machines."""

    spec: PlatformSpec
    instance_of: tuple[InstanceType, ...]
    speeds: tuple[float, ...]
    prices: tuple[float, ...]
    boots: tuple[float, ...]

    @property
    def num_machines(self) -> int:
        return len(self.instance_of)

    @property
    def has_boot(self) -> bool:
        return any(b > 0 for b in self.boots)

    def apply(self, workload):
        """*workload* with execution times scaled by instance speed.

        Returns the **same object** when the spec is uniform — the
        bit-identity guarantee of the default platform.  Transfer
        times, the task graph and the classification are untouched
        (the network model owns communication).
        """
        from repro.model.matrices import ExecutionTimeMatrix
        from repro.model.workload import Workload

        if self.spec.is_uniform:
            return workload
        if workload.num_machines != self.num_machines:
            raise ValueError(
                f"platform bound for {self.num_machines} machines cannot "
                f"apply to a {workload.num_machines}-machine workload"
            )
        import numpy as np

        scaled = workload.exec_times.values / np.asarray(
            self.speeds, dtype=float
        ).reshape(-1, 1)
        return Workload(
            graph=workload.graph,
            exec_times=ExecutionTimeMatrix(scaled),
            transfer_times=workload.transfer_times,
            classification=workload.classification,
            name=(
                f"{workload.name}@{self.spec.name}"
                if workload.name
                else self.spec.name
            ),
        )

    def combine_avail(self, initial_avail=None) -> list[float]:
        """Boot delays folded into an initial-availability vector.

        A machine is ready when it is both booted *and* past any
        caller-supplied busy state, hence the elementwise ``max``.
        """
        if initial_avail is None:
            return [float(b) for b in self.boots]
        if len(initial_avail) != self.num_machines:
            raise ValueError(
                f"initial_avail has {len(initial_avail)} entries for "
                f"{self.num_machines} machines"
            )
        return [
            max(float(b), float(a))
            for b, a in zip(self.boots, initial_avail)
        ]


#: The identity platform: today's flat ETC model, bit for bit.
UNIFORM_PLATFORM = PlatformSpec(
    "uniform",
    description="flat ETC model: every machine free, always on",
)

#: The bpmn-parser exemplar's cluster tiers: faster tiers cost more per
#: hour and all take 0.3 time units to boot.  Speeds/prices follow the
#: exemplar's published divisors and $/h rates.
CLOUD_PLATFORM = PlatformSpec(
    "cloud",
    instances=(
        InstanceType("c4.small", speed=1.0, price=0.074, boot=0.3),
        InstanceType("c4.large", speed=1.5, price=0.15, boot=0.3),
        InstanceType("c4.xlarge", speed=3.4, price=0.3, boot=0.3),
        InstanceType("c4.2xlarge", speed=6.1, price=0.59, boot=0.3),
    ),
    description="tiered instances, $/h grows faster than speed, 0.3 boot",
)

#: A zero-boot heterogeneous market: price-per-unit-of-work varies a lot
#: between tiers, so (makespan, cost) has a real Pareto front.
SPOT_PLATFORM = PlatformSpec(
    "spot",
    instances=(
        InstanceType("spot-slow", speed=1.0, price=0.05),
        InstanceType("spot-std", speed=1.6, price=0.16),
        InstanceType("spot-fast", speed=2.8, price=0.45),
        InstanceType("spot-burst", speed=4.0, price=1.1),
    ),
    description="zero-boot spot market with a wide price-per-work spread",
)
