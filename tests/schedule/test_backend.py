"""Unit tests for the simulator-backend network table."""

import pytest

from repro.extensions.contention import ContentionSimulator
from repro.optim import EvaluationService
from repro.schedule import (
    DEFAULT_NETWORK,
    NIC_NETWORK,
    Simulator,
    SimulatorBackend,
    available_networks,
    make_simulator,
    plain_schedule,
)
from repro.schedule.walker import load
from repro.workloads import WorkloadSpec, build_workload


@pytest.fixture
def workload():
    return build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=7))


class TestRegistry:
    def test_builtin_networks(self):
        assert available_networks() == ["contention-free", "nic"]

    def test_factory_types(self, workload):
        assert isinstance(make_simulator(workload), Simulator)
        assert isinstance(
            make_simulator(workload, DEFAULT_NETWORK), Simulator
        )
        assert isinstance(
            make_simulator(workload, NIC_NETWORK), ContentionSimulator
        )

    def test_names_are_case_insensitive(self, workload):
        assert isinstance(make_simulator(workload, "NIC"), ContentionSimulator)

    def test_unknown_network_lists_choices(self, workload):
        with pytest.raises(ValueError, match="available"):
            make_simulator(workload, "infiniband")

    def test_backends_satisfy_protocol(self, workload):
        for name in available_networks():
            sim = make_simulator(workload, name)
            assert isinstance(sim, SimulatorBackend)
            for method in (
                "makespan",
                "string_makespan",
                "evaluate",
                "prepare",
                "prepare_string",
                "evaluate_delta",
                "finish_times",
            ):
                assert callable(getattr(sim, method)), (name, method)
            assert sim.workload is workload

    @pytest.mark.parametrize(
        "route", ["contention-free", "nic", "weighted", "scenarios", "walker"]
    )
    def test_one_route_per_se_phase(self, workload, route):
        """SE's allocation phase has one backend call, ``allocate``: no
        backend, wrapper or compiled walker keeps a per-subtask
        ``place`` or its ``slots`` beside it."""
        if route in available_networks():
            backend = make_simulator(workload, route)
        elif route == "weighted":
            backend = EvaluationService(
                workload, objective="weighted:1:0.5"
            ).backend
        elif route == "scenarios":
            backend = EvaluationService(
                workload,
                objective="quantile:0.9",
                scenarios=4,
                distribution="uniform:0.3",
            ).backend
        else:
            module = load()[0]
            if module is None:
                pytest.skip("the compiled walker does not load on this host")
            backend = module.Walker
        assert callable(getattr(backend, "allocate")), backend
        assert not hasattr(backend, "place"), backend
        assert not hasattr(backend, "slots"), backend

    def test_protocol_has_no_place(self):
        assert callable(getattr(SimulatorBackend, "allocate"))
        assert "place" not in dir(SimulatorBackend)


class TestPlainSchedule:
    def test_unwraps_both_backends(self, workload):
        from repro.schedule import Schedule, random_valid_string

        s = random_valid_string(workload.graph, workload.num_machines, 3)
        for name in available_networks():
            sched = plain_schedule(make_simulator(workload, name).evaluate(s))
            assert isinstance(sched, Schedule)
            assert sched.makespan == max(sched.finish)

    def test_rejects_non_schedules(self):
        with pytest.raises(TypeError, match="Schedule"):
            plain_schedule(42)


class TestConfigsCarryNetwork:
    def test_se_config_network_validated(self):
        from repro.core import SEConfig

        assert SEConfig().network == DEFAULT_NETWORK
        assert SEConfig(network="nic").network == "nic"
        with pytest.raises(ValueError, match="network"):
            SEConfig(network="")

    def test_ga_config_network_validated(self):
        from repro.baselines import GAConfig

        assert GAConfig().network == DEFAULT_NETWORK
        with pytest.raises(ValueError, match="network"):
            GAConfig(network="")

    def test_unknown_network_rejected_at_construction(self, workload):
        from repro.core import SEConfig, run_se

        with pytest.raises(ValueError, match="unknown network"):
            run_se(workload, SEConfig(seed=0, network="warp-drive"))
