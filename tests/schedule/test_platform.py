"""The platform axis: specs, registry, boot/speed semantics, bit-identity.

The contract that matters most here is the last test class: the default
``"uniform"`` platform must leave the whole evaluation path **bit
identical** to the historical no-platform code — both networks, scalar
and batch tier — because every golden result in this repo is pinned
against that path.
"""

import numpy as np
import pytest

from repro.model.platform import (
    CLOUD_PLATFORM,
    SPOT_PLATFORM,
    UNIFORM_PLATFORM,
    InstanceType,
    PlatformSpec,
)
from repro.optim.evaluation import EvaluationService
from repro.schedule import make_simulator
from repro.schedule.backend import (
    available_platforms,
    platform_cost_vectorized,
    platform_state,
    register_platform,
    resolve_platform,
)
from repro.schedule.operations import random_valid_string
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import jit_kernel


@pytest.fixture
def workload():
    return build_workload(WorkloadSpec(num_tasks=12, num_machines=3, seed=7))


class TestInstanceType:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            InstanceType("")
        with pytest.raises(ValueError, match="speed"):
            InstanceType("x", speed=0.0)
        with pytest.raises(ValueError, match="speed"):
            InstanceType("x", speed=float("inf"))
        with pytest.raises(ValueError, match="price"):
            InstanceType("x", price=-0.1)
        with pytest.raises(ValueError, match="boot"):
            InstanceType("x", boot=-1.0)

    def test_identity_flag(self):
        assert InstanceType("x").is_identity
        assert not InstanceType("x", speed=2.0).is_identity
        assert not InstanceType("x", price=0.1).is_identity
        assert not InstanceType("x", boot=0.5).is_identity


class TestPlatformSpec:
    def test_round_robin_assignment(self):
        spec = PlatformSpec(
            "p",
            instances=(
                InstanceType("a", speed=1.0),
                InstanceType("b", speed=2.0),
            ),
        )
        bound = spec.bind(5)
        assert bound.speeds == (1.0, 2.0, 1.0, 2.0, 1.0)
        assert [i.name for i in bound.instance_of] == ["a", "b", "a", "b", "a"]

    def test_uniform_and_boot_flags(self):
        assert UNIFORM_PLATFORM.is_uniform and not UNIFORM_PLATFORM.has_boot
        assert not SPOT_PLATFORM.is_uniform and not SPOT_PLATFORM.has_boot
        assert CLOUD_PLATFORM.has_boot

    def test_bind_validates_machine_count(self):
        with pytest.raises(ValueError, match="num_machines"):
            SPOT_PLATFORM.bind(0)

    def test_apply_scales_exec_rows_by_speed(self, workload):
        bound = SPOT_PLATFORM.bind(workload.num_machines)
        scaled = bound.apply(workload)
        assert scaled is not workload
        np.testing.assert_array_equal(
            scaled.exec_times.values,
            workload.exec_times.values
            / np.array(bound.speeds).reshape(-1, 1),
        )
        # communication is the network model's business, not the platform's
        assert scaled.transfer_times is workload.transfer_times

    def test_apply_uniform_is_the_same_object(self, workload):
        bound = UNIFORM_PLATFORM.bind(workload.num_machines)
        assert bound.apply(workload) is workload

    def test_apply_rejects_machine_count_mismatch(self, workload):
        with pytest.raises(ValueError, match="machine"):
            SPOT_PLATFORM.bind(workload.num_machines + 1).apply(workload)

    def test_combine_avail_is_elementwise_max(self):
        spec = PlatformSpec(
            "b",
            instances=(
                InstanceType("x", boot=2.0),
                InstanceType("y", boot=0.5),
            ),
        )
        bound = spec.bind(2)
        assert bound.combine_avail() == [2.0, 0.5]
        assert bound.combine_avail([1.0, 1.0]) == [2.0, 1.0]
        with pytest.raises(ValueError, match="entries"):
            bound.combine_avail([1.0])


class TestRegistry:
    def test_builtins_registered(self):
        assert {"cloud", "spot", "uniform"} <= set(available_platforms())

    def test_resolve_is_case_insensitive(self):
        assert resolve_platform("SPOT") is SPOT_PLATFORM
        assert resolve_platform("uniform") is UNIFORM_PLATFORM

    def test_unknown_platform_lists_choices(self):
        with pytest.raises(ValueError, match="uniform"):
            resolve_platform("nope")

    def test_spec_objects_pass_through(self):
        ad_hoc = PlatformSpec("ad-hoc", instances=(InstanceType("z"),))
        assert resolve_platform(ad_hoc) is ad_hoc

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_platform(PlatformSpec("uniform"))

    def test_cost_vectorized_iff_zero_boot(self):
        assert platform_cost_vectorized("uniform")
        assert platform_cost_vectorized("spot")
        assert not platform_cost_vectorized("cloud")  # 0.3 boot everywhere


class TestBootSemantics:
    def test_platform_state_folds_boot_into_avail(self, workload):
        _, avail, nic_free = platform_state(workload, "cloud")
        bound = CLOUD_PLATFORM.bind(workload.num_machines)
        assert avail == list(bound.boots)
        assert nic_free is None  # contention-free: no NIC state
        _, _, nic = platform_state(workload, "cloud", network="nic")
        assert nic == list(bound.boots)  # an unbooted machine's NIC is down

    def test_platform_state_uniform_is_identity(self, workload):
        assert platform_state(workload, "uniform") == (workload, None, None)

    def test_boot_delays_the_first_task(self, workload):
        boot = 50.0
        spec = PlatformSpec(
            "all-boot", instances=(InstanceType("b", boot=boot),)
        )
        plain = make_simulator(workload)
        booted = make_simulator(workload, platform=spec)
        rng = np.random.default_rng(2)
        s = random_valid_string(workload.graph, workload.num_machines, rng)
        sched = booted.evaluate(s)
        assert min(sched.start) >= boot
        assert booted.string_makespan(s) >= plain.string_makespan(s)

    def test_boot_routes_batch_to_sequential_fallback(self, workload):
        with jit_kernel():
            tiers = [
                EvaluationService(workload, platform=p).kernel_tier
                for p in ("uniform", "spot", "cloud")
            ]
        assert tiers == ["jit", "jit", "sequential"]


class TestUniformBitIdentity:
    """platform="uniform" is the historical path, bit for bit."""

    # pinned against the pre-platform evaluation path (seed 7 workload,
    # seed 11 string): both networks happen to agree on this string
    GOLDEN = {"contention-free": 538.8551161139121, "nic": 538.8551161139121}

    def _string(self, workload, seed=11):
        rng = np.random.default_rng(seed)
        return random_valid_string(
            workload.graph, workload.num_machines, rng
        )

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_scalar_tier_bit_identical(self, workload, network):
        s = self._string(workload)
        plain = make_simulator(workload, network)
        uniform = make_simulator(workload, network, platform="uniform")
        assert uniform.workload is workload  # not even a copy
        assert uniform.string_makespan(s) == plain.string_makespan(s)
        assert uniform.string_makespan(s) == self.GOLDEN[network]
        assert uniform.cost_model is None

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_batch_kernels_bit_identical(self, workload, network):
        strings = [self._string(workload, seed) for seed in range(20)]
        plain = EvaluationService(workload, network)
        with jit_kernel():
            uniform = EvaluationService(workload, network, platform="uniform")
        assert uniform.kernel_tier == "jit"  # uniform never forces the loop
        got = uniform.batch_string_makespans(strings)
        assert got == plain.batch_string_makespans(strings)

    def test_uniform_score_is_free(self, workload):
        s = self._string(workload)
        sim = make_simulator(workload, platform="uniform")
        score = sim.string_score(s)
        assert score.cost == 0.0
        assert score.makespan == sim.string_makespan(s)


class TestPricedBackend:
    GOLDEN_HEFT_SPOT = (226.87958221066023, 105.39607112443565)

    def test_spot_score_matches_hand_billing(self, workload):
        rng = np.random.default_rng(5)
        s = random_valid_string(workload.graph, workload.num_machines, rng)
        sim = make_simulator(workload, platform="spot")
        bound = SPOT_PLATFORM.bind(workload.num_machines)
        E = sim.workload.exec_times.values
        expected = sum(
            bound.prices[m] * E[m, t] for t, m in enumerate(s.machines)
        )
        score = sim.string_score(s)
        assert score.cost == pytest.approx(expected, rel=1e-12)
        assert score.point == (score.makespan, score.cost)
        assert sum(score.busy) == pytest.approx(
            E[s.machines, np.arange(workload.num_tasks)].sum()
        )

    def test_heft_on_spot_golden(self, workload):
        from repro.baselines import heft

        res = heft(workload, platform="spot")
        span, cost = self.GOLDEN_HEFT_SPOT
        assert res.makespan == span
        assert res.cost == cost
        # faster machines exist, so the platform run beats uniform HEFT
        assert res.makespan < heft(workload).makespan
