"""EvaluationService: backend selection, scoring, and call accounting."""

import pytest

from repro.extensions.contention import ContentionSimulator
from repro.optim import EvaluationService
from repro.schedule import Simulator, make_simulator
from repro.schedule.operations import random_valid_string
from repro.workloads import small_workload
from tests.routes import walker


@pytest.fixture(scope="module")
def workload():
    return small_workload(seed=2)


@pytest.fixture(scope="module")
def strings(workload):
    return [
        random_valid_string(workload.graph, workload.num_machines, s)
        for s in range(6)
    ]


class TestRouting:
    def test_unknown_network_rejected(self, workload):
        with pytest.raises(ValueError, match="unknown network"):
            EvaluationService(workload, "token-ring")

    def test_batch_matches_scalar_reference(self, workload, strings):
        svc = EvaluationService(workload)
        ref = Simulator(workload)
        got = svc.batch_string_makespans(strings)
        assert got == [ref.string_makespan(s) for s in strings]

    def test_batch_matches_scalar_reference_nic(self, workload, strings):
        svc = EvaluationService(workload, "nic")
        ref = ContentionSimulator(workload)
        got = svc.batch_string_makespans(strings)
        assert got == [ref.string_makespan(s) for s in strings]

    def test_batch_without_wrapper_loops_scalar(self, workload, strings):
        svc = EvaluationService(workload)
        ref = Simulator(workload)
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]
        orders = [list(s.order) for s in strings]
        machines = [list(s.machines) for s in strings]
        assert svc.batch_makespans(orders, machines) == [
            ref.makespan(o, m) for o, m in zip(orders, machines)
        ]

    @pytest.mark.parametrize("initial", [None, "busy"])
    @pytest.mark.parametrize("tier", ["compiled", "python"])
    @pytest.mark.parametrize("platform", ["uniform", "spot", "cloud"])
    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_batch_route_table(
        self, workload, strings, network, platform, tier, initial
    ):
        # boot delays (cloud) and residual machine state reach the
        # batch rows exactly as they reach a single scalar call
        busy = [1.0] * workload.num_machines if initial == "busy" else None
        with walker(tier):
            svc = EvaluationService(
                workload, network, platform=platform, initial_avail=busy
            )
            ref = make_simulator(
                workload, network, platform=platform, initial_avail=busy
            )
        assert svc.walker_tier == ref.walker_tier
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]
        assert svc.evaluations == len(strings)

    def test_delta_matches_full(self, workload, strings):
        svc = EvaluationService(workload)
        base = strings[0]
        state = svc.prepare(base.order, base.machines)
        probe = base.copy()
        task = probe.order[-1]
        probe.assign(task, (probe.machine_of(task) + 1) % workload.num_machines)
        got = svc.evaluate_delta(
            probe.order, probe.machines, probe.position_of(task), state
        )
        assert got == svc.string_makespan(probe)


class TestAccounting:
    def test_each_tier_counts_calls(self, workload, strings):
        svc = EvaluationService(workload)
        assert svc.evaluations == 0
        svc.string_makespan(strings[0])
        assert svc.evaluations == 1
        svc.makespan(list(strings[0].order), list(strings[0].machines))
        assert svc.evaluations == 2
        svc.evaluate(strings[0])
        assert svc.evaluations == 3
        state = svc.prepare(strings[0].order, strings[0].machines)
        assert svc.evaluations == 4
        svc.evaluate_delta(strings[0].order, strings[0].machines, 0, state)
        assert svc.evaluations == 5
        svc.batch_string_makespans(strings)
        assert svc.evaluations == 5 + len(strings)

    def test_schedule_of_is_free(self, workload, strings):
        svc = EvaluationService(workload)
        sched = svc.schedule_of(strings[0])
        assert sched.makespan > 0
        assert svc.evaluations == 0

    def test_external_calls_fold_in(self, workload):
        svc = EvaluationService(workload)
        svc.count(17)
        assert svc.evaluations == 17

    def test_empty_batch_counts_nothing(self, workload):
        svc = EvaluationService(workload)
        assert svc.batch_string_makespans([]) == []
        assert svc.evaluations == 0


class TestDeterministicDefaultShortCut:
    """The deterministic default is answered without loading the
    scenario sampler or the platform catalog; every other combination
    raises what the full validation raises."""

    @pytest.mark.parametrize(
        "objective, scenarios, distribution",
        [
            ("makespan", 5, "deterministic"),
            ("makespan", 0, "lognormal:0.25"),
            ("makespan", -1, "deterministic"),
            ("cvar:0.9", 0, "deterministic"),
            ("no-such-objective", 0, "deterministic"),
            ("makespan", 0, "no-such-distribution"),
            ("weighted:1:0.5", 3, "deterministic"),
        ],
    )
    def test_invalid_combinations_raise_the_full_validation_error(
        self, objective, scenarios, distribution
    ):
        from repro.optim.evaluation import EvaluationFields, scenario_settings
        from repro.stochastic.distributions import validate_scenario_settings

        with pytest.raises(ValueError) as want:
            validate_scenario_settings(objective, scenarios, distribution)
        for build in (
            lambda: scenario_settings(objective, scenarios, distribution),
            lambda: EvaluationFields(
                objective=objective,
                scenarios=scenarios,
                distribution=distribution,
            ),
            lambda: EvaluationService(
                small_workload(seed=1),
                objective=objective,
                scenarios=scenarios,
                distribution=distribution,
            ),
        ):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == str(want.value)

    def test_the_default_is_the_makespan_objective(self):
        from repro.optim.evaluation import scenario_settings
        from repro.optim.objective import MAKESPAN, resolve_objective

        assert scenario_settings("makespan", 0, "deterministic") == (
            MAKESPAN,
            None,
        )
        assert resolve_objective("makespan") is MAKESPAN

    @pytest.mark.parametrize("platform", ["no-such-platform", "", "unif"])
    def test_an_unknown_platform_raises_the_resolver_error(self, platform):
        from repro.optim.evaluation import EvaluationFields
        from repro.schedule.backend import make_simulator, resolve_platform

        with pytest.raises(ValueError) as want:
            resolve_platform(platform)
        for build in (
            lambda: EvaluationFields(platform=platform),
            lambda: make_simulator(small_workload(seed=1), platform=platform),
        ):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("platform", ["uniform", "UNIFORM"])
    def test_the_uniform_platform_changes_nothing(self, platform):
        w = small_workload(seed=1)
        svc = EvaluationService(w, platform=platform)
        assert svc.platform == "uniform"
        assert svc.effective_workload is w
        assert svc.cost_model is None
