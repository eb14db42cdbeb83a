"""Unit tests for the SE allocation step (paper §4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SEConfig, SimulatedEvolution
from repro.core.allocation import Allocator
from repro.schedule.encoding import is_valid_for
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import Simulator
from tests.routes import walker
from tests.strategies import workload_strings


@pytest.fixture
def sim(tiny_workload):
    return Simulator(tiny_workload)


@pytest.fixture
def allocator(tiny_workload, sim):
    return Allocator(tiny_workload, sim, y_candidates=tiny_workload.num_machines)


class TestAllocatorValidation:
    def test_y_zero_rejected(self, tiny_workload, sim):
        with pytest.raises(ValueError, match="y_candidates"):
            Allocator(tiny_workload, sim, y_candidates=0)

    def test_y_above_machine_count_rejected(self, tiny_workload, sim):
        with pytest.raises(ValueError, match="y_candidates"):
            Allocator(tiny_workload, sim, y_candidates=99)

    def test_unknown_slot_strategy_rejected(self, tiny_workload, sim):
        with pytest.raises(ValueError, match="slot"):
            Allocator(tiny_workload, sim, y_candidates=2, slots="bogus")


class TestAllocate:
    def test_empty_selection_is_noop(self, tiny_workload, sim, allocator):
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 1)
        before = s.pairs()
        result = allocator.allocate(s, [])
        assert s.pairs() == before
        assert result.moved == 0
        assert result.makespan == sim.string_makespan(s)

    def test_preserves_validity(self, tiny_workload, allocator):
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 2)
        allocator.allocate(s, list(range(tiny_workload.num_tasks)))
        assert is_valid_for(s, tiny_workload.graph)

    def test_never_worsens_with_full_y(self, tiny_workload, sim, allocator):
        """With Y = l the current location is among the candidates, so
        relocating any single subtask cannot increase the makespan."""
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 3)
        before = sim.string_makespan(s)
        result = allocator.allocate(s, [5])
        assert result.makespan <= before + 1e-9

    def test_usually_improves_random_string(self, tiny_workload, sim, allocator):
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 4)
        before = sim.string_makespan(s)
        result = allocator.allocate(s, list(range(tiny_workload.num_tasks)))
        assert result.makespan < before  # full greedy pass on a random string

    def test_trials_counted(self, tiny_workload, allocator):
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 5)
        result = allocator.allocate(s, [0, 1, 2])
        assert result.trials >= 3  # at least one probe per selected task

    def test_small_y_restricts_machines(self, tiny_workload, sim):
        """With Y=1 every relocated subtask lands on its best machine."""
        e = tiny_workload.exec_times
        alloc = Allocator(tiny_workload, sim, y_candidates=1)
        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 6)
        tasks = list(range(tiny_workload.num_tasks))
        alloc.allocate(s, tasks)
        for t in tasks:
            assert s.machine_of(t) == e.best_machine(t)

    def test_larger_y_never_reaches_fewer_schedules(self, tiny_workload, sim):
        """Y=l candidate set contains the Y=1 set, so the greedy result
        from the same start cannot be worse for the single relocated task."""
        s1 = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 7)
        s2 = s1.copy()
        small = Allocator(tiny_workload, sim, y_candidates=1)
        large = Allocator(
            tiny_workload, sim, y_candidates=tiny_workload.num_machines
        )
        r1 = small.allocate(s1, [9])
        r2 = large.allocate(s2, [9])
        assert r2.makespan <= r1.makespan + 1e-9


class TestSlotStrategies:
    @pytest.mark.parametrize("task", [0, 4, 9, 15])
    def test_per_machine_matches_all_positions(self, tiny_workload, sim, task):
        """The slot optimisation must land on the same best makespan as
        the literal all-positions enumeration (ABL-SLOT equivalence)."""
        base = random_valid_string(
            tiny_workload.graph, tiny_workload.num_machines, 8
        )
        results = {}
        for slots in ("per-machine", "all-positions"):
            s = base.copy()
            alloc = Allocator(
                tiny_workload,
                sim,
                y_candidates=tiny_workload.num_machines,
                slots=slots,
            )
            results[slots] = alloc.allocate(s, [task]).makespan
        assert results["per-machine"] == pytest.approx(results["all-positions"])

    def test_per_machine_uses_fewer_trials(self, tiny_workload, sim):
        base = random_valid_string(
            tiny_workload.graph, tiny_workload.num_machines, 9
        )
        trials = {}
        for slots in ("per-machine", "all-positions"):
            alloc = Allocator(
                tiny_workload,
                sim,
                y_candidates=tiny_workload.num_machines,
                slots=slots,
            )
            trials[slots] = alloc.allocate(base.copy(), list(range(10))).trials
        assert trials["per-machine"] < trials["all-positions"]


class TestOneBackendCall:
    def test_an_allocation_step_is_one_allocate_call(self, tiny_workload, sim):
        """The allocator hands the whole phase to the backend: one
        ``allocate`` call per step, no ``prepare`` or ``place`` of its
        own."""
        calls = []

        class Spy:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(sim, name)

        s = random_valid_string(tiny_workload.graph, tiny_workload.num_machines, 4)
        want = Allocator(tiny_workload, sim, y_candidates=3).allocate(
            s.copy(), [0, 4, 9]
        )
        got = Allocator(tiny_workload, Spy(), y_candidates=3).allocate(
            s, [0, 4, 9]
        )
        assert calls == ["allocate"]
        assert got == want

    @given(
        workload_strings(min_tasks=2, max_machines=5),
        st.sampled_from(["contention-free", "nic"]),
        st.sampled_from(["per-machine", "all-positions"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_se_runs_agree_across_tiers(self, data, network, slots, seed):
        """Every SE iteration (allocation in one compiled call, ``O``
        from the walker) is the Python tier's, ``evaluations`` too."""
        w, s = data
        runs = []
        for tier in ("compiled", "python"):
            with walker(tier):
                res = SimulatedEvolution(
                    SEConfig(
                        seed=seed,
                        max_iterations=4,
                        network=network,
                        allocation_slots=slots,
                    )
                ).run(w, initial=s)
            rows = [
                {k: v for k, v in row.items() if k != "elapsed_seconds"}
                for row in res.trace.to_rows()
            ]
            runs.append((rows, res.evaluations, res.best_string))
        assert runs[0] == runs[1]
