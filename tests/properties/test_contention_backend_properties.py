"""Property tests for the NIC-contention simulator backend.

Two contracts pin the backend:

* **Incremental parity** — ``ContentionSimulator.evaluate_delta`` is
  bit-identical (``==``, no tolerance) to a full contention evaluation
  of the same string, including probes that reassign machines (which,
  under eager pushes, can dirty the NIC timeline of *prefix* producers —
  the subtle case the backend's producer-floor clamp exists for).
* **Degradation** — with all transfer times zero the contention model
  collapses exactly to the paper's contention-free model: identical
  start/finish arrays and makespan, not merely approximately equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.model import TransferTimeMatrix, Workload, num_pairs
from repro.schedule.simulator import Simulator
from repro.schedule.valid_range import valid_insertion_range
from tests.strategies import workload_strings


def _random_move(string, graph, rng):
    """One validity-preserving relocate (possibly changing machine);
    returns the ``first_changed`` position the allocator would pass."""
    task = int(rng.integers(string.num_tasks))
    old_pos = string.position_of(task)
    lo, hi = valid_insertion_range(string, graph, task)
    new_pos = int(rng.integers(lo, hi + 1))
    machine = int(rng.integers(string.num_machines))
    string.relocate(task, new_pos, machine)
    return min(old_pos, new_pos), max(old_pos, new_pos)


def _zero_transfers(w: Workload) -> Workload:
    tr = TransferTimeMatrix(
        np.zeros((num_pairs(w.num_machines), w.num_data_items)),
        num_machines=w.num_machines,
    )
    return Workload(w.graph, w.exec_times, tr)


class TestIncrementalParity:
    @given(workload_strings(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_delta_equals_full_across_move_sequences(self, data, move_seed):
        """Bit-identical makespans over a chain of random valid moves,
        re-preparing after each committed move (the SE allocator
        pattern)."""
        w, s = data
        sim = ContentionSimulator(w)
        rng = np.random.default_rng(move_seed)
        state = sim.prepare(s.order, s.machines)
        assert state.makespan == sim.makespan(s.order, s.machines)

        for _ in range(5):
            first, last = _random_move(s, w.graph, rng)
            delta = sim.evaluate_delta(s.order, s.machines, first, state)
            parity = sim.evaluate_delta(
                s.order, s.machines, first, state, region_end=last
            )
            full = sim.makespan(s.order, s.machines)
            assert delta == full  # exact, no tolerance
            assert parity == full  # region_end must not change anything
            state = sim.prepare(s.order, s.machines)  # commit the move

    @given(workload_strings(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_delta_probe_revert_matches_full(self, data, move_seed):
        """The allocator's probe pattern: many relocate/score/revert
        cycles against one prepared state.  Machine reassignments are
        drawn freely, so probes routinely consume prefix-produced items
        on new machines — exercising the producer-floor restart."""
        w, s = data
        sim = ContentionSimulator(w)
        rng = np.random.default_rng(move_seed)
        state = sim.prepare(s.order, s.machines)
        base_pairs = s.pairs()

        for _ in range(8):
            task = int(rng.integers(s.num_tasks))
            orig_pos = s.position_of(task)
            orig_machine = s.machine_of(task)
            lo, hi = valid_insertion_range(s, w.graph, task)
            idx = int(rng.integers(lo, hi + 1))
            machine = int(rng.integers(s.num_machines))
            s.relocate(task, idx, machine)
            first = min(orig_pos, idx)
            full = sim.makespan(s.order, s.machines)
            assert (
                sim.evaluate_delta(s.order, s.machines, first, state) == full
            )
            s.relocate(task, orig_pos, orig_machine)  # revert the probe

        assert s.pairs() == base_pairs  # probes fully reverted

    @given(workload_strings())
    def test_delta_from_zero_is_full_evaluation(self, data):
        w, s = data
        sim = ContentionSimulator(w)
        state = sim.prepare(s.order, s.machines)
        assert sim.evaluate_delta(
            s.order, s.machines, 0, state
        ) == sim.makespan(s.order, s.machines)

    @given(workload_strings())
    def test_delta_past_end_returns_base_makespan(self, data):
        w, s = data
        sim = ContentionSimulator(w)
        state = sim.prepare(s.order, s.machines)
        assert (
            sim.evaluate_delta(s.order, s.machines, s.num_tasks, state)
            == state.makespan
        )

    @given(workload_strings())
    def test_prepare_matches_evaluate(self, data):
        """prepare() is a full evaluation: identical Schedule, span
        prefixes consistent with the finish times."""
        w, s = data
        sim = ContentionSimulator(w)
        state = sim.prepare(s.order, s.machines)
        sched = sim.evaluate(s)
        assert state.as_schedule() == sched.schedule
        k = s.num_tasks
        running = 0.0
        for p in range(k):
            assert state.span_prefix[p] == running
            running = max(running, state.finish[s.order[p]])
        assert state.span_prefix[k] == running == state.makespan

    @given(workload_strings(), st.integers(0, 2**32 - 1))
    def test_cutoff_never_changes_strictly_better_probes(
        self, data, move_seed
    ):
        """With cutoff=c, results < c are exact and results >= c become
        inf — the only contract the allocator's selection needs."""
        w, s = data
        sim = ContentionSimulator(w)
        rng = np.random.default_rng(move_seed)
        state = sim.prepare(s.order, s.machines)
        first, _last = _random_move(s, w.graph, rng)
        exact = sim.evaluate_delta(s.order, s.machines, first, state)
        cutoff = state.makespan
        pruned = sim.evaluate_delta(
            s.order, s.machines, first, state, cutoff
        )
        if exact < cutoff:
            assert pruned == exact
        else:
            assert pruned == float("inf")


class TestDegradation:
    @given(workload_strings())
    def test_zero_transfers_collapse_to_contention_free(self, data):
        """With every transfer time zero there is nothing to serialise:
        the NIC model's start/finish/makespan equal the paper model's
        **exactly** (bitwise, no tolerance)."""
        w, s = data
        wz = _zero_transfers(w)
        contended = ContentionSimulator(wz).evaluate(s)
        free = Simulator(wz).evaluate(s)
        assert contended.start == free.start
        assert contended.finish == free.finish
        assert contended.makespan == free.makespan

    @given(workload_strings(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_zero_transfer_deltas_collapse_too(self, data, move_seed):
        """The incremental tiers agree with each other as well when
        transfers are free."""
        w, s = data
        wz = _zero_transfers(w)
        nic = ContentionSimulator(wz)
        ref = Simulator(wz)
        rng = np.random.default_rng(move_seed)
        nic_state = nic.prepare(s.order, s.machines)
        ref_state = ref.prepare(s.order, s.machines)
        for _ in range(4):
            first, last = _random_move(s, w.graph, rng)
            assert nic.evaluate_delta(
                s.order, s.machines, first, nic_state
            ) == ref.evaluate_delta(
                s.order, s.machines, first, ref_state, region_end=last
            )
            nic_state = nic.prepare(s.order, s.machines)
            ref_state = ref.prepare(s.order, s.machines)


class TestPushOrder:
    @given(workload_strings())
    def test_transfers_pushed_in_item_index_order(self, data):
        """The documented NIC discipline: each subtask's cross-machine
        output items enter its machine's link in ascending item index."""
        w, s = data
        res = ContentionSimulator(w).evaluate(s)
        by_producer: dict[int, list[int]] = {}
        for t in res.transfers:
            by_producer.setdefault(t.producer, []).append(t.item)
        for items in by_producer.values():
            assert items == sorted(items)

    @given(workload_strings())
    def test_transfer_records_match_arrival_semantics(self, data):
        """Each transfer starts at max(producer finish, previous NIC
        use) and the consumer never starts before it arrives."""
        w, s = data
        res = ContentionSimulator(w).evaluate(s)
        sched = res.schedule
        for t in res.transfers:
            assert t.start >= sched.finish[t.producer] - 1e-9
            assert sched.start[t.consumer] >= t.finish - 1e-9
