"""CostModel / ScheduleScore — the billing arithmetic.

Cost is per-task (``price[machine] * scaled exec time``, summed), so it
depends on the matching string alone; the batch tier's ``batch_costs``
must reproduce the scalar loop bit for bit, since the vectorized cost
column rides the same guarantee the batch makespan kernels pin.
"""

import numpy as np
import pytest

from repro.schedule import make_simulator
from repro.schedule.backend import batch_kernel_factory
from repro.schedule.operations import random_valid_string
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.workloads import WorkloadSpec, build_workload
from tests.routes import jit_kernel

E = np.array([[2.0, 4.0, 1.0], [1.0, 1.0, 5.0]])
PRICES = [0.1, 1.0]


@pytest.fixture
def cm():
    return CostModel(E, PRICES)


class TestValidation:
    def test_exec_times_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            CostModel(np.ones(3), [0.1])

    def test_price_length_must_match_machines(self):
        with pytest.raises(ValueError, match="prices"):
            CostModel(E, [0.1])

    def test_prices_must_be_finite_nonnegative(self):
        with pytest.raises(ValueError, match="prices"):
            CostModel(E, [0.1, -1.0])
        with pytest.raises(ValueError, match="prices"):
            CostModel(E, [0.1, float("nan")])


class TestScalarTier:
    def test_cost_is_per_task_billing(self, cm):
        # task 0 on m0 (2.0*0.1), task 1 on m1 (1.0*1.0), task 2 on m0
        assert cm.cost([0, 1, 0]) == pytest.approx(0.2 + 1.0 + 0.1)

    def test_busy_times_bincount(self, cm):
        assert cm.busy_times([0, 1, 0]) == (3.0, 1.0)
        assert cm.busy_times([1, 1, 1]) == (0.0, 7.0)

    def test_score_assembles_triple(self, cm):
        s = cm.score([0, 1, 0], makespan=9.5)
        assert isinstance(s, ScheduleScore)
        assert s.makespan == 9.5
        assert s.cost == pytest.approx(1.3)
        assert s.busy == (3.0, 1.0)
        assert s.point == (9.5, s.cost)

    def test_zero_model_is_free(self):
        z = CostModel.zero(E)
        assert z.is_free
        assert z.cost([1, 0, 1]) == 0.0
        assert z.busy_times([1, 0, 1]) == (4.0, 6.0)  # busy still real

    def test_is_free_reflects_prices(self, cm):
        assert not cm.is_free


class TestBatchTier:
    def test_batch_costs_match_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(0)
        l, k = 7, 40
        model = CostModel(
            rng.uniform(0.5, 50.0, size=(l, k)), rng.uniform(0, 2, size=l)
        )
        machines = rng.integers(0, l, size=(64, k))
        assert model.batch_costs(machines).tolist() == [
            model.cost(row) for row in machines
        ]

    def test_batch_shape_validated(self, cm):
        with pytest.raises(ValueError, match="machines"):
            cm.batch_costs(np.zeros((4, 99), dtype=int))
        with pytest.raises(ValueError, match="machines"):
            cm.batch_costs(np.zeros(3, dtype=int))


class TestBackendIntegration:
    """The priced backend's scores agree with a hand-built CostModel."""

    @pytest.fixture
    def workload(self):
        return build_workload(
            WorkloadSpec(num_tasks=14, num_machines=4, seed=3)
        )

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_batch_scores_agree_with_scalar_scores(self, workload, network):
        # the evaluation service's kernel route: makespans from the
        # network's kernel, costs from one gather into the billing table
        sim = make_simulator(workload, network, platform="spot")
        with jit_kernel():
            kernel = batch_kernel_factory(network)(sim.workload)
        rng = np.random.default_rng(9)
        strings = [
            random_valid_string(workload.graph, workload.num_machines, rng)
            for _ in range(16)
        ]
        spans = kernel.string_makespans(strings)
        costs = sim.cost_model.batch_costs(
            np.array([s.machines for s in strings])
        )
        singles = [sim.string_score(s) for s in strings]
        assert spans.tolist() == [s.makespan for s in singles]
        assert costs.tolist() == [s.cost for s in singles]

    def test_backend_cost_matches_hand_model(self, workload):
        sim = make_simulator(workload, platform="spot")
        hand = CostModel(
            sim.workload.exec_times.values, sim.cost_model.prices
        )
        rng = np.random.default_rng(4)
        s = random_valid_string(workload.graph, workload.num_machines, rng)
        assert sim.string_score(s).cost == hand.cost(s.machines)
