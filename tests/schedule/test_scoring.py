"""CostModel / ScheduleScore — the billing arithmetic.

Cost is per-task (``price[machine] * scaled exec time``, summed), so it
depends on the matching string alone.
"""

import numpy as np
import pytest

from repro.schedule import make_simulator
from repro.schedule.operations import random_valid_string
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.workloads import WorkloadSpec, build_workload

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


class TestBackendIntegration:
    """The priced backend's scores agree with a hand-built CostModel."""

    @pytest.fixture
    def workload(self):
        return build_workload(
            WorkloadSpec(num_tasks=14, num_machines=4, seed=3)
        )

    def test_backend_cost_matches_hand_model(self, workload):
        sim = make_simulator(workload, platform="spot")
        hand = CostModel(
            sim.workload.exec_times.values, sim.cost_model.prices
        )
        rng = np.random.default_rng(4)
        s = random_valid_string(workload.graph, workload.num_machines, rng)
        assert sim.string_score(s).cost == hand.cost(s.machines)
