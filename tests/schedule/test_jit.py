"""Unit tests for the compiled kernel tier: selection, the network
table, warmup, and tier reporting end to end.

Everything here runs on numba-free installations: the selection logic
reads ``repro.schedule.jit._NUMBA_OK`` at decision time (not import
time), so monkeypatching the flag exercises both the numba-present and
numba-absent paths honestly — and the kernel bodies are plain Python
when numba is absent, so scoring through a "selected" kernel still
works (slowly) on tiny workloads.
"""

import pytest

from repro.optim.evaluation import EvaluationService
from repro.schedule import jit as jit_mod
from repro.schedule import make_simulator, random_valid_string
from repro.schedule.backend import (
    available_networks,
    batch_kernel_factory,
    kernel_tier,
)
from repro.schedule.jit import numba_available, warmup
from repro.schedule.vectorized import BatchSimulator, ContentionBatchSimulator
from repro.workloads import small_workload
from tests.routes import no_batch_kernel


@pytest.fixture
def w():
    return small_workload(seed=3)


class TestOverrideValidation:
    def test_auto_follows_availability(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert kernel_tier("contention-free") == "jit"
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert kernel_tier("contention-free") == "sequential"
        assert numba_available() is False

    def test_old_kernel_variable_is_not_read(self, monkeypatch):
        """The retired ``REPRO_KERNEL`` switch pins nothing any more."""
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        for value in ("numpy", "jit", "bogus"):
            monkeypatch.setenv("REPRO_KERNEL", value)
            assert kernel_tier("nic") == "jit"


class TestTierSelection:
    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_numba_present_selects_jit(self, network, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert kernel_tier(network) == "jit"

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_numba_absent_selects_sequential(self, network, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert kernel_tier(network) == "sequential"
        assert batch_kernel_factory(network) is None

    def test_no_kernels_at_all_is_sequential(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        with no_batch_kernel("nic"):
            assert kernel_tier("nic") == "sequential"
            assert batch_kernel_factory("nic") is None

    def test_factory_returns_jit_classes_when_selected(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert batch_kernel_factory("contention-free") is BatchSimulator
        assert batch_kernel_factory("nic") is ContentionBatchSimulator

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_service_builds_jit_kernel(self, network, w, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(w, network)
        assert svc.kernel_tier == "jit"
        s = random_valid_string(w.graph, w.num_machines, 0)
        scalar = make_simulator(w, network)
        assert svc.batch_string_makespans([s]) == [scalar.string_makespan(s)]

    def test_initial_state_still_routes_sequential(self, w, monkeypatch):
        """Busy-machine backends never ride the kernel."""
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(w, initial_avail=[1.0] * w.num_machines)
        assert svc.kernel_tier == "sequential"


class TestRegistration:
    def test_builtin_networks_have_jit_kernels(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        for network in available_networks():
            assert batch_kernel_factory(network).kernel_tier == "jit"

    def test_kernel_tier_attribute(self):
        assert BatchSimulator.kernel_tier == "jit"
        assert ContentionBatchSimulator.kernel_tier == "jit"


class TestServiceReporting:
    def test_service_reports_tier(self, w, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert EvaluationService(w).kernel_tier == "sequential"
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert EvaluationService(w).kernel_tier == "jit"

    def test_service_sequential_when_batch_disabled(self, w):
        svc = EvaluationService(w, prefer_batch=False)
        assert svc.kernel_tier == "sequential"

    def test_objective_backend_forwards_tier(self, w, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(
            w, objective="weighted:0.7:0.3", platform="uniform"
        )
        assert svc.kernel_tier == "jit"

    def test_scenario_backend_forwards_tier(self, w, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(
            w,
            objective="mean",
            scenarios=2,
            distribution="uniform:0.2",
            scenario_seed=7,
        )
        assert svc.kernel_tier == "jit"


class TestWarmup:
    def test_warmup_reports_availability_and_is_idempotent(self):
        assert warmup() is numba_available()
        assert warmup() is numba_available()

    def test_warmup_accepts_explicit_workload(self, w):
        assert warmup(w) is numba_available()
