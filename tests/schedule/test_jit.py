"""Unit tests for the compiled kernel tier: selection, override
validation, the network table, warmup, and tier reporting end to end.

Everything here runs on numba-free installations: the selection logic
reads ``repro.schedule.jit._NUMBA_OK`` at decision time (not import
time), so monkeypatching the flag exercises both the numba-present and
numba-absent paths honestly — and the kernel bodies are plain Python
when numba is absent, so scoring through a "selected" JIT kernel still
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
from repro.schedule.jit import (
    JitBatchSimulator,
    JitContentionBatchSimulator,
    jit_selected,
    numba_available,
    requested_kernel,
    warmup,
)
from repro.workloads import small_workload
from tests.routes import no_batch_kernel


@pytest.fixture
def w():
    return small_workload(seed=3)


class TestOverrideValidation:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert requested_kernel() == "auto"

    @pytest.mark.parametrize("raw", ["auto", "JIT", " numpy "])
    def test_known_modes_normalised(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", raw)
        assert requested_kernel() == raw.strip().lower()

    def test_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            requested_kernel()

    def test_jit_demand_without_numba_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "jit")
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        with pytest.raises(ValueError, match="numba is not installed"):
            jit_selected()

    def test_jit_demand_with_numba_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "jit")
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert jit_selected() is True

    def test_numpy_pin_never_selects_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert jit_selected() is False

    def test_auto_follows_availability(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert jit_selected() is True
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert jit_selected() is False
        assert numba_available() is False


class TestTierSelection:
    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_numba_present_selects_jit(self, network, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert kernel_tier(network) == "jit"

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_numba_absent_selects_numpy(self, network, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert kernel_tier(network) == "vectorized"

    def test_no_kernels_at_all_is_sequential(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        with no_batch_kernel("nic"):
            assert kernel_tier("nic") == "sequential"
            assert batch_kernel_factory("nic") is None

    def test_factory_returns_jit_classes_when_selected(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert batch_kernel_factory("contention-free") is JitBatchSimulator
        assert batch_kernel_factory("nic") is JitContentionBatchSimulator

    def test_factory_returns_numpy_classes_otherwise(self, monkeypatch):
        from repro.schedule.vectorized import BatchSimulator
        from repro.schedule.vectorized_contention import (
            ContentionBatchSimulator,
        )

        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert batch_kernel_factory("contention-free") is BatchSimulator
        assert batch_kernel_factory("nic") is ContentionBatchSimulator

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_service_builds_jit_kernel(self, network, w, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(w, network)
        assert svc.kernel_tier == "jit"
        assert svc.is_vectorized
        s = random_valid_string(w.graph, w.num_machines, 0)
        scalar = make_simulator(w, network)
        assert svc.batch_string_makespans([s]) == [scalar.string_makespan(s)]

    def test_initial_state_still_routes_sequential(self, w, monkeypatch):
        """Busy-machine backends never ride a kernel, jit or numpy."""
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(w, initial_avail=[1.0] * w.num_machines)
        assert svc.kernel_tier == "sequential"
        assert not svc.is_vectorized


class TestRegistration:
    def test_builtin_networks_have_jit_kernels(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        for network in available_networks():
            assert batch_kernel_factory(network).kernel_tier == "jit"

    def test_kernel_tier_attribute(self):
        assert JitBatchSimulator.kernel_tier == "jit"
        assert JitContentionBatchSimulator.kernel_tier == "jit"


class TestServiceReporting:
    def test_service_reports_tier(self, w, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", False)
        assert EvaluationService(w).kernel_tier == "vectorized"
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        assert EvaluationService(w).kernel_tier == "jit"

    def test_service_sequential_when_batch_disabled(self, w):
        svc = EvaluationService(w, prefer_batch=False)
        assert svc.kernel_tier == "sequential"
        assert not svc.is_vectorized

    def test_objective_backend_forwards_tier(self, w, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(jit_mod, "_NUMBA_OK", True)
        svc = EvaluationService(
            w, objective="weighted:0.7:0.3", platform="uniform"
        )
        assert svc.kernel_tier == "jit"

    def test_scenario_backend_forwards_tier(self, w, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
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
