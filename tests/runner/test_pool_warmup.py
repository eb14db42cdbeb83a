"""Pool initializer warmup and cache-write cleanup (runner satellites)."""

import json

import pytest

from repro.runner import run_experiment, warmup_worker
from repro.runner.pool import _store_cached, _tmp_path
from repro.runner.results import RESULT_SCHEMA_VERSION
from repro.runner.spec import AlgorithmSpec, ExperimentSpec
from repro.schedule import jit
from repro.workloads import WorkloadSpec


class TestWarmupWorker:
    def test_noop_on_sequential_tier(self, monkeypatch):
        monkeypatch.setattr(jit, "_NUMBA_OK", False)
        monkeypatch.setattr(jit, "warmup", lambda workload=None: 1 / 0)
        assert warmup_worker() is False

    def test_warms_when_compiled_tier_selected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jit, "_NUMBA_OK", True)
        monkeypatch.setattr(
            jit, "warmup", lambda workload=None: calls.append(1) or True
        )
        assert warmup_worker() is True
        assert calls == [1]

    def test_runs_in_current_container(self):
        # whatever tier the container has, the initializer must succeed
        assert warmup_worker() in (True, False)

    def test_wired_as_pool_initializer(self):
        import inspect

        from repro.runner import pool

        src = inspect.getsource(pool.run_experiment)
        assert "initializer=warmup_worker" in src


class TestStoreCachedCleanup:
    def spec(self):
        return ExperimentSpec(
            name="cache-cleanup",
            workloads=[
                WorkloadSpec(num_tasks=6, num_machines=2, seed=1, name="w")
            ],
            algorithms={"HEFT": AlgorithmSpec.make("heft")},
            seeds=[0],
        )

    def test_failed_rename_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        from pathlib import Path

        real_replace = Path.replace

        def failing_replace(self, target):
            if str(target).endswith(".json"):
                raise OSError("disk full")
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(self.spec(), cache_dir=tmp_path)
        # the regression: a failed rename used to strand the scratch file
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        from pathlib import Path

        def failing_write(self, text):
            self.touch()  # half-written file, then the failure
            raise OSError("interrupted")

        monkeypatch.setattr(Path, "write_text", failing_write)
        with pytest.raises(OSError, match="interrupted"):
            run_experiment(self.spec(), cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_successful_store_is_atomic_and_loadable(self, tmp_path):
        res = run_experiment(self.spec(), cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert not any(f.name.endswith(".tmp") for f in files)
        doc = json.loads(files[0].read_text())
        assert doc["version"] == RESULT_SCHEMA_VERSION
        # resume: the second run serves the cell from cache
        hits = []
        run_experiment(
            self.spec(),
            cache_dir=tmp_path,
            progress=lambda done, total, cell, cached: hits.append(cached),
        )
        assert hits == [True]
        assert res.cells[0].makespan > 0

    def test_tmp_path_is_pid_unique_sibling(self, tmp_path):
        import os

        target = tmp_path / "cell.json"
        tmp = _tmp_path(target)
        assert tmp.parent == target.parent
        assert str(os.getpid()) in tmp.name
        assert tmp.name.endswith(".tmp")

    def test_store_cached_writes_target_only(self, tmp_path):
        cell = run_experiment(self.spec()).cells[0]
        target = tmp_path / "one.json"
        _store_cached(target, cell)
        assert [p.name for p in tmp_path.iterdir()] == ["one.json"]
