"""The compiled walker tier: loading, fallback, faults and pickling.

The tier-equivalence properties live in
``tests/properties/test_walker_tier_properties.py``; this file covers
what surrounds them: the compiled tier loads where a compiler exists,
the Python tier takes over (with a recorded reason) when the compile
fails or no compiler is found, bad inputs raise instead of crashing,
states and simulators survive ``pickle`` and ``deepcopy``, and
concurrent first builds into one cache both succeed.
"""

from __future__ import annotations

import copy
import importlib.resources
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.extensions.contention import ContentionSimulator
from repro.optim.evaluation import EvaluationService
from repro.schedule import walker as walker_mod
from repro.schedule.operations import random_valid_string
from repro.schedule.simulator import InvalidScheduleError, Simulator
from repro.workloads import small_workload
from tests.routes import walker

SIMULATORS = [Simulator, ContentionSimulator]

compiled = pytest.mark.skipif(
    walker_mod.load()[0] is None,
    reason=f"compiled walker unavailable: {walker_mod.load()[1]}",
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _both(cls, w, **kwargs):
    sims = []
    for tier in ("compiled", "python"):
        with walker(tier):
            sims.append(cls(w, **kwargs))
    return sims


def _string(w, seed=3):
    return random_valid_string(w.graph, w.num_machines, seed)


class TestLoading:
    def test_source_ships_as_package_data(self):
        source = importlib.resources.files("repro.schedule") / "_walk.c"
        assert source.is_file()
        assert b"PyInit__walk" in source.read_bytes()

    def test_compiled_tier_loads_where_a_compiler_exists(self):
        if walker_mod._compiler() is None:
            pytest.skip("no C compiler on this host")
        module, reason = walker_mod.load()
        assert module is not None, reason
        with walker("compiled"):
            sim = Simulator(small_workload(seed=1))
        assert (sim.walker_tier, sim.walker_reason) == ("compiled", None)

    def test_env_switch_forces_the_python_tier(self):
        with walker("python"):
            sim = ContentionSimulator(small_workload(seed=1))
        assert sim.walker_tier == "python"
        assert sim.walker_reason == "REPRO_WALKER=python"

    @pytest.mark.parametrize("value", ["fortran", "compiled"])
    def test_unknown_env_value_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv(walker_mod.ENV, value)
        with pytest.raises(ValueError, match="not a walker switch"):
            Simulator(small_workload(seed=1))

    @pytest.mark.parametrize("network", ["contention-free", "nic"])
    def test_service_reports_the_walker_tier(self, network):
        w = small_workload(seed=1)
        with walker("python"):
            svc = EvaluationService(w, network=network)
        assert (svc.walker_tier, svc.walker_reason) == (
            "python",
            "REPRO_WALKER=python",
        )
        with walker("compiled"):
            svc = EvaluationService(w, network=network)
        assert svc.walker_tier == svc._raw.walker_tier
        assert (svc.walker_reason is None) == (svc.walker_tier == "compiled")


def _probe(tmp_path: Path, env: dict) -> subprocess.Popen:
    """Run a fresh interpreter that builds (or fails to build) the
    walker in the cache under *tmp_path* and reports tier and results."""
    script = (
        "import json, sys\n"
        "from repro.workloads import small_workload\n"
        "from repro.schedule.operations import random_valid_string\n"
        "from repro.schedule.simulator import Simulator\n"
        "from repro.extensions.contention import ContentionSimulator\n"
        "w = small_workload(seed=1)\n"
        "s = random_valid_string(w.graph, w.num_machines, 3)\n"
        "out = {}\n"
        "for cls in (Simulator, ContentionSimulator):\n"
        "    sim = cls(w)\n"
        "    st = sim.prepare(s.order, s.machines)\n"
        "    out[cls.__name__] = [sim.walker_tier, sim.walker_reason,\n"
        "        sim.makespan(s.order, s.machines), st.finish,\n"
        "        sim.evaluate_delta(s.order, s.machines, 3, st)]\n"
        "print(json.dumps(out))\n"
    )
    full_env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "TMPDIR": str(tmp_path / "tmp"),
        **env,
    }
    full_env.pop(walker_mod.ENV, None)
    (tmp_path / "tmp").mkdir(exist_ok=True)
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=full_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _result(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out)


def _python_results() -> dict:
    w = small_workload(seed=1)
    s = _string(w)
    out = {}
    with walker("python"):
        for cls in SIMULATORS:
            sim = cls(w)
            st = sim.prepare(s.order, s.machines)
            out[cls.__name__] = [
                sim.makespan(s.order, s.machines),
                st.finish,
                sim.evaluate_delta(s.order, s.machines, 3, st),
            ]
    return out


class TestFallback:
    def test_failed_compile_falls_back_with_identical_results(self, tmp_path):
        cc = tmp_path / "broken-cc"
        cc.write_text("#!/bin/sh\necho 'simulated compiler failure' >&2\nexit 1\n")
        cc.chmod(0o755)
        got = _result(_probe(tmp_path, {"CC": str(cc)}))
        want = _python_results()
        for name, (tier, reason, *values) in got.items():
            assert tier == "python"
            assert "compile failed" in reason
            assert "simulated compiler failure" in reason
            assert values == want[name]
        assert not list((tmp_path / "cache" / "repro").iterdir())

    def test_no_compiler_on_path_falls_back(self, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        got = _result(_probe(tmp_path, {"PATH": str(empty), "CC": ""}))
        want = _python_results()
        for name, (tier, reason, *values) in got.items():
            assert tier == "python"
            assert "no C compiler" in reason
            assert values == want[name]

    @compiled
    def test_concurrent_first_builds_share_one_cache(self, tmp_path):
        procs = [_probe(tmp_path, {}) for _ in range(2)]
        results = [_result(p) for p in procs]
        want = _python_results()
        for got in results:
            for name, (tier, reason, *values) in got.items():
                assert (tier, reason) == ("compiled", None)
                assert values == want[name]
        built = sorted(p.name for p in (tmp_path / "cache" / "repro").iterdir())
        assert len(built) == 1 and built[0].startswith("_walk-")


@compiled
@pytest.mark.parametrize("cls", SIMULATORS)
class TestFaults:
    def _sim(self, cls):
        with walker("compiled"):
            return cls(small_workload(seed=1))

    def test_wrong_lengths_raise_value_error(self, cls):
        sim = self._sim(cls)
        s = _string(sim.workload)
        with pytest.raises(ValueError, match="order has 19 entries"):
            sim.makespan(s.order[:-1], s.machines)
        with pytest.raises(ValueError, match="machine_of has 21 entries"):
            sim.prepare(s.order, [*s.machines, 0])
        state = sim.prepare(s.order, s.machines)
        with pytest.raises(ValueError, match="order has 0 entries"):
            sim.evaluate_delta([], s.machines, 0, state)

    @pytest.mark.parametrize("bad", [-1, 20, 2**70])
    def test_out_of_range_task_ids_raise(self, cls, bad):
        sim = self._sim(cls)
        s = _string(sim.workload)
        order = list(s.order)
        order[5] = bad
        with pytest.raises((ValueError, OverflowError)):
            sim.makespan(order, s.machines)
        state = sim.prepare(s.order, s.machines)
        with pytest.raises((ValueError, OverflowError)):
            sim.evaluate_delta(order, s.machines, 0, state)

    @pytest.mark.parametrize("bad", [-1, 5, 10**6])
    def test_out_of_range_machines_raise(self, cls, bad):
        sim = self._sim(cls)
        s = _string(sim.workload)
        machines = list(s.machines)
        machines[2] = bad
        with pytest.raises(ValueError, match=r"machine_of\[2\]"):
            sim.prepare(s.order, machines)

    def test_non_int_items(self, cls):
        sim = self._sim(cls)
        s = _string(sim.workload)
        # numpy ints go through __index__; floats are refused
        want = sim.makespan(s.order, s.machines)
        assert sim.makespan(np.array(s.order), np.array(s.machines)) == want
        assert sim.makespan(tuple(s.order), tuple(s.machines)) == want
        with pytest.raises(TypeError):
            sim.makespan([float(t) for t in s.order], s.machines)

    def test_precedence_violation_message_matches_python(self, cls):
        fast, slow = _both(cls, small_workload(seed=1))
        s = _string(fast.workload)
        order = list(reversed(s.order))
        messages = []
        for sim in (fast, slow):
            for method in (sim.makespan, sim.prepare):
                with pytest.raises(InvalidScheduleError) as info:
                    method(order, s.machines)
                messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert messages[0].startswith("subtask ")

    def test_foreign_states_are_refused(self, cls):
        fast, slow = _both(cls, small_workload(seed=1))
        s = _string(fast.workload)
        with pytest.raises(TypeError, match="compiled prepare"):
            fast.evaluate_delta(
                s.order, s.machines, 0, slow.prepare(s.order, s.machines)
            )
        other = SIMULATORS[1 - SIMULATORS.index(cls)]
        with walker("compiled"):
            alien = other(fast.workload).prepare(s.order, s.machines)
        with pytest.raises(ValueError, match="another network"):
            fast.evaluate_delta(s.order, s.machines, 0, alien)

    def test_state_fields_are_read_only(self, cls):
        sim = self._sim(cls)
        s = _string(sim.workload)
        state = sim.prepare(s.order, s.machines)
        with pytest.raises(AttributeError):
            state.makespan = 0.0
        state.finish[0] = -5.0  # a copy: the snapshot is untouched
        assert state.finish[0] != -5.0


def _malformed(w, fault):
    """A string with one fault, valid everywhere else."""
    s = _string(w)
    order, machines = list(s.order), list(s.machines)
    if fault == "repeat":
        # the last task is a sink, so repeating its predecessor in its
        # place breaks no precedence: only the permutation is wrong
        order[-1] = order[-2]
    else:
        machines[order[-1]] = -1 if fault == "machine=-1" else w.num_machines
    return s, order, machines


@pytest.mark.parametrize("fault", ["repeat", "machine=-1", "machine=l"])
@pytest.mark.parametrize(
    "method",
    [
        "makespan",
        "prepare",
        "evaluate_delta",
        "evaluate_delta window",
        "service batch",
    ],
)
@pytest.mark.parametrize("network", ["contention-free", "nic"])
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_malformed_strings_raise_on_every_tier(tier, network, method, fault):
    """Every walker tier and the service's batch route raise what the
    batch validation raises: ``InvalidScheduleError`` for an order that
    is not a permutation, a plain ``ValueError`` for a machine id
    outside ``[0, l)``."""
    w = small_workload(seed=1)
    s, order, machines = _malformed(w, fault)
    with walker(tier):
        svc = EvaluationService(w, network)
    sim = svc.backend
    calls = {
        "makespan": lambda: sim.makespan(order, machines),
        "prepare": lambda: sim.prepare(order, machines),
        "evaluate_delta": lambda: sim.evaluate_delta(
            order, machines, 0, sim.prepare(s.order, s.machines)
        ),
        # the fault sits in the last two positions, the only ones the
        # call says it changed
        "evaluate_delta window": lambda: sim.evaluate_delta(
            order,
            machines,
            len(order) - 2,
            sim.prepare(s.order, s.machines),
            region_end=len(order) - 1,
        ),
        "service batch": lambda: svc.batch_makespans([order], [machines]),
    }
    with pytest.raises(ValueError) as err:
        calls[method]()
    want = InvalidScheduleError if fault == "repeat" else ValueError
    assert type(err.value) is want


@pytest.mark.parametrize("scenarios", [0, 2])
@pytest.mark.parametrize("network", ["contention-free", "nic"])
@pytest.mark.parametrize("tier", ["compiled", "python"])
def test_batch_rows_must_pair_up(tier, network, scenarios):
    """The service's scalar batch loop (plain and scenario) raises the
    batch kernel's ``ValueError`` when ``orders`` and ``machines`` have
    different row counts, instead of dropping the extra rows."""
    w = small_workload(seed=1)
    s = _string(w)
    risk = {"objective": "mean", "distribution": "lognormal:0.25"}
    with walker(tier):
        svc = EvaluationService(
            w, network, scenarios=scenarios, **(risk if scenarios else {})
        )
    for orders, machines in (
        ([s.order] * 2, [s.machines]),
        (np.array([s.order]), np.array([s.machines] * 3)),
    ):
        with pytest.raises(ValueError, match="rows but machines has"):
            svc.batch_makespans(orders, machines)
    assert svc.evaluations == 0


@pytest.mark.parametrize("cls", SIMULATORS)
@pytest.mark.parametrize("tier", ["compiled", "python"])
class TestCopies:
    def test_simulators_pickle_and_deepcopy(self, cls, tier):
        w = small_workload(seed=1)
        with walker(tier):
            sim = cls(w, initial_avail=[3.0, 0.0, 1.5, 0.0, 2.0])
        s = _string(w)
        want = sim.makespan(s.order, s.machines)
        with walker(tier):  # a load rebuilds the walker under the env
            clones = [pickle.loads(pickle.dumps(sim)), copy.deepcopy(sim)]
        for clone in clones:
            assert clone.walker_tier == sim.walker_tier
            assert clone.makespan(s.order, s.machines) == want

    def test_states_pickle_and_deepcopy(self, cls, tier):
        w = small_workload(seed=1)
        with walker(tier):
            sim = cls(w)
        s = _string(w)
        state = sim.prepare(s.order, s.machines)
        s.relocate(s.order[4], 9, 1)
        want = sim.evaluate_delta(s.order, s.machines, 4, state)
        for clone in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            for field in ("order", "machine_of", "pos_of", "start", "finish",
                          "span_prefix", "makespan"):
                assert getattr(clone, field) == getattr(state, field)
            assert clone.as_schedule() == state.as_schedule()
            assert sim.evaluate_delta(s.order, s.machines, 4, clone) == want


@compiled
def test_tampered_state_payload_is_refused():
    with walker("compiled"):
        sim = Simulator(small_workload(seed=1))
    s = _string(sim.workload)
    fn, args = sim.prepare(s.order, s.machines).__reduce__()
    ints = bytearray(args[5])
    ints[0:4] = (10**6).to_bytes(4, sys.byteorder)  # order[0] out of range
    with pytest.raises(ValueError, match="corrupt state"):
        fn(*args[:5], bytes(ints), args[6])
    with pytest.raises(ValueError, match="corrupt state"):
        fn(*args[:5], args[5][:-4], args[6])


class TestInitialStateValidation:
    """A NaN or negative busy time used to be accepted silently."""

    @pytest.mark.parametrize("cls", SIMULATORS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e6, -0.5])
    def test_bad_initial_avail_is_rejected(self, cls, bad):
        w = small_workload(seed=1)
        avail = [0.0] * w.num_machines
        avail[0] = bad
        with pytest.raises(ValueError, match=r"initial_avail\[0\]"):
            cls(w, initial_avail=avail)

    @pytest.mark.parametrize("bad", [math.nan, -2.0])
    def test_bad_initial_nic_free_is_rejected(self, bad):
        w = small_workload(seed=1)
        nic = [1.0] * w.num_machines
        nic[3] = bad
        with pytest.raises(ValueError, match=r"initial_nic_free\[3\]"):
            ContentionSimulator(w, initial_nic_free=nic)

    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_the_reported_cases_now_raise(self, cls):
        """NaN on one machine used to report a makespan below the idle
        schedule's; an all ``-1e6`` vector raised InvalidScheduleError
        on a valid string.  Both are now refused up front."""
        from repro.core.initial import initial_solution

        w = small_workload(seed=1)
        s = initial_solution(Simulator(w), np.random.default_rng(1))
        idle = cls(w).makespan(s.order, s.machines)
        assert idle > 0
        l = w.num_machines
        for avail in ([math.nan] + [0.0] * (l - 1), [-1e6] * l):
            with pytest.raises(ValueError, match="finite and >= 0"):
                cls(w, initial_avail=avail)

    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_valid_state_still_accepted(self, cls):
        w = small_workload(seed=1)
        sim = cls(w, initial_avail=[0.0, -0.0, 2.5, 0.0, 7.0])
        s = _string(w)
        assert sim.makespan(s.order, s.machines) >= 7.0


def test_compiler_discovery_honours_cc(monkeypatch):
    cc = shutil.which("sh")
    if cc is None:
        pytest.skip("no sh")
    monkeypatch.setenv("CC", f"{cc} -x")
    assert walker_mod._compiler() == [cc, "-x"]
    monkeypatch.setenv("CC", "no-such-compiler-anywhere")
    assert walker_mod._compiler() is None


@compiled
def test_walker_rejects_bad_tables():
    """The C walker checks every DAG index and matrix shape it is built
    from, not only the strings it walks."""
    module = walker_mod.load()[0]
    w = small_workload(seed=1)
    E = np.ascontiguousarray(w.exec_times.values)
    Tr = np.ascontiguousarray(w.transfer_times.values)
    k, l, p = w.num_tasks, w.num_machines, Tr.shape[1]
    idle, none = [0.0] * l, [()] * k

    def build(E=E, Tr=Tr, ins=none, outs=None, nic0=None):
        return module.Walker(E, Tr, ins, outs, idle, nic0)

    build()  # the well-formed baseline
    for ins in ([((k, 0),)] + none[1:], [((0, p),)] + none[1:],
                [((0, -1),)] + none[1:], none[1:], [((0,),)] + none[1:]):
        with pytest.raises(ValueError):
            build(ins=ins)
    with pytest.raises(ValueError):
        build(outs=[((0, k),)] + none[1:], nic0=idle)
    with pytest.raises(ValueError, match="both be given"):
        build(outs=none)
    with pytest.raises(ValueError, match="Tr has"):
        build(Tr=np.ascontiguousarray(Tr[:-1]))
    with pytest.raises(TypeError, match="float64"):
        build(E=E.astype(np.float32))
    with pytest.raises(ValueError, match="avail0 has"):
        module.Walker(E, Tr, none, None, idle[:-1], None)
