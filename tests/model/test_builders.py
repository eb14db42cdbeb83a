"""Every workload builder yields matrices sized for the same ``l``.

A workload's machine count is the row count of ``E``; nothing else
records it.  These tests walk every route that builds a
:class:`~repro.model.workload.Workload` and check that ``E`` is
``l x k``, that ``Tr`` is ``l(l-1)/2 x p`` for that same ``l``, and that
the graph's ``k`` and ``p`` agree with the matrix columns.
"""

import pytest

from repro.io.serialization import workload_from_dict, workload_to_dict
from repro.model import Workload, paper_sample_workload
from repro.model.platform import CLOUD_PLATFORM, SPOT_PLATFORM
from repro.stochastic.distributions import sample_scenarios
from repro.workloads.ccr import transfer_matrix
from repro.workloads.generator import (
    chain_dag,
    fork_join_dag,
    gnp_dag,
    layered_dag,
)
from repro.workloads.heterogeneity import execution_matrix
from repro.workloads.presets import (
    WorkloadSpec,
    build_workload,
    figure3_spec,
    figure3_workload,
    figure4a_spec,
    figure4a_workload,
    figure4b_spec,
    figure4b_workload,
    figure5_spec,
    figure5_workload,
    figure6_spec,
    figure6_workload,
    figure7_spec,
    figure7_workload,
    small_spec,
    small_workload,
)


def assert_consistent(w: Workload, l: int, k: int = None) -> None:
    k = w.graph.num_tasks if k is None else k
    p = w.graph.num_data_items
    assert w.num_machines == l
    assert w.num_tasks == k
    assert w.exec_times.values.shape == (l, k)
    assert w.transfer_times.num_machines == l
    assert w.transfer_times.values.shape == (l * (l - 1) // 2, p)
    assert w.transfer_times.num_items == p == w.num_data_items


def test_paper_sample_workload_has_two_machines():
    assert_consistent(paper_sample_workload(), l=2, k=7)


@pytest.mark.parametrize(
    "spec_of, factory",
    [
        (small_spec, small_workload),
        (figure3_spec, figure3_workload),
        (figure4a_spec, figure4a_workload),
        (figure4b_spec, figure4b_workload),
        (figure5_spec, figure5_workload),
        (figure6_spec, figure6_workload),
        (figure7_spec, figure7_workload),
    ],
    ids=["small", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7"],
)
def test_preset_has_its_spec_machine_count(spec_of, factory):
    spec = spec_of(seed=1)
    assert_consistent(factory(seed=1), l=spec.num_machines, k=spec.num_tasks)


@pytest.mark.parametrize("l", [1, 2, 5])
def test_build_workload_takes_l_from_the_spec(l):
    spec = WorkloadSpec(num_tasks=9, num_machines=l, seed=4)
    w = build_workload(spec)
    assert_consistent(w, l=l, k=9)
    assert w.name == f"k9-l{l}-mediumconn-mediumhet-ccr0.5"


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: layered_dag(12, seed=2),
        lambda: gnp_dag(12, 0.3, seed=2),
        lambda: chain_dag(12),
        lambda: fork_join_dag(10),
    ],
    ids=["layered", "gnp", "chain", "fork_join"],
)
def test_generated_graph_builds_a_workload(make_graph):
    graph = make_graph()
    assert graph.num_tasks == 12
    e = execution_matrix(3, graph.num_tasks, seed=5)
    tr = transfer_matrix(graph, e, 0.5, seed=6)
    assert_consistent(Workload(graph, e, tr), l=3, k=12)


@pytest.mark.parametrize(
    "workload",
    [paper_sample_workload(), figure5_workload(seed=1)],
    ids=["sample", "fig5"],
)
def test_deserialised_workload_keeps_l(workload):
    back = workload_from_dict(workload_to_dict(workload))
    assert_consistent(back, l=workload.num_machines, k=workload.num_tasks)


def test_serialised_machine_count_that_disagrees_with_e_is_rejected():
    doc = workload_to_dict(figure5_workload(seed=1))
    doc["num_machines"] += 1
    with pytest.raises(ValueError):
        workload_from_dict(doc)


@pytest.mark.parametrize(
    "platform", [CLOUD_PLATFORM, SPOT_PLATFORM], ids=["cloud", "spot"]
)
def test_platform_keeps_l_and_tr(platform):
    w = figure5_workload(seed=1)
    scaled = platform.bind(w.num_machines).apply(w)
    assert scaled is not w
    assert_consistent(scaled, l=w.num_machines, k=w.num_tasks)
    assert scaled.transfer_times is w.transfer_times
    assert scaled.graph is w.graph


def test_platform_bound_for_another_l_is_rejected():
    w = figure5_workload(seed=1)
    with pytest.raises(ValueError, match="cannot apply"):
        CLOUD_PLATFORM.bind(w.num_machines + 1).apply(w)


@pytest.mark.parametrize("dist", ["uniform:0.2", "lognormal:0.3"])
def test_scenario_workload_keeps_l(dist):
    w = figure5_workload(seed=1)
    scenarios = sample_scenarios(w, dist, scenarios=3, seed=0)
    for s in range(3):
        ws = scenarios.workload_for(s)
        assert_consistent(ws, l=w.num_machines, k=w.num_tasks)
        assert ws.graph is w.graph
