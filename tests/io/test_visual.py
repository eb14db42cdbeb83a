"""Unit tests for SVG Gantt and DOT graph export."""

import xml.etree.ElementTree as ET

import pytest

from repro.io.visual import graph_to_dot, save_dot, save_svg, schedule_to_svg
from repro.model import paper_sample_graph, paper_sample_workload
from repro.schedule import ScheduleString, Simulator
from repro.model import FIGURE2_PAIRS

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def workload():
    return paper_sample_workload()


@pytest.fixture
def schedule(workload):
    s = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
    return Simulator(workload).evaluate(s)


class TestScheduleToSvg:
    def test_well_formed_xml(self, workload, schedule):
        svg = schedule_to_svg(workload, schedule)
        ET.fromstring(svg)  # must parse

    def test_one_block_per_task_plus_lanes(self, workload, schedule):
        root = ET.fromstring(schedule_to_svg(workload, schedule))
        rects = root.findall(f".//{SVG_NS}rect")
        # 2 lane backgrounds + 7 task blocks
        assert len(rects) == 2 + workload.num_tasks

    def test_contains_machine_labels(self, workload, schedule):
        svg = schedule_to_svg(workload, schedule)
        assert ">m0<" in svg and ">m1<" in svg

    @pytest.mark.parametrize("l", [1, 3, 4])
    def test_one_label_per_machine_lane(self, l):
        from repro.workloads.presets import WorkloadSpec, build_workload

        w = build_workload(WorkloadSpec(num_tasks=8, num_machines=l, seed=3))
        s = ScheduleString(
            list(w.graph.topological_order()),
            [t % l for t in w.graph.topological_order()],
            l,
        )
        root = ET.fromstring(schedule_to_svg(w, Simulator(w).evaluate(s)))
        labels = [
            t.text
            for t in root.iter(f"{SVG_NS}text")
            if t.text and t.text.startswith("m") and t.text[1:].isdigit()
        ]
        assert labels == [f"m{m}" for m in range(l)]

    def test_title_includes_makespan(self, workload, schedule):
        svg = schedule_to_svg(workload, schedule)
        assert f"{schedule.makespan:.1f}" in svg

    def test_tooltips_describe_tasks(self, workload, schedule):
        svg = schedule_to_svg(workload, schedule)
        assert "<title>s0:" in svg

    def test_width_respected(self, workload, schedule):
        root = ET.fromstring(schedule_to_svg(workload, schedule, width=500))
        assert root.get("width") == "500"

    def test_small_width_rejected(self, workload, schedule):
        with pytest.raises(ValueError, match="width"):
            schedule_to_svg(workload, schedule, width=50)

    def test_save_svg(self, workload, schedule, tmp_path):
        path = save_svg(workload, schedule, tmp_path / "g.svg")
        assert path.exists()
        ET.fromstring(path.read_text())

    def test_blocks_within_lanes(self, workload, schedule):
        """Every task block's x-range lies inside the plot area."""
        root = ET.fromstring(schedule_to_svg(workload, schedule, width=900))
        for rect in root.findall(f".//{SVG_NS}rect"):
            x = float(rect.get("x"))
            w = float(rect.get("width"))
            assert 0 <= x <= 900
            assert x + w <= 900 + 1e-6


class TestGraphToDot:
    def test_contains_all_nodes_and_edges(self):
        g = paper_sample_graph()
        dot = graph_to_dot(g)
        for t in range(7):
            assert f"s{t} " in dot
        assert dot.count("->") == 6

    def test_edge_labels_carry_items(self):
        g = paper_sample_graph()
        dot = graph_to_dot(g)
        assert 'label="d3' in dot

    def test_name_sanitised(self):
        g = paper_sample_graph()
        dot = graph_to_dot(g, name="my graph!")
        assert dot.startswith("digraph my_graph_ {")

    def test_save_dot(self, tmp_path):
        g = paper_sample_graph()
        path = save_dot(g, tmp_path / "g.dot")
        assert path.read_text().startswith("digraph")


class TestEscape:
    @pytest.mark.parametrize(
        "text", ["", "plain", "a & b", "<tag>", "&amp;<&>>", "x<y&&z>w"]
    )
    def test_matches_saxutils(self, text):
        from xml.sax.saxutils import escape as sax_escape

        from repro.io.visual import escape

        assert escape(text) == sax_escape(text)

    def test_cli_import_skips_network_stack(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in ('ssl', 'http.client', "
            "'urllib.request') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
