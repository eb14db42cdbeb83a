"""Visual exports: SVG Gantt charts and Graphviz DOT task graphs.

Dependency-free renderers for the two artifacts people actually paste
into papers and issues:

* :func:`schedule_to_svg` — a Gantt chart of an evaluated schedule, one
  lane per machine, task blocks labelled and colour-rotated;
* :func:`graph_to_dot` — the application DAG in Graphviz DOT, data items
  as edge labels, for rendering with any dot viewer.

Both return plain strings; ``save_svg`` / ``save_dot`` write them out.
"""

from __future__ import annotations

from pathlib import Path

from repro.model.graph import TaskGraph
from repro.model.workload import Workload
from repro.schedule.simulator import Schedule


def escape(text: str) -> str:
    """XML-escape ``&``, ``>`` and ``<`` (what ``xml.sax.saxutils.escape``
    does by default, without importing ``xml.sax``, which pulls the
    ``urllib``/``http``/``ssl`` stack into every ``import repro``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


#: Fill colours rotated across subtasks (okabe-ito palette, colour-blind safe).
PALETTE = (
    "#0072B2",
    "#E69F00",
    "#009E73",
    "#CC79A7",
    "#56B4E9",
    "#D55E00",
    "#F0E442",
    "#999999",
)

LANE_HEIGHT = 34
LANE_GAP = 8
MARGIN_LEFT = 60
MARGIN_TOP = 30
MARGIN_BOTTOM = 40
MARGIN_RIGHT = 20


def schedule_to_svg(
    workload: Workload,
    schedule: Schedule,
    width: int = 900,
) -> str:
    """Render *schedule* as a standalone SVG Gantt chart.

    Parameters
    ----------
    workload:
        Supplies the machine count and names for the lane labels.
    schedule:
        Any evaluated schedule of that workload.
    width:
        Total document width in px; time is scaled to fit.
    """
    if width < 200:
        raise ValueError(f"width must be >= 200, got {width}")
    l = workload.num_machines
    span = schedule.makespan or 1.0
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    height = MARGIN_TOP + l * (LANE_HEIGHT + LANE_GAP) + MARGIN_BOTTOM

    def x(t: float) -> float:
        return MARGIN_LEFT + t / span * plot_w

    def lane_y(m: int) -> float:
        return MARGIN_TOP + m * (LANE_HEIGHT + LANE_GAP)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<text x="{MARGIN_LEFT}" y="16" font-size="13">'
        f"{escape(workload.name)} — makespan {schedule.makespan:.1f}</text>",
    ]

    # lanes and labels
    for m in range(l):
        y = lane_y(m)
        parts.append(
            f'<rect x="{MARGIN_LEFT}" y="{y}" width="{plot_w}" '
            f'height="{LANE_HEIGHT}" fill="#f4f4f4"/>'
        )
        parts.append(f'<text x="8" y="{y + LANE_HEIGHT / 2 + 4}">m{m}</text>')

    # task blocks
    for t in schedule.order:
        m = schedule.machine_of[t]
        x0 = x(schedule.start[t])
        x1 = x(schedule.finish[t])
        y = lane_y(m)
        colour = PALETTE[t % len(PALETTE)]
        parts.append(
            f'<rect x="{x0:.2f}" y="{y + 2}" width="{max(x1 - x0, 1.0):.2f}" '
            f'height="{LANE_HEIGHT - 4}" fill="{colour}" fill-opacity="0.85" '
            f'stroke="#333" stroke-width="0.5">'
            f"<title>s{t}: {schedule.start[t]:.1f} – {schedule.finish[t]:.1f} "
            f"on m{m}</title></rect>"
        )
        if x1 - x0 > 18:  # label only blocks wide enough to hold text
            parts.append(
                f'<text x="{x0 + 3:.2f}" y="{y + LANE_HEIGHT / 2 + 4}" '
                f'fill="#fff">s{t}</text>'
            )

    # time axis with 5 ticks
    axis_y = MARGIN_TOP + l * (LANE_HEIGHT + LANE_GAP) + 8
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    for i in range(6):
        tt = span * i / 5
        xt = x(tt)
        parts.append(
            f'<line x1="{xt:.2f}" y1="{axis_y}" x2="{xt:.2f}" '
            f'y2="{axis_y + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{xt:.2f}" y="{axis_y + 16}" text-anchor="middle">'
            f"{tt:.0f}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts)


def graph_to_dot(graph: TaskGraph, name: str = "taskgraph") -> str:
    """Render the DAG as Graphviz DOT (data items become edge labels)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    lines = [
        f"digraph {safe} {{",
        "  rankdir=TB;",
        '  node [shape=circle, style=filled, fillcolor="#dbe9f6"];',
    ]
    for t in range(graph.num_tasks):
        lines.append(f'  s{t} [label="s{t}"];')
    for d in graph.data_items:
        lines.append(
            f'  s{d.producer} -> s{d.consumer} '
            f'[label="d{d.index} ({d.size:g})"];'
        )
    lines.append("}")
    return "\n".join(lines)


def save_svg(
    workload: Workload, schedule: Schedule, path: str | Path, width: int = 900
) -> Path:
    """Write :func:`schedule_to_svg` output to *path*."""
    path = Path(path)
    path.write_text(schedule_to_svg(workload, schedule, width=width))
    return path


def save_dot(graph: TaskGraph, path: str | Path, name: str = "taskgraph") -> Path:
    """Write :func:`graph_to_dot` output to *path*."""
    path = Path(path)
    path.write_text(graph_to_dot(graph, name=name))
    return path
