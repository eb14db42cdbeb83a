"""Markdown rendering: table formatting kept in one place."""

from __future__ import annotations

from typing import Sequence


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-flavoured markdown table."""
    if not headers:
        raise ValueError("need at least one header")
    for r in rows:
        if len(r) != len(headers):
            raise ValueError(
                f"row {r!r} has {len(r)} cells, expected {len(headers)}"
            )
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join("---" for _ in headers) + "|"
    body = ["| " + " | ".join(str(c) for c in r) + " |" for r in rows]
    return "\n".join([head, sep, *body])
