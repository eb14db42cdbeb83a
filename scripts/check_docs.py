#!/usr/bin/env python
"""Documentation integrity checker (the CI ``docs`` job).

Five classes of rot this catches:

1. **Dead intra-repo links** — every relative markdown link or image in
   the checked documents must point at a file (or ``file#anchor``) that
   exists in the repository.  External (``http``/``mailto``) links are
   left alone: availability of other people's servers is not a property
   of this repo.

2. **Phantom CLI references** — every ``repro <subcommand>`` and every
   ``--flag`` used in a fenced shell block or inline-code span that
   starts with ``repro`` must exist in the actual parser
   (:func:`repro.cli.build_parser`), including nested subparsers like
   ``repro perf check``.  Docs that advertise flags the CLI no longer
   accepts fail the build, not the reader.

3. **Phantom classes** — in README.md and ``docs/*.md``, every
   inline-code span that starts with a CamelCase name (a capital, then
   at least one lowercase letter somewhere, so acronym-led names such as
   ``HCSystem`` count; followed by the end of the span, ``.`` or ``(``)
   must name a ``class`` defined under ``src/repro``, apart from the few
   names in :data:`NOT_CLASSES`.  A doc that still names a deleted class
   fails the build.

4. **Phantom dotted names** — in the same documents, every inline-code
   span that starts with ``repro.`` must resolve: the longest importable
   module prefix is imported and the rest looked up with ``getattr``.
   A doc that still names a deleted function or module fails the build.

5. **Phantom docstring targets** — under ``src/repro``, every
   ``repro.``-qualified target of a ``:class:`` / ``:func:`` /
   ``:meth:`` / ``:mod:`` / ``:attr:`` / ``:data:`` / ``:exc:`` role
   (with or without ``~``, and also when wrapped over two lines) must
   resolve the same way.

Run from the repo root (CI does):  ``python scripts/check_docs.py``.
Exits non-zero listing every violation.  ``--self-test`` runs the
checker's own unit checks (also exercised by the test suite).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The documents the docs job guards (repo-relative).
DOCUMENTS = (
    "README.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/reproducing.md",
    "docs/risk_aware.md",
)

#: The documents whose inline code may name only real classes and
#: dotted names; the roadmap is exempt, since it names planned and
#: deleted code.
CLASS_DOCUMENTS = ("README.md",) + tuple(
    f"docs/{p.name}" for p in sorted((REPO / "docs").glob("*.md"))
)

#: CamelCase spans that are not classes of this package: the paper's
#: transfer-time matrix symbol and numpy's seed sequence.
NOT_CLASSES = frozenset({"Tr", "SeedSequence"})

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```(?:\w*)\n(.*?)```", re.DOTALL)
_INLINE = re.compile(r"`(repro [^`]+)`")
_SPAN = re.compile(r"`([^`\n]+)`")
_CAMEL = re.compile(r"([A-Z][A-Za-z0-9]*[a-z]\w*)(?:[.(]|$)")
_CLASS_DEF = re.compile(r"^\s*class\s+(\w+)", re.MULTILINE)
_DOTTED = re.compile(r"repro(?:\.\w+)+")
_ROLE = re.compile(
    r":(?:class|func|meth|mod|attr|data|exc):`~?(repro\.[^`]*)`"
)


# ----------------------------------------------------------------------
# link checking
# ----------------------------------------------------------------------


def check_links(doc: Path, text: str) -> list[str]:
    """Dead relative links in *text* (repo-relative error strings)."""
    errors = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            errors.append(
                f"{doc.relative_to(REPO)}: dead link -> {target}"
            )
    return errors


# ----------------------------------------------------------------------
# CLI cross-checking
# ----------------------------------------------------------------------


def _parser_surface():
    """(subcommand path -> set of flags) for the real ``repro`` parser.

    Flags of nested subparsers (e.g. ``repro perf check``) are exposed
    both under their full path and merged into the parent command, so a
    doc line ``repro perf check --tolerance 0.1`` validates naturally.
    """
    import argparse

    from repro.cli import build_parser

    surface: dict[str, set[str]] = {}

    def walk(parser, path):
        flags = set()
        for action in parser._actions:
            flags.update(
                o for o in action.option_strings if o.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))
        surface[" ".join(path)] = flags

    walk(build_parser(), ())
    return surface


def _command_lines(text: str):
    """Every ``repro ...`` invocation found in *text*."""
    lines = []
    for block in _FENCE.findall(text):
        for raw in block.splitlines():
            line = raw.strip().lstrip("$ ").rstrip("\\").strip()
            if line.startswith("repro "):
                lines.append(line)
    lines.extend(m.strip() for m in _INLINE.findall(text))
    return lines


def _expand_alternation(line: str):
    """``repro run|sweep --a|--b`` -> every concrete command variant.

    Docs legitimately abbreviate with ``|`` (escaped ``\\|`` inside
    markdown tables); each alternative must exist, so expand and check
    them all.
    """
    tokens = [t.split("|") for t in line.replace("\\|", "|").split()]
    variants = [[]]
    for alts in tokens:
        variants = [v + [a] for v in variants for a in alts]
    return [" ".join(v) for v in variants]


def _check_line(doc: Path, line: str, surface) -> list[str]:
    errors = []
    tokens = line.split()
    # longest parser path matching the leading tokens wins
    path: tuple[str, ...] = ()
    for tok in tokens[1:]:
        candidate = path + (tok,)
        if " ".join(candidate) in surface:
            path = candidate
        else:
            break
    command = " ".join(path)
    if path == () and len(tokens) > 1 and not tokens[1].startswith("-"):
        return [
            f"{doc.relative_to(REPO)}: unknown subcommand in `{line}`"
        ]
    known = surface[command] | surface.get("", set())
    for tok in tokens:
        if tok.startswith("--"):
            flag = tok.split("=", 1)[0]
            if flag not in known:
                errors.append(
                    f"{doc.relative_to(REPO)}: `repro {command}` has "
                    f"no flag {flag} (in `{line}`)"
                )
    return errors


def check_cli_references(doc: Path, text: str, surface) -> list[str]:
    """Doc lines invoking subcommands/flags the CLI does not have."""
    errors = []
    for raw in _command_lines(text):
        for line in _expand_alternation(raw):
            errors += _check_line(doc, line, surface)
    return errors


# ----------------------------------------------------------------------
# class cross-checking
# ----------------------------------------------------------------------


def _package_classes() -> set[str]:
    """Every class name defined under ``src/repro``."""
    names: set[str] = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        names.update(_CLASS_DEF.findall(path.read_text()))
    return names


def check_class_references(doc: Path, text: str, classes) -> list[str]:
    """Inline-code spans in *text* naming a class the package lacks."""
    errors = []
    for span in _SPAN.findall(_FENCE.sub("", text)):
        m = _CAMEL.match(span)
        if m and m.group(1) not in classes | NOT_CLASSES:
            errors.append(
                f"{doc.relative_to(REPO)}: no class {m.group(1)} under "
                f"src/repro (in `{span}`)"
            )
    return errors


def _resolves(dotted: str) -> bool:
    """Whether ``repro.x.y`` names a module or an attribute of one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not f"{module}.".startswith(f"{exc.name}."):
                raise  # a real module whose own imports are broken
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def check_dotted_references(doc: Path, text: str) -> list[str]:
    """Inline-code spans in *text* naming a ``repro.`` path that does
    not resolve."""
    errors = []
    for span in _SPAN.findall(_FENCE.sub("", text)):
        m = _DOTTED.match(span)
        if m and not _resolves(m.group(0)):
            errors.append(
                f"{doc.relative_to(REPO)}: {m.group(0)} does not resolve "
                f"(in `{span}`)"
            )
    return errors


def check_docstring_targets(path: Path, text: str) -> list[str]:
    """``repro.``-qualified role targets in the source *text* that do
    not resolve (a target wrapped over lines is joined first)."""
    errors = []
    for m in _ROLE.finditer(text):
        target = re.sub(r"\s+", "", m.group(1))
        dotted = _DOTTED.match(target)
        if not dotted or not _resolves(dotted.group(0)):
            line = text.count("\n", 0, m.start()) + 1
            errors.append(
                f"{path.relative_to(REPO)}:{line}: {target} does not "
                f"resolve"
            )
    return errors


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def run(documents=DOCUMENTS) -> list[str]:
    surface = _parser_surface()
    classes = _package_classes()
    errors = []
    for name in documents:
        doc = REPO / name
        if not doc.exists():
            errors.append(f"{name}: document missing")
            continue
        text = doc.read_text()
        errors += check_links(doc, text)
        errors += check_cli_references(doc, text, surface)
        if name in CLASS_DOCUMENTS:
            errors += check_class_references(doc, text, classes)
            errors += check_dotted_references(doc, text)
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        errors += check_docstring_targets(path, path.read_text())
    return errors


def self_test() -> None:
    """Sanity checks of the checker itself (run by the test suite)."""
    surface = _parser_surface()
    assert "" in surface and "run" in surface
    assert "perf check" in surface  # nested subparser discovered
    assert "--objective" in surface["run"]
    doc = REPO / "README.md"
    # a dead link is reported ...
    bad = "[x](no/such/file.md)"
    assert check_links(doc, bad)
    # ... a live one is not
    assert not check_links(doc, "[x](README.md)")
    # phantom flags and subcommands are reported
    assert check_cli_references(doc, "`repro run --objective mean`", surface) == []
    assert check_cli_references(doc, "`repro run --bogus-flag 1`", surface)
    assert check_cli_references(doc, "`repro frobnicate`", surface)
    # fenced blocks are scanned too
    fenced = "```bash\n$ repro sweep --no-such-flag\n```\n"
    assert check_cli_references(doc, fenced, surface)
    # inline code may name real classes and the allowlisted symbols ...
    classes = _package_classes()
    real = "`EvaluationService.walker_tier`, `CostModel(E, p)`, `Tr`"
    assert check_class_references(doc, real, classes) == []
    # ... but not a class the package does not define
    assert check_class_references(doc, "`BatchBackend.is_vectorized`", classes)
    assert check_class_references(doc, "`NoSuchKernel`", classes)
    # acronym-led names are classes too; an all-capitals symbol is not
    assert check_class_references(doc, "`HCSystem`", classes)
    assert check_class_references(doc, "`CCR`, `E`, `IPPS`", classes) == []
    # dotted spans must resolve to a module or one of its attributes ...
    live = "`repro.optim`, `repro.analysis.grid.run_grid`, `repro.perf`"
    assert check_dotted_references(doc, live) == []
    call = "`repro.workloads.figure5_workload(seed=1)`"
    assert check_dotted_references(doc, call) == []
    # ... so a deleted function or module is reported
    assert check_dotted_references(doc, "`repro.analysis.no_such_function`")
    assert check_dotted_references(doc, "`repro.no_such_module.thing`")
    # and docs/*.md files are covered
    assert "docs/architecture.md" in CLASS_DOCUMENTS
    # docstring role targets resolve, also when wrapped over two lines ...
    src = REPO / "src" / "repro" / "__init__.py"
    live = (
        ":class:`~repro.optim.evaluation.\n    EvaluationService` and "
        ":func:`repro.schedule.backend.make_simulator`"
    )
    assert check_docstring_targets(src, live) == []
    # ... so a deleted class or function is reported, wrapped or not
    assert check_docstring_targets(src, ":class:`repro.model.HCSystem`")
    gone = ":func:`~repro.schedule.simulator.\n    evaluate_schedule`"
    assert check_docstring_targets(src, gone)


def main(argv) -> int:
    if "--self-test" in argv:
        self_test()
        print("check_docs self-test: OK")
        return 0
    errors = run()
    for err in errors:
        print(f"docs check: {err}", file=sys.stderr)
    if errors:
        print(f"docs check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    checked = ", ".join(DOCUMENTS)
    print(f"docs check: OK ({checked}, src/repro docstring targets)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    raise SystemExit(main(sys.argv[1:]))
