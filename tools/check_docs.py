#!/usr/bin/env python
"""Docs drift checker: rule catalogue, phase, span and counter table sync,
link resolution, reachability.

Six independent guarantees, all enforced in CI next to ruff/mypy:

1. **Rule catalogue sync** (the original ``check_rule_docs`` contract).
   The rule tables in docs/linting.md carry one row per rule id
   (``| W101 | `isolated-node` | ... |``); every such row is compared
   against the registered rule set (``repro.lint.all_rules()``) in both
   directions — an undocumented rule, a stale id, or a renamed rule fails.

2. **Link resolution.**  Every relative markdown link in ``docs/*.md``
   and ``README.md`` must point at an existing file, and a ``#fragment``
   into a markdown file must match one of that file's heading anchors
   (GitHub's slug rules).  External (``http://``, ``https://``,
   ``mailto:``) targets are not touched.

3. **Reachability.**  Every page under ``docs/`` must be reachable from
   docs/index.md by following relative links — an orphaned page fails.

4. **Phase table sync.**  The ``| phase | prefixes |`` table in
   docs/observability.md lists exactly the phases of
   ``repro.obs.tracer.PHASE_PREFIXES`` plus ``total``, each with the span
   prefixes it folds — checked in both directions like the rule catalogue.

5. **Span table sync.**  Every span or point-event name the code passes to
   ``obs.trace`` / ``tracer.span`` / ``obs.event`` under ``src/repro`` has a
   row in the ``| span | where | meaning |`` table of
   docs/observability.md, and every row names such a span.  A name built
   by an f-string (``f"engine.{engine}"``) matches a documented pattern
   (``engine.<name>``): each placeholder stands for any one segment.

6. **Counter table sync.**  Every literal counter or gauge name passed to
   ``obs.incr`` / ``tracer.incr`` / ``obs.gauge`` / ``obs.gauge_max`` (and
   their ``tracer.`` forms) under ``src/repro`` has a row in the
   ``| name | kind | meaning |`` table of docs/observability.md, and every
   backticked name in that column is emitted.  A row naming several
   counters (``ilp.nodes`` / ``ilp.solutions``) names each of them.

Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
INDEX = DOCS / "index.md"
LINTING = DOCS / "linting.md"

#: ``| W101 | `isolated-node` | ...`` — id cell then backticked name cell.
ROW = re.compile(r"^\|\s*([A-Z]\d{3})\s*\|\s*`([a-z0-9-]+)`\s*\|")

#: Inline markdown links/images: ``[text](target)`` — target up to the
#: first unescaped closing parenthesis (no nested parens in our docs).
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


# -- rule catalogue sync -------------------------------------------------------

def documented_rules(text: str) -> Dict[str, str]:
    rows: Dict[str, str] = {}
    for line in text.splitlines():
        match = ROW.match(line.strip())
        if not match:
            continue
        rule_id, name = match.groups()
        if rule_id in rows and rows[rule_id] != name:
            raise SystemExit(
                f"docs/linting.md documents {rule_id} twice with different "
                f"names ({rows[rule_id]!r} vs {name!r})"
            )
        rows[rule_id] = name
    return rows


def rule_sync_problems() -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.lint import all_rules

    registered = {r.rule_id: r.name for r in all_rules()}
    documented = documented_rules(LINTING.read_text(encoding="utf-8"))

    problems: List[str] = []
    for rule_id in sorted(set(registered) - set(documented)):
        problems.append(
            f"rule {rule_id} ({registered[rule_id]!r}) is registered but has "
            f"no table row in docs/linting.md"
        )
    for rule_id in sorted(set(documented) - set(registered)):
        problems.append(
            f"docs/linting.md documents {rule_id} ({documented[rule_id]!r}) "
            f"but no such rule is registered"
        )
    for rule_id in sorted(set(documented) & set(registered)):
        if documented[rule_id] != registered[rule_id]:
            problems.append(
                f"rule {rule_id} is named {registered[rule_id]!r} in code but "
                f"{documented[rule_id]!r} in docs/linting.md"
            )
    return problems


# -- markdown parsing ----------------------------------------------------------

def prose_lines(text: str) -> Iterator[str]:
    """The file's lines with fenced code blocks blanked out."""
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            yield line


def heading_anchors(text: str) -> Set[str]:
    """GitHub-style anchor slugs of every markdown heading in ``text``."""
    anchors: Set[str] = set()
    counts: Dict[str, int] = {}
    for line in prose_lines(text):
        if not line.startswith("#"):
            continue
        title = line.lstrip("#").strip().replace("`", "")
        slug = re.sub(r"[^a-z0-9 \-]", "", title.lower()).replace(" ", "-")
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def links_of(path: Path) -> Iterator[Tuple[str, str, str]]:
    """Yield ``(raw, target, fragment)`` for each relative link in ``path``."""
    text = path.read_text(encoding="utf-8")
    for line in prose_lines(text):
        for match in LINK.finditer(line):
            raw = match.group(1)
            if raw.startswith(_EXTERNAL):
                continue
            target, _, fragment = raw.partition("#")
            yield raw, target, fragment


def link_problems(pages: List[Path]) -> List[str]:
    problems: List[str] = []
    for page in pages:
        here = page.relative_to(ROOT)
        for raw, target, fragment in links_of(page):
            resolved = (
                (page.parent / target).resolve() if target else page.resolve()
            )
            if not resolved.exists():
                problems.append(f"{here}: broken link {raw!r}")
                continue
            if fragment and resolved.suffix == ".md":
                anchors = heading_anchors(
                    resolved.read_text(encoding="utf-8")
                )
                if fragment not in anchors:
                    problems.append(
                        f"{here}: link {raw!r} names a heading anchor "
                        f"{fragment!r} that does not exist in "
                        f"{resolved.relative_to(ROOT)}"
                    )
    return problems


def reachability_problems() -> List[str]:
    """BFS over relative links from docs/index.md; orphans fail."""
    if not INDEX.exists():
        return ["docs/index.md is missing (the reachability root)"]
    visited: Set[Path] = set()
    frontier = [INDEX.resolve()]
    while frontier:
        page = frontier.pop()
        if page in visited:
            continue
        visited.add(page)
        for _, target, _ in links_of(page):
            if not target:
                continue
            resolved = (page.parent / target).resolve()
            if (
                resolved.suffix == ".md"
                and resolved.exists()
                and DOCS.resolve() in resolved.parents
            ):
                frontier.append(resolved)
    return [
        f"docs/{page.name} is not reachable from docs/index.md"
        for page in sorted(DOCS.glob("*.md"))
        if page.resolve() not in visited
    ]


# -- phase table sync ----------------------------------------------------------

def table_rows(text: str, header: List[str]) -> Iterator[List[str]]:
    """The stripped cells of each body row of every table whose header row
    starts with the cells ``header``."""
    in_table = False
    for line in prose_lines(text):
        stripped = line.strip()
        if not stripped.startswith("|"):
            in_table = False
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if cells[: len(header)] == header:
            in_table = True
            continue
        separator = set(cells[0]) <= set("-: ")
        if in_table and len(cells) >= len(header) and not separator:
            yield cells


def documented_phases(text: str) -> Dict[str, Set[str]]:
    """The ``| phase | prefixes |`` table: phase -> backticked prefixes."""
    return {
        cells[0].strip("`"): set(re.findall(r"`([^`]+)`", cells[1]))
        for cells in table_rows(text, ["phase", "prefixes"])
    }


def phase_sync_problems() -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.tracer import PHASE_PREFIXES

    expected = {phase: set(prefixes) for phase, prefixes in PHASE_PREFIXES.items()}
    expected["total"] = set()
    page = DOCS / "observability.md"
    documented = documented_phases(page.read_text(encoding="utf-8"))

    problems: List[str] = []
    for phase in sorted(set(expected) - set(documented)):
        problems.append(
            f"phase {phase!r} is in PHASE_PREFIXES but has no row in the "
            f"docs/observability.md phase table"
        )
    for phase in sorted(set(documented) - set(expected)):
        problems.append(
            f"docs/observability.md documents phase {phase!r} but "
            f"PHASE_PREFIXES has no such phase"
        )
    for phase in sorted(set(documented) & set(expected)):
        if documented[phase] != expected[phase]:
            problems.append(
                f"phase {phase!r} folds {sorted(expected[phase])} in code but "
                f"{sorted(documented[phase])} in docs/observability.md"
            )
    return problems


# -- span table sync -----------------------------------------------------------

#: Tracer methods whose first argument names a span (or a point event).
_SPAN_METHODS = {"trace", "span", "event"}


def _span_name(node: ast.expr) -> str:
    """A string literal as is; an f-string with each placeholder as ``<>``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "<>"
            for part in node.values
        )
    return ""


def _emitted(
    package: Path, methods: Set[str], receivers: Optional[Set[str]] = None
) -> Dict[str, str]:
    """Name -> first emitting file of every ``<x>.<method>(name, ...)``
    call in ``package`` outside ``obs/`` (which defines the tracer API
    rather than using it).  ``receivers``, when given, limits ``<x>`` to
    those plain names."""
    names: Dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] == "obs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
            ):
                continue
            receiver = node.func.value
            if receivers and not (
                isinstance(receiver, ast.Name) and receiver.id in receivers
            ):
                continue
            name = _span_name(node.args[0])
            if name:
                names.setdefault(name, str(path.relative_to(package)))
    return names


def emitted_spans(package: Path) -> Dict[str, str]:
    """Span name -> first emitting file (see :func:`_emitted`)."""
    return _emitted(package, _SPAN_METHODS)


def documented_spans(text: str) -> Set[str]:
    """Backticked names in the first column of the ``| span | where |``
    table, each ``<placeholder>`` normalised to ``<>``."""
    return {
        re.sub(r"<[^>]*>", "<>", name)
        for cells in table_rows(text, ["span", "where"])
        for name in re.findall(r"`([^`]+)`", cells[0])
    }


def span_sync_problems() -> List[str]:
    emitted = emitted_spans(ROOT / "src" / "repro")
    page = DOCS / "observability.md"
    documented = documented_spans(page.read_text(encoding="utf-8"))

    problems: List[str] = []
    for name in sorted(set(emitted) - documented):
        problems.append(
            f"span {name!r} (emitted in {emitted[name]}) has no row in the "
            f"docs/observability.md span table"
        )
    for name in sorted(documented - set(emitted)):
        problems.append(
            f"docs/observability.md documents span {name!r} but no code "
            f"under src/repro emits it"
        )
    return problems


# -- counter table sync --------------------------------------------------------

#: Tracer methods whose first argument names a counter or gauge, and the
#: names the tracer goes by at the call sites.
_COUNTER_METHODS = {"incr", "gauge", "gauge_max"}
_COUNTER_RECEIVERS = {"obs", "tracer"}


def emitted_counters(package: Path) -> Dict[str, str]:
    """Literal counter/gauge name -> first emitting file; names built at
    run time (f-strings, variables) are not counted."""
    return {
        name: where
        for name, where in _emitted(
            package, _COUNTER_METHODS, _COUNTER_RECEIVERS
        ).items()
        if "<>" not in name
    }


def documented_counters(text: str) -> Set[str]:
    """Backticked names in the first column of the ``| name | kind |``
    table."""
    return {
        name
        for cells in table_rows(text, ["name", "kind"])
        for name in re.findall(r"`([^`]+)`", cells[0])
    }


def counter_sync_problems() -> List[str]:
    emitted = emitted_counters(ROOT / "src" / "repro")
    page = DOCS / "observability.md"
    documented = documented_counters(page.read_text(encoding="utf-8"))

    problems: List[str] = []
    for name in sorted(set(emitted) - documented):
        problems.append(
            f"counter {name!r} (emitted in {emitted[name]}) has no row in the "
            f"docs/observability.md counter table"
        )
    for name in sorted(documented - set(emitted)):
        problems.append(
            f"docs/observability.md documents counter {name!r} but no code "
            f"under src/repro emits it"
        )
    return problems


def main() -> int:
    pages = sorted(DOCS.glob("*.md")) + [ROOT / "README.md"]
    problems = (
        rule_sync_problems()
        + phase_sync_problems()
        + span_sync_problems()
        + counter_sync_problems()
        + link_problems(pages)
        + reachability_problems()
    )
    if problems:
        for problem in problems:
            print(f"check_docs: {problem}", file=sys.stderr)
        return 1
    print(
        f"check_docs: {len(pages)} pages checked — rule catalogue, phase, "
        f"span and counter tables in sync, all links resolve, every docs "
        f"page reachable from the index"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
