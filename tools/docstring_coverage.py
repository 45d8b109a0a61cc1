#!/usr/bin/env python
"""Docstring-coverage gate for the infrastructure packages.

Walks Python files with :mod:`ast` (no imports, no third-party tools)
and counts docstrings on every *public* definition: the module itself,
classes, functions, and methods whose names do not start with an
underscore (dunders other than ``__init__`` are exempt; so are
``TYPE_CHECKING``-style stubs with a body of ``...``).

Usage::

    python tools/docstring_coverage.py src/repro/faults src/repro/runner
    python tools/docstring_coverage.py --min 95 src/repro

Exits non-zero when coverage over all named paths is below ``--min``
(default 100), listing every undocumented definition so the failure is
actionable. CI runs this over ``repro/faults``, ``repro/runner``,
``repro/scenario``, ``repro/store``, ``repro/soc``, the trace spine, the
ops plane, the batch engine (``repro/kernel/batch_engine.py``), the
energy-aware policy, the tick loop with its control planes
(``repro/kernel/engine.py``, ``repro/obs/bus.py``,
``repro/kernel/android_shell.py``) and its layers
(``repro/kernel/scheduler.py``, ``procstat.py``, ``task.py``,
``tracing.py``, ``cpufreq.py``, ``hotplug.py``, ``cpuidle.py``,
``cgroup.py``).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_public(name: str) -> bool:
    """Public = no leading underscore; ``__init__`` counts as private.

    ``__init__`` docstrings are conventionally folded into the class
    docstring (which *is* required), so requiring both would demand
    duplication.
    """
    return not name.startswith("_")


def is_stub(node: ast.AST) -> bool:
    """True for ellipsis-only bodies (protocol/overload stubs)."""
    body = getattr(node, "body", [])
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    value = body[0].value
    return isinstance(value, ast.Constant) and value.value is Ellipsis


def walk_definitions(
    tree: ast.Module, qualifier: str
) -> Iterator[Tuple[str, int, bool]]:
    """Yield ``(qualified name, line, documented)`` for public definitions."""
    yield qualifier, 1, ast.get_docstring(tree) is not None
    stack: List[Tuple[ast.AST, str]] = [(tree, qualifier)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, DEFINITIONS):
                # Descend through if/try blocks but not into function
                # bodies: nested helpers are implementation detail.
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stack.append((child, prefix))
                continue
            name = f"{prefix}.{child.name}"
            if is_public(child.name) and not is_stub(child):
                yield name, child.lineno, ast.get_docstring(child) is not None
            if isinstance(child, ast.ClassDef):
                stack.append((child, name))


def python_files(paths: List[str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted for stable output."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: List[str] = None) -> int:
    """Run the gate; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories to scan")
    parser.add_argument(
        "--min", type=float, default=100.0,
        help="minimum coverage percent to pass (default: 100)",
    )
    options = parser.parse_args(argv)

    documented = 0
    missing: List[Tuple[str, int]] = []
    for path in python_files(options.paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line, has_doc in walk_definitions(tree, str(path)):
            if has_doc:
                documented += 1
            else:
                missing.append((name, line))

    total = documented + len(missing)
    if not total:
        print("docstring coverage: no definitions found", file=sys.stderr)
        return 2
    coverage = 100.0 * documented / total
    print(f"docstring coverage: {documented}/{total} ({coverage:.1f}%)")
    for name, line in missing:
        print(f"  MISSING {name}:{line}")
    return 0 if coverage >= options.min else 1


if __name__ == "__main__":
    sys.exit(main())
