#!/usr/bin/env python
"""List the ``src/`` functions that no user path calls.

A *user path* is anything a user of the package runs: a CLI command,
``repro run`` of an experiment, an example script, a ``benchmarks/``
bench, or a perfbench workload.  This tool runs them all in this
process under one :mod:`cProfile` profile, started before the first
``import repro`` so that import-time calls (registry decorators,
module-level tables) count as calls.  It then walks every ``.py`` file
under ``src/repro`` with :mod:`ast` and prints each function or method
whose code object the profile never saw, with its line count, per file
and in total.

Usage, from the root of a checkout (it takes minutes)::

    python tools/reachability.py

What the listing means:

* It is a call graph, not line coverage: an unreached branch inside a
  called function is not listed.
* A nested function is listed only when its enclosing function was
  called; an unreached function's lines include everything nested in
  it, so no line is counted twice.
* Ellipsis-only bodies (protocol and overload stubs) are never listed.
* Code that runs only inside worker processes (``--jobs N``) is not
  profiled; every such function also runs inline on a serial path.

Each path gets inputs that reach its flags: the fault plans fire inside
the sessions' durations, and the benches run with
``--benchmark-disable`` because pytest-benchmark's timer cannot run
under a second profiler.  A path that fails has its output and its
traceback written to stderr, and the listing still prints.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import json
import os
import pstats
import runpy
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``(absolute file, first line)`` of every code object a profile saw.
Called = Set[Tuple[str, int]]

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Unreached:
    """One function no path called.

    Attributes:
        path: The defining file.
        qualname: Dotted name inside the module (``Class.method``).
        line: First line, the first decorator's when decorated.
        lines: Lines from ``line`` to the end of the body.
    """

    path: Path
    qualname: str
    line: int
    lines: int


def called_locations(paths: Iterable[Callable[[], object]]) -> Called:
    """Run each callable under one profile; return the code it called.

    A callable that raises is reported on stderr and the rest still
    run.  Keys are absolute file names, so the result does not depend
    on how ``sys.path`` named the module.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        for path in paths:
            try:
                path()
            except Exception:  # noqa: BLE001 - one failing path must not hide the rest
                traceback.print_exc()
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return {(os.path.realpath(filename), line) for filename, line, _ in stats}


def _first_line(node: ast.AST) -> int:
    # A decorated function's code object starts at its first decorator.
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _is_stub(node: ast.AST) -> bool:
    # A body of ``...`` alone, after an optional docstring.
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis
    )


def unreached_in_file(path: Path, called: Called) -> List[Unreached]:
    """The outermost functions of *path* that *called* does not contain."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    key = os.path.realpath(path)
    found: List[Unreached] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, FUNCTIONS):
                first = _first_line(child)
                name = f"{prefix}{child.name}"
                if (key, first) in called:
                    visit(child, f"{name}.")
                elif not _is_stub(child):
                    found.append(Unreached(path, name, first, child.end_lineno - first + 1))
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def unreached(root: Path, called: Called) -> List[Unreached]:
    """Every unreached function under *root*, file by file in path order."""
    found: List[Unreached] = []
    for path in sorted(Path(root).resolve().rglob("*.py")):
        found.extend(unreached_in_file(path, called))
    return found


def render(found: Sequence[Unreached], root: Path) -> str:
    """The listing: each file's unreached functions, then the totals."""
    root = Path(root).resolve()
    by_file: Dict[Path, List[Unreached]] = {}
    for item in found:
        by_file.setdefault(item.path, []).append(item)
    total_source = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in root.rglob("*.py")
    )
    out = []
    for path, items in by_file.items():
        out.append(f"{path.relative_to(root.parent)}: {sum(item.lines for item in items)} lines")
        for item in items:
            out.append(f"  {item.lines:5d}  {item.qualname}  (line {item.line})")
    lines = sum(item.lines for item in found)
    out.append(
        f"total: {lines} lines in {len(found)} functions across {len(by_file)} files "
        f"(of {total_source} lines under {root.name}/)"
    )
    return "\n".join(out)


# -- the user paths ---------------------------------------------------------


def _cli(argv: List[str]) -> Callable[[], None]:
    def run() -> None:
        from repro import cli

        try:
            code = cli.main(argv)
        except SystemExit as error:  # argparse rejected the command line
            code = error.code
        if code != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")

    return run


def _small_matrix(path: Path) -> str:
    document = {
        "base": {
            "platform": "Nexus 5",
            "policy": "android-default",
            "workload": "busyloop",
            "workload_params": {"target_load_percent": 40.0},
            "config": {"duration_seconds": 3.0, "warmup_seconds": 1.0},
            "pin_uncore_max": False,
        },
        "axes": {"seed": [0, 1], "policy": ["android-default", "mobicore"]},
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def cli_paths(work: Path) -> List[Callable[[], None]]:
    """Every CLI command, with inputs that reach each of its flags."""
    paper = str(ROOT / "examples" / "scenarios" / "paper_eval.json")
    matrix = _small_matrix(work / "matrix.json")
    single = work / "single.json"
    single.write_text(json.dumps({
        "platform": "Odroid-XU3", "policy": "energy-aware", "workload": "game:subwaysurf",
        "config": {"duration_seconds": 8.0, "warmup_seconds": 1.0},
    }), encoding="utf-8")
    plan = work / "plan.json"
    store, shard0, shard1 = (str(work / name) for name in ("store", "shard0", "shard1"))
    status, cache = str(work / "status"), str(work / "cache")
    short = ["--duration", "8", "--warmup", "1"]
    argvs = [
        ["list"],
        ["specs"],
        ["specs", "Galaxy S6"],
        ["scenarios", "list"],
        ["scenarios", "validate", paper],
        ["scenarios", "expand", paper],
        ["scenarios", "run", paper, "--store-dir", store, "--status-dir", status,
         "--out", str(work / "summaries.json"), "--stats"],
        ["scenarios", "run", matrix, "--store-dir", shard0, "--shard", "0/2"],
        ["scenarios", "run", matrix, "--store-dir", shard1, "--shard", "1/2", "--only", "0", "--only", "1"],
        ["scenarios", "run", matrix, "--jobs", "2", "--cache-dir", cache, "--retries", "1"],
        ["scenarios", "run", matrix, "--cache-dir", cache, "--timeout", "60"],
        ["status", status],
        ["metrics", status],
        ["metrics", status, "--format", "json"],
        ["store", "ls", store],
        ["store", "query", store, "--policy", "mobicore", "--format", "csv"],
        ["store", "query", store, "--format", "json", "--columns", "policy,workload,mean_power_mw"],
        ["store", "query", store],
        ["store", "merge", store, shard0, shard1],
        ["store", "gc", store],
        ["faults", "template"],
        ["compare", "--workload", "busyloop:30", *short, "--stats"],
        ["compare", "--workload", "game:Badland", *short, "--pin-uncore", "--cache-dir", cache],
        ["compare", "--workload", "geekbench", *short, "--jobs", "2"],
        ["compare", "--workload", "busyloop:60", "--duration", "18", "--warmup", "1",
         "--faults", str(plan)],
        ["compare", "--scenario", str(single)],
        ["run", "--scenario", matrix, "--stats"],
        ["faults", "demo", "--duration", "18", "--out", str(work / "faults.json")],
    ]
    for fmt, suffix in (("perfetto", "json"), ("jsonl", "jsonl"), ("csv", "csv")):
        out = str(work / f"trace.{suffix}")
        argvs.append(["trace", "run", "--workload", "busyloop:60", "--workload", "game:Badland",
                      "--duration", "18", "--warmup", "1", "--format", fmt, "--out", out,
                      "--faults", str(plan), "--ring", "5000", "--stats"])
        argvs.append(["trace", "summary", out])
    argvs.append(["trace", "run", "--phone", "Odroid-XU3", "--policies", "android,energy-aware",
                  *short, "--events", "cpufreq,hotplug,policy", "--out", str(work / "eas.json")])

    def write_plan() -> None:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            _cli(["faults", "template"])()
        plan.write_text(text.getvalue(), encoding="utf-8")

    return [write_plan] + [_cli(argv) for argv in argvs]


def experiment_paths() -> List[Callable[[], None]]:
    """``repro run <id>`` for every registered experiment."""
    from repro.experiments import list_experiments

    return [_cli(["run", experiment_id]) for experiment_id in list_experiments()]


def example_paths() -> List[Callable[[], None]]:
    """Every example script except ``reproduce_paper.py``, which runs the experiments."""

    def script(path: Path) -> Callable[[], None]:
        def run() -> None:
            argv = sys.argv
            sys.argv = [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv

        return run

    examples = sorted((ROOT / "examples").glob("*.py"))
    return [script(path) for path in examples if path.name != "reproduce_paper.py"]


def benchmark_paths() -> List[Callable[[], None]]:
    """The ``benchmarks/`` suite, untimed (pytest-benchmark's timer cannot run under a profile)."""

    def run() -> None:
        import pytest

        code = pytest.main([str(ROOT / "benchmarks"), "-q", "--benchmark-disable",
                            "-p", "no:cacheprovider"])
        if code != 0:
            raise RuntimeError(f"benchmarks exited with {code}")

    return [run]


def perfbench_paths() -> List[Callable[[], None]]:
    """Every perfbench workload on its tiny grid, untraced and traced."""
    names = [entry["name"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]

    def workload(name: str, trace: int) -> Callable[[], None]:
        def run() -> None:
            from perfbench import run as bench

            code = bench.main(["--workload", name, "--seed", "0", "--seconds", "1",
                               "--trace", str(trace), "--size", "tiny"])
            if code != 0:
                raise RuntimeError(f"perfbench {name} --trace {trace} exited with {code}")

        return run

    return [workload(name, trace) for name in names for trace in (0, 1)]


def user_paths(work: Path) -> Iterator[Callable[[], None]]:
    """Every user path, built lazily so that the first ``import repro`` runs inside the profile."""
    yield from cli_paths(work)
    yield from experiment_paths()
    yield from example_paths()
    yield from benchmark_paths()
    yield from perfbench_paths()


def main(argv: Optional[List[str]] = None) -> int:
    """Run every user path, print the listing; exit 1 when a path failed."""
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    failures: List[str] = []

    def quiet(path: Callable[[], None]) -> Callable[[], None]:
        # A path's output is noise unless it fails: then it is the failure report.
        def run() -> None:
            output = io.StringIO()
            try:
                with contextlib.redirect_stdout(output):
                    path()
            except Exception as error:
                sys.stderr.write(output.getvalue())
                failures.append(str(error) or type(error).__name__)
                raise

        return run

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        # Scripts and benches write relative output files: keep them out of the checkout.
        os.chdir(scratch)
        try:
            called = called_locations(quiet(path) for path in user_paths(Path(scratch)))
        finally:
            os.chdir(cwd)
    print(render(unreached(SRC / "repro", called), SRC / "repro"))
    for failure in failures:
        print(f"failed path: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
