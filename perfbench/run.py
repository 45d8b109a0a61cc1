"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-games --seed 0 --seconds 20 --trace 0

Set-up (imports, registry population, numpy warm-up, building the
workload's grid and one tiny warm-up pass) is timed as ``setup_s``; it
is repeated in fresh interpreters and the median reported.  Then timed
passes run back to back until ``--seconds`` of wall time is spent, and
each end-to-end metric is its best value over the passes.  Times are
this process's CPU seconds (user only for the cold execution).  With
``--trace 1`` one untraced and one traced pass run instead and the
per-layer metrics are printed.  Human-readable lines come first; the last line of stdout is
the JSON result.  The metric names and units are read from
``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-games", "busyloop-sweep", "sweep-store", "biglittle-eas")
#: In-process set-up plus this many fresh-interpreter repeats, medianed.
SETUP_REPEATS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long grids, one set-up sample (the benchmark's own tests)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir: Path):
    """Everything before the first timed pass; returns the workload plan."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from perfbench import plans

    np.add.reduce(np.arange(4096.0))
    plan = plans.build(args.workload, args.seed, args.size == "tiny", workdir / "plan")
    warmup = plans.build(args.workload, args.seed, True, workdir / "warmup")
    plans.run_pass(warmup, workdir / "warmup-cache", None)
    return plan


def setup_seconds(args, first: float) -> float:
    """Median set-up time: this process plus fresh-interpreter repeats."""
    samples = [first]
    if args.size == "full":
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-only",
                 "--workload", args.workload, "--seed", str(args.seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def host_facts() -> dict:
    import numpy as np

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
    }


def recorded_digest(args):
    """The committed summary digest for this run, if one applies."""
    if args.seed != 0 or args.size != "full":
        return None
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return recorded.get(args.workload)


def run(args, workdir: Path) -> int:
    plan = set_up(args, workdir)
    # CPU seconds since the interpreter started: on a shared host the
    # wall clock also counts other tenants.
    first_setup = time.process_time()
    if args.setup_only:
        print(repr(first_setup))
        return 0
    from perfbench import layers, plans
    from perfbench.spans import SpanTracer

    setup_s = setup_seconds(args, first_setup)
    expected = recorded_digest(args)
    digest_note = "recorded" if expected else "re-derived from the first pass"
    cache_dir = workdir / "cache"

    # A traced run compares one untraced pass with one traced pass, both
    # with the minimum warm repeats.
    warm_share = 0.0 if args.trace else plans.WARM_SHARE
    passes = []
    began = time.perf_counter()
    while True:
        result = plans.run_pass(plan, cache_dir, expected, warm_share)
        expected = expected or result.cold.digest
        passes.append(result)
        elapsed = time.perf_counter() - began
        if args.trace or elapsed + elapsed / len(passes) > args.seconds:
            break
    attempted = sum(result.attempted for result in passes)
    failures = [failure for result in passes for failure in result.failures]
    if plan.batch:
        checked, mismatches = plans.scalar_mismatches(plan, passes[0].cold.report.summaries, args.seed)
        attempted += checked
        failures += mismatches

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        tracer = SpanTracer()
        layers.instrument(tracer)
        try:
            traced = plans.run_pass(plan, cache_dir, expected, warm_share)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failures += traced.failures
        metrics = layers.layer_metrics(
            tracer, plan, traced, passes[0].cpu_seconds, [entry["name"] for entry in declared]
        )
    else:
        # Best pass: a shared host has slow spells lasting seconds, and the
        # best of several passes is the number that repeats from run to
        # run (saving_pp is the same in every pass).
        per_pass = [result.metrics(plan) for result in passes]
        best = {"lower": min, "higher": max}
        metrics = {
            entry["name"]: best[entry["better"]](m[entry["name"]] for m in per_pass)
            for entry in declared
            if entry["name"] in per_pass[0]
        }
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"perfbench workload={plan.name} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)} warm_repeats={sum(result.repeats for result in passes)} "
          f"specs={len(plan.specs)} ticks={plan.nominal_ticks}")
    print("host " + json.dumps(host_facts(), sort_keys=True))
    print(f"digest {passes[0].cold.digest} ({digest_note})")
    saving = statistics.median(result.saving_pp for result in passes)
    if plan.paper_saving_pp is not None:
        print(f"saving_gap_pp {abs(saving - plan.paper_saving_pp):.4f} pp "
              f"(simulated {saving:.4f} % vs paper {plan.paper_saving_pp} %)")
    else:
        print(f"saving_gap_pp n/a (simulated {saving:.4f} %; no paper reference, model unvalidated)")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for entry in declared:
        print(f"{entry['name']:40s} {metrics[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = HERE / ".work" / str(os.getpid())
    try:
        return run(args, workdir)
    except Exception:
        # The boundary of the benchmark: any failure exits non-zero with
        # the traceback on stderr and no result line.
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
