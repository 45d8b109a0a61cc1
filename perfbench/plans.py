"""The benchmark's four workloads and one timed pass over any of them.

Each workload is a :class:`Plan`: a grid of session specs derived from
the workload seed, the two policies its figure compares, and the entry
point the grid goes through -- ``repro scenarios run`` for the paper's
own game matrix, a :class:`~repro.runner.SessionRunner` otherwise.
Every pass runs the grid cold into a fresh, empty result cache and
indexes that cache into an experiment store, re-runs it from fresh
runners over the store (every spec a hit), rebuilds the figure's A/B
rows from the store, and checks what came back.

The cold execution writes the plain blob cache and the index is built
in one transaction afterwards, rather than caching straight into a
store: a store commits its sqlite index once per entry, and on a disk
where a sync takes tens of milliseconds with a long tail those commits
would swamp the simulation and make every number the disk's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro import cli
from repro.analysis.comparison import PolicyComparison, comparison_rows_from_store
from repro.config import SimulationConfig
from repro.experiments.fig09_benchmarks import DEFAULT_LOADS
from repro.runner import RunReport, SessionRunner, SessionSpec, execute_spec
from repro.runner.cache import summary_to_dict
from repro.scenario import Scenario, ScenarioMatrix, compile_matrix
from repro.store import ExperimentStore

__all__ = ["Plan", "PassResult", "build", "run_pass", "scalar_mismatches", "WORKLOADS"]

ROOT = Path(__file__).resolve().parent.parent
PAPER_EVAL = ROOT / "examples" / "scenarios" / "paper_eval.json"

WORKLOADS = ("paper-games", "busyloop-sweep", "sweep-store", "biglittle-eas")

#: Warm executions and figure rebuilds per pass: at least REPEATS, then,
#: in a timed pass, more until their wall time reaches WARM_SHARE of the
#: cold execution's.  Each takes milliseconds or less and the host has
#: slow spells lasting seconds, so samples taken in one short burst all
#: land in whatever spell the burst hit; the pass reports the fastest.
REPEATS = 5
WARM_SHARE = 0.25


def session_seeds(seed: int, count: int) -> List[int]:
    """The *count* session seeds of workload seed *seed*.

    Seed 0 gives ``1..count``: for ``paper-games`` exactly the seeds
    ``examples/scenarios/paper_eval.json`` itself declares.
    """
    return [seed * count + index + 1 for index in range(count)]


def digest(documents: Sequence[Optional[dict]]) -> str:
    """sha256 of summary documents in spec order, as canonical JSON."""
    text = json.dumps(list(documents), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def user_seconds() -> float:
    """This process's user CPU seconds so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _summary_documents(summaries) -> List[Optional[dict]]:
    return [None if summary is None else summary_to_dict(summary) for summary in summaries]


@dataclass
class Execution:
    """One run of a plan's grid: the runner that served it and its host time.

    ``cpu_seconds`` is this process's CPU time over the run -- what the
    end-to-end metrics use, because on a shared host the wall clock also
    counts other tenants -- and ``wall_seconds`` the wall time.
    """

    runner: SessionRunner
    wall_seconds: float
    cpu_seconds: float
    digest: str

    @property
    def report(self) -> RunReport:
        return self.runner.last_report


@dataclass
class Plan:
    """One workload: its specs, its A/B pair and its entry point.

    Attributes:
        name: Workload name as ``--workload`` spells it.
        specs: The grid, in the order the entry point runs it.
        baseline / candidate: Registry policy names the figure compares.
        batch: Run through ``SessionRunner(batch=True)``.
        scenario_file: When set, the grid runs through ``repro scenarios
            run <file>`` in-process instead of a runner built here.
        paper_saving_pp: The paper's mean power saving for this grid,
            when the paper reports one.
    """

    name: str
    specs: List[SessionSpec]
    baseline: str
    candidate: str
    batch: bool = False
    scenario_file: Optional[Path] = None
    paper_saving_pp: Optional[float] = None

    @property
    def nominal_ticks(self) -> int:
        """Ticks one cold execution of the grid must simulate."""
        return sum(spec.config.total_ticks for spec in self.specs)

    def execute(self, cache_dir: Path, store: bool) -> Execution:
        """Run the grid once from a fresh runner over *cache_dir*.

        *store* serves the cache through an experiment store
        (``store_dir``) instead of as a plain result cache.
        """
        if self.scenario_file is not None:
            return self._execute_cli(cache_dir, store)
        began, began_cpu = time.perf_counter(), time.process_time()
        key = "store_dir" if store else "cache_dir"
        runner = SessionRunner(batch=self.batch, **{key: str(cache_dir)})
        report = runner.run_report(self.specs)
        wall, cpu = time.perf_counter() - began, time.process_time() - began_cpu
        return Execution(runner, wall, cpu, digest(_summary_documents(report.summaries)))

    def _execute_cli(self, cache_dir: Path, store: bool) -> Execution:
        """``repro scenarios run FILE --cache-dir|--store-dir DIR --out OUT``, in-process.

        The CLI builds its own runner; a recording subclass hands it back
        so the pass can read the runner's stats, report and profiler.
        """
        created: List[SessionRunner] = []

        class RecordingRunner(SessionRunner):
            def __post_init__(self) -> None:
                super().__post_init__()
                created.append(self)

        out = cache_dir.with_suffix(".json")
        argv = ["scenarios", "run", str(self.scenario_file),
                "--store-dir" if store else "--cache-dir", str(cache_dir), "--out", str(out)]
        cli.SessionRunner = RecordingRunner
        try:
            began, began_cpu = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            wall, cpu = time.perf_counter() - began, time.process_time() - began_cpu
        finally:
            cli.SessionRunner = SessionRunner
        if code != 0 or not created:
            raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")
        documents = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return Execution(created[-1], wall, cpu, digest(documents))


@dataclass
class PassResult:
    """One timed pass: cold execution and indexing, warm execution, figure, checks.

    ``warm`` and ``figure_seconds`` are the fastest of ``repeats``;
    ``index_seconds`` and ``figure_seconds`` are CPU seconds.
    ``cold_seconds`` is the *user* CPU time of the cold execution plus the
    index build: the kernel time of writing thousands of cache files
    depends on the host's file-system caches, and was seen to grow 5x
    for the same pass, so it is left out.
    """

    cold: Execution
    index_seconds: float
    cold_seconds: float
    warm: Execution
    figure_seconds: float
    repeats: int
    saving_pp: float
    attempted: int
    failures: List[str]

    @property
    def cpu_seconds(self) -> float:
        """CPU seconds of the whole pass (user time only for the cold part)."""
        return self.cold_seconds + self.warm.cpu_seconds + self.figure_seconds

    def metrics(self, plan: Plan) -> dict:
        """This pass's end-to-end numbers."""
        cold, warm = self.cold_seconds, self.warm.cpu_seconds
        return {
            "pass_s": self.cpu_seconds,
            "ticks_per_s": plan.nominal_ticks / cold,
            "sessions_per_s": 2 * len(plan.specs) / (cold + warm),
            "cold_s": cold,
            "warm_s": warm,
            "figure_ms": 1e3 * self.figure_seconds,
            "saving_pp": self.saving_pp,
        }


def _warm_failures(warm: Execution, cold_digest: str, count: int) -> List[str]:
    """Failed specs of one warm execution, and any miss or summary that differs from cold."""
    failures = [f"{outcome.label}: {outcome.error}" for outcome in warm.report.failed]
    stats = warm.runner.last_stats
    if (stats.store_hits, stats.ticks_simulated) != (count, 0):
        failures.append(
            f"warm pass had {stats.store_hits} store hits and simulated "
            f"{stats.ticks_simulated} ticks, expected {count} and 0"
        )
    if warm.digest != cold_digest:
        failures.append("warm summaries differ from the cold ones")
    return failures


def run_pass(
    plan: Plan, cache_dir: Path, expected_digest: Optional[str], warm_share: float = 0.0
) -> PassResult:
    """Cold into an empty *cache_dir* and index it; warm from the store; the figure.

    *expected_digest* is the summary digest the cold execution must
    reproduce (``None`` skips that one check).  Warm execution and figure
    run :data:`REPEATS` times, then again until their wall time reaches
    *warm_share* of the cold execution's.
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    count = len(plan.specs)
    warm: Optional[Execution] = None
    figure_seconds, repeats, warm_failures = float("inf"), 0, []
    try:
        began_user = user_seconds()
        cold = plan.execute(cache_dir, store=False)
        began = time.process_time()
        ExperimentStore(cache_dir).close()
        index_seconds = time.process_time() - began
        cold_seconds = user_seconds() - began_user
        budget = warm_share * cold.wall_seconds
        began_warm = time.perf_counter()
        while repeats < REPEATS or time.perf_counter() - began_warm < budget:
            execution = plan.execute(cache_dir, store=True)
            began = time.process_time()
            rows = comparison_rows_from_store(execution.runner.store, plan.baseline, plan.candidate)
            figure_seconds = min(figure_seconds, time.process_time() - began)
            execution.runner.store.close()
            warm_failures += _warm_failures(execution, cold.digest, count)
            if warm is None or execution.cpu_seconds < warm.cpu_seconds:
                warm = execution
            repeats += 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    failures = [f"{outcome.label}: {outcome.error}" for outcome in cold.report.failed]
    cold_stats = cold.runner.last_stats
    if (cold_stats.sessions_executed, cold_stats.ticks_simulated) != (count, plan.nominal_ticks):
        failures.append(
            f"cold pass simulated {cold_stats.sessions_executed} sessions and "
            f"{cold_stats.ticks_simulated} ticks, expected {count} and {plan.nominal_ticks}"
        )
    failures += warm_failures
    if expected_digest is not None and cold.digest != expected_digest:
        failures.append(f"summary digest {cold.digest} != expected {expected_digest}")
    if len(rows) != count // 2:
        failures.append(f"figure has {len(rows)} rows, expected {count // 2}")
    return PassResult(
        cold=cold,
        index_seconds=index_seconds,
        cold_seconds=cold_seconds,
        warm=warm,
        figure_seconds=figure_seconds,
        repeats=repeats,
        saving_pp=PolicyComparison.mean_power_saving(rows),
        attempted=(1 + repeats) * count + 3 + 2 * repeats,
        failures=failures,
    )


def scalar_mismatches(plan: Plan, summaries, seed: int, samples: int = 2) -> Tuple[int, List[str]]:
    """Re-run a few batched members as scalar sessions; (checked, failures)."""
    picks = random.Random(seed).sample(range(len(plan.specs)), min(samples, len(plan.specs)))
    failures = [
        f"{plan.specs[index].label}: batched summary differs from the scalar one"
        for index in picks
        if summary_to_dict(execute_spec(plan.specs[index])) != summary_to_dict(summaries[index])
    ]
    return len(picks), failures


# -- the four workloads -------------------------------------------------------


def _paper_games(seed: int, tiny: bool, workdir: Path) -> Plan:
    document = json.loads(PAPER_EVAL.read_text(encoding="utf-8"))
    document["axes"]["seed"] = session_seeds(seed, 2)
    if tiny:
        document["axes"]["workload"] = document["axes"]["workload"][:1]
        document["axes"]["seed"] = session_seeds(seed, 1)
        document["base"]["config"].update(duration_seconds=2.0, warmup_seconds=0.5)
    path = workdir / "paper_eval.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return Plan(
        name="paper-games",
        specs=compile_matrix(ScenarioMatrix.from_payload(document)),
        baseline="android-default",
        candidate="mobicore",
        scenario_file=path,
        paper_saving_pp=5.3,
    )


def _busyloop_specs(config: SimulationConfig, loads, seeds) -> List[SessionSpec]:
    """Fig. 9a's grid: seed x load x policy, policy innermost."""
    return compile_matrix(
        ScenarioMatrix(
            base=Scenario(
                platform="Nexus 5", workload="busyloop", config=config, pin_uncore_max=False
            ),
            axes=(
                ("seed", tuple(seeds)),
                ("workload_params.target_load_percent", tuple(loads)),
                ("policy", ("android-default", "mobicore")),
            ),
        )
    )


def _busyloop_sweep(seed: int, tiny: bool, workdir: Path) -> Plan:
    if tiny:
        config, loads, count = SimulationConfig(duration_seconds=2.0, warmup_seconds=0.5), DEFAULT_LOADS[:2], 2
    else:
        config, loads, count = SimulationConfig(duration_seconds=60.0, warmup_seconds=4.0), DEFAULT_LOADS, 24
    return Plan(
        name="busyloop-sweep",
        specs=_busyloop_specs(config, loads, session_seeds(seed, count)),
        baseline="android-default",
        candidate="mobicore",
        batch=True,
        paper_saving_pp=13.9,
    )


def _sweep_store(seed: int, tiny: bool, workdir: Path) -> Plan:
    config = SimulationConfig(duration_seconds=1.0, warmup_seconds=0.2)
    loads, count = (DEFAULT_LOADS[:2], 1) if tiny else (DEFAULT_LOADS, 100)
    return Plan(
        name="sweep-store",
        specs=_busyloop_specs(config, loads, session_seeds(seed, count)),
        baseline="android-default",
        candidate="mobicore",
        batch=True,
    )


def _biglittle_eas(seed: int, tiny: bool, workdir: Path) -> Plan:
    # Two seeds per pass: energy-aware's cost per tick depends on the
    # demand it sees, so one seed would make the host time seed-bound.
    # Short sessions keep a pass near 3 s, so a run holds several passes
    # and its best warm/figure timing escapes the host's slow spells.
    duration, warmup, seeds = (1.0, 0.2, 1) if tiny else (10.0, 2.0, 2)
    config = SimulationConfig(duration_seconds=duration, warmup_seconds=warmup)
    axes = (
        ("platform", ("Odroid-XU3", "Galaxy S6")),
        ("seed", tuple(session_seeds(seed, seeds))),
        ("policy", ("android-default", "energy-aware")),
    )
    specs: List[SessionSpec] = []
    for base in (
        Scenario(workload="game:subwaysurf", config=config, pin_uncore_max=True),
        Scenario(
            workload="busyloop",
            workload_params={"target_load_percent": 60.0},
            config=config,
            pin_uncore_max=False,
        ),
    ):
        specs.extend(compile_matrix(ScenarioMatrix(base=base, axes=axes)))
    return Plan(
        name="biglittle-eas",
        specs=specs,
        baseline="android-default",
        candidate="energy-aware",
        batch=True,
    )


_BUILDERS = {
    "paper-games": _paper_games,
    "busyloop-sweep": _busyloop_sweep,
    "sweep-store": _sweep_store,
    "biglittle-eas": _biglittle_eas,
}


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Plan:
    """The plan of workload *name* for workload seed *seed*.

    *tiny* shrinks every grid to a few short sessions (the benchmark's
    own tests and its warm-up use it); *workdir* receives any input
    file the entry point reads.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, tiny, workdir)
