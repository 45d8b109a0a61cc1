"""Command-line interface: reproduce experiments and compare policies.

Usage::

    python -m repro list
    python -m repro run fig9a fig10
    python -m repro run fig10 --jobs 4 --cache-dir ~/.cache/repro
    python -m repro specs "Nexus 5"
    python -m repro compare --workload busyloop:40 --duration 60
    python -m repro compare --workload "game:Subway Surf" --seed 3
    python -m repro compare --workload geekbench --jobs 2
    python -m repro trace run --workload busyloop:60 --format perfetto --out trace.json
    python -m repro trace summary trace.json
    python -m repro faults template > plan.json
    python -m repro compare --workload busyloop:60 --faults plan.json
    python -m repro faults demo
    python -m repro scenarios list
    python -m repro scenarios validate examples/scenarios/paper_eval.json
    python -m repro scenarios expand examples/scenarios/paper_eval.json
    python -m repro scenarios run examples/scenarios/paper_eval.json --jobs 4
    python -m repro compare --scenario my_scenario.json
    python -m repro scenarios run matrix.json --jobs 4 --status-dir .status
    python -m repro status .status
    python -m repro status .status --follow
    python -m repro metrics .status
    python -m repro metrics .status --format json
    python -m repro scenarios run matrix.json --store-dir .store --shard 0/2
    python -m repro store query .store --policy mobicore --format csv
    python -m repro store ls .store
    python -m repro store merge .store .store-shard0 .store-shard1
    python -m repro store gc .store

``compare`` runs the Android default and MobiCore on the same demand
(same seed) and prints the paper-style deltas.  ``--jobs N`` fans the
sessions out over N worker processes; ``--cache-dir`` enables the
content-addressed result cache, so warm re-runs simulate nothing.
``--stats`` (on ``run`` and ``compare``) reports what the runner did:
sessions executed, ticks simulated, memo/cache hits, wall time.

``--retries N`` re-schedules crashed/raising/hung executions up to N
times; ``--timeout S`` bounds each spec's wall clock (hung workers are
terminated).  ``--faults plan.json`` injects a deterministic fault plan
(thermal throttle, hotplug failure, mpdecision stall, sensor dropout)
into every session — see ``docs/FAILURE_MODES.md`` for the contract and
``repro faults template`` for the file format.  ``repro faults demo``
runs a clean-vs-faulted A/B showing the injected events end to end.

``--status-dir DIR`` (on every runner-backed command) makes the runner
write a live heartbeat file and a ``metrics.json`` snapshot into DIR:
``repro status DIR`` renders sweep progress from the heartbeat (once,
or continuously with ``--follow``), and ``repro metrics DIR`` dumps the
metrics registry as Prometheus text exposition or JSON.

``trace run`` executes sessions with the tracepoint bus recording and
exports the typed event stream — ``perfetto`` JSON (loadable in
``chrome://tracing`` / ui.perfetto.dev), ``jsonl``, or ``csv``.
``trace summary`` counts events per type in any of those files.

``scenarios`` works with declarative scenario documents
(:mod:`repro.scenario`): ``list`` shows every registered policy,
workload, and platform key; ``validate`` / ``expand`` check and print a
scenario or matrix file; ``run`` compiles and executes one.  ``compare``
and ``run`` also accept ``--scenario file.json`` to take their session
description from a document instead of flags.

``--store-dir DIR`` (instead of ``--cache-dir``) caches into a
queryable :class:`~repro.store.ExperimentStore`: the same blobs, plus
a sqlite index of every run's axes and summary columns.  ``repro store
query DIR`` filters and projects it (``--format table|csv|json``),
``store ls`` summarises it, ``store merge`` unions sharded stores
(checksum conflicts are errors), and ``store gc`` sweeps dangling
column blobs / quarantined corpses / dead index rows.  ``scenarios run
--shard i/n`` runs a deterministic round-robin slice of a matrix, so
shards on different machines merge back into one store.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .analysis.comparison import PolicyComparison
from .analysis.report import render_table
from .config import SimulationConfig
from .errors import ReproError
from .experiments import get_experiment, list_experiments
from .experiments.registry import EXPERIMENTS
from .faults import FaultPlan, SensorDropoutFault, ThermalThrottleFault
from .obs import (
    events_to_csv,
    events_to_jsonl,
    summarize_trace_file,
    to_chrome_trace,
    validate_chrome_trace,
)
from .obs.metrics_plane import (
    heartbeat_path,
    metrics_path,
    read_heartbeat,
    render_prometheus,
    render_status,
    stats_rows,
)
from .runner import (
    FactoryRef,
    RunnerStats,
    SessionRunner,
    SessionSpec,
    TraceRequest,
    configure_default_runner,
)
from .runner.cache import summary_to_dict
from .scenario import (
    PLATFORM_REGISTRY,
    POLICY_REGISTRY,
    WORKLOAD_REGISTRY,
    Scenario,
    compile_scenario,
    load_scenarios,
    parse_shard,
    policy_ref,
    shard_scenarios,
    workload_ref,
)
from .store import AXIS_COLUMNS, ExperimentStore, StoreQuery
from .soc.catalog import PHONE_CATALOG, get_phone_spec
from .workloads.games import game_workload

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (experiment_id, EXPERIMENTS[experiment_id].description)
        for experiment_id in list_experiments()
    ]
    print(render_table(("id", "description"), rows))
    return 0


def _print_runner_stats(stats: RunnerStats) -> None:
    """Render the ``--stats`` accounting block.

    The rows come from :func:`repro.obs.metrics_plane.stats_rows`, which
    reads the same ``RunnerStats`` fields the bridge feeds into the
    exposition — so this table and ``repro metrics`` can never
    disagree.  Every row is always present (robustness counters render
    0 on clean runs) and the row set is documented in ``docs/API.md``.
    """
    print(render_table(("runner stats", "value"), stats_rows(stats)))


def _load_fault_plan(path: Optional[str]) -> Optional[FaultPlan]:
    """Load ``--faults`` when given (typed errors handled by main)."""
    if not path:
        return None
    return FaultPlan.load(path)


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.ids and not args.scenario:
        raise ReproError("run needs experiment ids and/or --scenario FILE")
    # Experiment drivers fall back to the default runner; configure it so
    # every figure's session matrix honours --jobs / --cache-dir.
    runner = configure_default_runner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        retries=args.retries,
        timeout_seconds=args.timeout,
        status_dir=args.status_dir,
    )
    if args.scenario:
        _run_scenario_batch(load_scenarios(args.scenario), runner, out=None)
    for experiment_id in args.ids:
        experiment = get_experiment(experiment_id)
        print("=" * 72)
        print(f"{experiment_id}: {experiment.description}")
        print("=" * 72)
        started = time.perf_counter()
        result = experiment.run()
        print(result.render())
        print(f"\n[{experiment_id} in {time.perf_counter() - started:.1f} s]\n")
    if args.stats:
        _print_runner_stats(runner.total_stats)
    return 0


def _run_scenario_batch(
    scenarios: List[Scenario],
    runner: SessionRunner,
    out: Optional[str],
) -> None:
    """Compile, execute, and report a scenario batch on *runner*."""
    specs = [compile_scenario(scenario) for scenario in scenarios]
    summaries = runner.run(specs)
    rows = []
    for spec, summary in zip(specs, summaries):
        fps = f"{summary.mean_fps:.1f}" if summary.mean_fps is not None else "-"
        rows.append(
            (
                spec.label,
                f"{summary.mean_power_mw:.0f}",
                fps,
                f"{summary.mean_online_cores:.2f}",
                f"{summary.mean_frequency_khz / 1000:.0f}",
            )
        )
    print(render_table(("scenario", "power mW", "fps", "cores", "MHz"), rows))
    if out:
        document = [summary_to_dict(summary) for summary in summaries]
        Path(out).write_text(
            json.dumps(document, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"\nwrote {len(document)} summaries: {out}")


def _cmd_scenarios_list(_args: argparse.Namespace) -> int:
    for registry in (POLICY_REGISTRY, WORKLOAD_REGISTRY, PLATFORM_REGISTRY):
        rows = [(entry.name, entry.summary) for entry in registry.entries()]
        print(render_table((registry.kind, "description"), rows))
        print()
    return 0


def _cmd_scenarios_validate(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(args.file)
    for scenario in scenarios:
        scenario.validate()
    noun = "scenario" if len(scenarios) == 1 else "scenarios"
    print(f"{args.file}: {len(scenarios)} {noun} valid")
    return 0


def _cmd_scenarios_expand(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(args.file)
    rows = [
        (str(index), scenario.describe(), scenario.compile().cache_key()[:12])
        for index, scenario in enumerate(scenarios)
    ]
    print(render_table(("#", "scenario", "cache key"), rows))
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(args.file)
    if args.only:
        try:
            scenarios = [scenarios[index] for index in args.only]
        except IndexError:
            raise ReproError(
                f"--only index out of range; {args.file} expands to "
                f"{len(scenarios)} scenarios"
            ) from None
    if args.shard:
        index, count = parse_shard(args.shard)
        scenarios = shard_scenarios(scenarios, index, count)
        if not scenarios:
            raise ReproError(
                f"shard {args.shard} selects no scenarios "
                f"(the file expands to fewer than {count})"
            )
    runner = SessionRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        retries=args.retries,
        timeout_seconds=args.timeout,
        status_dir=args.status_dir,
    )
    _run_scenario_batch(scenarios, runner, out=args.out)
    if args.stats:
        print()
        _print_runner_stats(runner.total_stats)
    return 0


def _cmd_specs(args: argparse.Namespace) -> int:
    names = [args.phone] if args.phone else list(PHONE_CATALOG)
    for name in names:
        spec = get_phone_spec(name)
        print(render_table(("Specification", spec.name), list(spec.spec_rows())))
        print()
    return 0


def _build_workload(description: str) -> FactoryRef:
    """Parse a --workload string into a registered workload factory ref."""
    kind, _, argument = description.partition(":")
    kind = kind.strip().lower()
    if kind == "busyloop":
        level = float(argument) if argument else 50.0
        return workload_ref("busyloop", target_load_percent=level)
    if kind == "game":
        if not argument:
            raise ReproError("game workload needs a title, e.g. game:Subway Surf")
        game_workload(argument)  # validate the title eagerly
        return workload_ref("game", title=argument)
    if kind == "geekbench":
        return workload_ref("geekbench")
    raise ReproError(
        f"unknown workload {description!r}; use busyloop:<percent>, "
        f"game:<title>, or geekbench"
    )


def _compare_scenario(path: str) -> Scenario:
    """Load the single scenario a ``compare --scenario`` file must hold."""
    scenarios = load_scenarios(path)
    if len(scenarios) != 1:
        raise ReproError(
            f"compare --scenario needs a single-scenario file; "
            f"{path} expands to {len(scenarios)} scenarios "
            f"(use: repro scenarios run)"
        )
    return scenarios[0]


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.scenario:
        # The document supplies platform/workload/config/faults; the
        # candidate policy is the scenario's own (MobiCore when the
        # scenario declares the baseline itself).
        scenario = _compare_scenario(args.scenario)
        phone = scenario.platform
        config = scenario.config
        workload = workload_ref(scenario.workload, **dict(scenario.workload_params))
        candidate_name = (
            scenario.policy if scenario.policy != "android-default" else "mobicore"
        )
        entry = POLICY_REGISTRY.get(candidate_name)
        candidate_params = dict(scenario.policy_params)
        if entry.pass_platform:
            candidate_params.setdefault("platform", phone)
        candidate = entry.ref(**candidate_params)
        pin_uncore = scenario.pin_uncore_max
        faults = scenario.faults
    else:
        phone = args.phone
        config = SimulationConfig(
            duration_seconds=args.duration, seed=args.seed, warmup_seconds=args.warmup
        )
        workload = _build_workload(args.workload)
        candidate = policy_ref("mobicore", platform=phone)
        pin_uncore = args.pin_uncore
        faults = _load_fault_plan(args.faults)
    spec = get_phone_spec(phone)  # validate the phone name eagerly
    runner = SessionRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        retries=args.retries,
        timeout_seconds=args.timeout,
        status_dir=args.status_dir,
    )
    comparison = PolicyComparison(
        phone,
        baseline_factory=policy_ref("android-default"),
        candidate_factory=candidate,
        config=config,
        pin_uncore_max=pin_uncore,
        runner=runner,
        faults=faults,
    )
    row = comparison.compare(workload)
    rows = [
        ("power (mW)", f"{row.baseline.mean_power_mw:.0f}",
         f"{row.candidate.mean_power_mw:.0f}"),
        ("energy (J)", f"{row.baseline.energy_mj / 1000:.1f}",
         f"{row.candidate.energy_mj / 1000:.1f}"),
        ("active cores", f"{row.baseline.mean_online_cores:.2f}",
         f"{row.candidate.mean_online_cores:.2f}"),
        ("frequency (MHz)", f"{row.baseline.mean_frequency_khz / 1000:.0f}",
         f"{row.candidate.mean_frequency_khz / 1000:.0f}"),
        ("load (%)", f"{row.baseline.mean_load_percent:.1f}",
         f"{row.candidate.mean_load_percent:.1f}"),
        ("quota", f"{row.baseline.mean_quota:.2f}", f"{row.candidate.mean_quota:.2f}"),
    ]
    if row.baseline.mean_fps is not None:
        rows.insert(
            2,
            ("FPS", f"{row.baseline.mean_fps:.1f}", f"{row.candidate.mean_fps:.1f}"),
        )
    print(f"workload: {row.workload}  platform: {spec.name}  "
          f"{config.duration_seconds:.0f}s @ seed {config.seed}\n")
    print(render_table(("metric", "android", "mobicore"), rows))
    print(f"\npower saving: {row.power_saving_percent:+.1f}%")
    if row.fps_ratio is not None:
        print(f"fps ratio:    {row.fps_ratio:.2f}")
    if args.stats:
        print()
        _print_runner_stats(runner.total_stats)
    return 0


def _parse_policies(text: str, phone: str) -> List[Tuple[str, FactoryRef]]:
    """Parse ``--policies android,mobicore`` into labelled registry refs."""
    policies: List[Tuple[str, FactoryRef]] = []
    for name in (part.strip().lower() for part in text.split(",")):
        if not name:
            continue
        if name in ("android", "android-default", "default"):
            policies.append(("android", policy_ref("android-default")))
        elif name == "mobicore":
            policies.append(("mobicore", policy_ref("mobicore", platform=phone)))
        else:
            raise ReproError(
                f"unknown policy {name!r}; --policies takes android and/or mobicore"
            )
    if not policies:
        raise ReproError("--policies must name at least one policy")
    return policies


def _cmd_trace_run(args: argparse.Namespace) -> int:
    spec = get_phone_spec(args.phone)  # validate the phone name eagerly
    config = SimulationConfig(
        duration_seconds=args.duration, seed=args.seed, warmup_seconds=args.warmup
    )
    categories = (
        tuple(c.strip() for c in args.events.split(",") if c.strip())
        if args.events
        else ()
    )
    request = TraceRequest(categories=categories, ring_capacity=args.ring)
    workloads = args.workload or ["busyloop:50"]
    plan = _load_fault_plan(args.faults)
    specs: List[SessionSpec] = []
    for workload in workloads:
        workload_ref = _build_workload(workload)
        for policy_name, policy_ref in _parse_policies(args.policies, args.phone):
            specs.append(
                SessionSpec(
                    platform=args.phone,
                    policy=policy_ref,
                    workload=workload_ref,
                    config=config,
                    pin_uncore_max=args.pin_uncore,
                    label=f"{workload}/{policy_name}",
                    trace=request,
                    faults=plan,
                )
            )

    runner = SessionRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        store_dir=args.store_dir,
        retries=args.retries,
        timeout_seconds=args.timeout,
        status_dir=args.status_dir,
    )
    runner.run(specs)
    sessions = [
        (specs[index].label, runner.last_events.get(index, []))
        for index in range(len(specs))
    ]

    out = Path(args.out)
    if args.format == "perfetto":
        document = to_chrome_trace(sessions)
        validate_chrome_trace(document)
        out.write_text(json.dumps(document), encoding="utf-8")
    elif args.format == "jsonl":
        out.write_text(
            "".join(events_to_jsonl(events, session=label) for label, events in sessions),
            encoding="utf-8",
        )
    else:  # csv
        chunks = []
        for position, (label, events) in enumerate(sessions):
            text = events_to_csv(events, session=label)
            chunks.append(text if position == 0 else text.split("\n", 1)[1])
        out.write_text("".join(chunks), encoding="utf-8")

    rows = []
    for index, session_spec in enumerate(specs):
        counts = runner.last_event_counts.get(index, {})
        buffered = len(runner.last_events.get(index, []))
        rows.append((session_spec.label, str(sum(counts.values())), str(buffered)))
    print(f"platform: {spec.name}  {config.duration_seconds:.0f}s @ seed {config.seed}\n")
    print(render_table(("session", "events", "buffered"), rows))
    print(f"\nwrote {args.format} trace: {out}")
    if args.stats:
        print()
        _print_runner_stats(runner.total_stats)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Render sweep progress from a runner's heartbeat file.

    One-shot by default; ``--follow`` re-reads every ``--interval``
    seconds (clearing the screen between frames, top-style) until the
    batch finishes.
    """
    path = heartbeat_path(args.dir)
    if not args.follow:
        print(render_status(read_heartbeat(path)))
        return 0
    while True:
        state = read_heartbeat(path)
        # ANSI clear + home, so the view refreshes in place like top.
        sys.stdout.write("\x1b[2J\x1b[H")
        print(render_status(state))
        sys.stdout.flush()
        if state.finished:
            return 0
        time.sleep(args.interval)


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump a runner's persisted metrics snapshot.

    Reads ``metrics.json`` from the status directory and re-renders it —
    Prometheus text exposition by default (the bytes a gateway's
    ``/metrics`` endpoint would serve), or the raw JSON snapshot.
    """
    path = metrics_path(args.dir)
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ReproError(f"cannot read metrics snapshot {path}: {error}") from error
    except ValueError as error:
        raise ReproError(f"metrics snapshot {path} is not valid JSON: {error}") from error
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    counts = summarize_trace_file(args.file)
    rows = [(key, str(count)) for key, count in sorted(counts.items())]
    rows.append(("total", str(sum(counts.values()))))
    print(render_table(("event", "count"), rows))
    return 0


#: The example plan ``repro faults template`` prints: a mid-session
#: thermal clamp followed by a sensor dropout, ready for ``--faults``.
_TEMPLATE_PLAN = FaultPlan.of(
    ThermalThrottleFault(at_seconds=5.0, duration_seconds=6.0, steps=5),
    SensorDropoutFault(at_seconds=14.0, duration_seconds=3.0),
)


def _cmd_faults_template(_args: argparse.Namespace) -> int:
    print(_TEMPLATE_PLAN.to_json())
    return 0


def _cmd_faults_demo(args: argparse.Namespace) -> int:
    """A clean-vs-faulted A/B on one workload, fault events included."""
    config = SimulationConfig(duration_seconds=args.duration, seed=args.seed)
    plan = _load_fault_plan(args.faults) or _TEMPLATE_PLAN
    policy = policy_ref("android-default")
    workload = _build_workload(args.workload)
    request = TraceRequest(categories=("fault", "policy"))
    specs = [
        SessionSpec(
            platform=args.phone,
            policy=policy,
            workload=workload,
            config=config,
            label="clean",
        ),
        SessionSpec(
            platform=args.phone,
            policy=policy,
            workload=workload,
            config=config,
            label="faulted",
            trace=request,
            faults=plan,
        ),
    ]
    runner = SessionRunner(jobs=args.jobs, retries=args.retries)
    report = runner.run_report(specs)
    report.raise_on_failure()
    clean, faulted = report.summaries

    print(f"fault plan ({len(plan)} windows):")
    for fault in plan.faults:
        until = fault.at_seconds + fault.duration_seconds
        print(f"  {fault.kind}: {fault.at_seconds:g}s -> {until:g}s")
    print()
    events = [
        event
        for event in runner.last_events.get(1, [])
        if event.category == "fault"
    ]
    print("injected fault events:")
    for event in events:
        print(f"  {event.ts_us / 1e6:7.2f}s  {event.fault}: {event.action} ({event.detail})")
    print()
    rows = [
        ("power (mW)", f"{clean.mean_power_mw:.0f}", f"{faulted.mean_power_mw:.0f}"),
        ("frequency (MHz)", f"{clean.mean_frequency_khz / 1000:.0f}",
         f"{faulted.mean_frequency_khz / 1000:.0f}"),
        ("active cores", f"{clean.mean_online_cores:.2f}",
         f"{faulted.mean_online_cores:.2f}"),
        ("load (%)", f"{clean.mean_load_percent:.1f}",
         f"{faulted.mean_load_percent:.1f}"),
    ]
    print(render_table(("metric", "clean", "faulted"), rows))
    print()
    print(report.render())
    if args.out:
        document = to_chrome_trace([("faulted", runner.last_events.get(1, []))])
        validate_chrome_trace(document)
        Path(args.out).write_text(json.dumps(document), encoding="utf-8")
        print(f"\nwrote perfetto trace: {args.out}")
    return 0


def _store_cell(value: object) -> str:
    """One query value rendered for the table/csv formats."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _store_query_from_args(args: argparse.Namespace) -> StoreQuery:
    """Fold the ``store query`` axis/projection flags into a StoreQuery."""
    columns = (
        tuple(part.strip() for part in args.columns.split(",") if part.strip())
        if args.columns
        else ()
    )
    return StoreQuery(
        platform=args.platform,
        policy=args.policy,
        workload=args.workload,
        seed=args.seed,
        fault_plan=args.fault_plan,
        label=args.label,
        columns=columns,
        since_schema_version=args.since_schema,
    )


def _cmd_store_query(args: argparse.Namespace) -> int:
    """Filter + project the store index; table, csv, or json output."""
    query = _store_query_from_args(args)
    with ExperimentStore(args.dir) as store:
        rows = store.query(query)
    projection = list(query.projection)
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(projection)
        for row in rows:
            writer.writerow([_store_cell(row[column]) for column in projection])
        return 0
    table_rows = []
    for row in rows:
        cells = []
        for column in projection:
            value = row[column]
            # Full 64-hex keys would drown the table; csv/json keep them.
            if column == "key" and isinstance(value, str):
                value = value[:12]
            cells.append(_store_cell(value))
        table_rows.append(tuple(cells))
    print(render_table(tuple(projection), table_rows))
    noun = "run" if len(rows) == 1 else "runs"
    print(f"\n{len(rows)} {noun}")
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    """Summarise a store: row counts and the distinct values per axis."""
    with ExperimentStore(args.dir) as store:
        rows = store.query(StoreQuery(columns=("has_columns",) + AXIS_COLUMNS))
        backfilled = store.counters.backfilled
        index_path = store.index_path
    distinct = {
        axis: sorted({str(row[axis]) for row in rows if row[axis] not in (None, "")})
        for axis in AXIS_COLUMNS
    }
    table = [
        ("indexed runs", str(len(rows))),
        ("with trace columns", str(sum(1 for row in rows if row["has_columns"]))),
        ("backfilled on open", str(backfilled)),
    ]
    for axis in AXIS_COLUMNS:
        values = distinct[axis]
        preview = ", ".join(values[:6]) + (", ..." if len(values) > 6 else "")
        table.append((f"{axis} ({len(values)})", preview or "-"))
    print(render_table(("store", str(index_path)), table))
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    """Sweep dangling blobs, quarantined corpses, temp files, dead rows."""
    with ExperimentStore(args.dir) as store:
        report = store.gc()
    rows = [
        ("dangling column blobs", str(len(report.dangling_blobs))),
        ("quarantined corpses", str(len(report.quarantined))),
        ("stale temp files", str(len(report.stale_temp))),
        ("pruned index rows", str(report.pruned_rows)),
    ]
    print(render_table(("gc", "removed"), rows))
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    """Union shard stores into a destination store, checksum-checked."""
    with ExperimentStore(args.dest) as store:
        for source in args.sources:
            adopted = store.merge(source)
            noun = "run" if adopted == 1 else "runs"
            print(f"{source}: adopted {adopted} {noun}")
        total = len(store)
    noun = "run" if total == 1 else "runs"
    print(f"{args.dest}: {total} {noun} total")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiCore reproduction: experiments and policy comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for session batches (default: serial)",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="content-addressed result cache; warm re-runs simulate nothing",
        )
        command.add_argument(
            "--store-dir",
            default=None,
            metavar="DIR",
            help="cache into a queryable experiment store (blobs + sqlite "
            "index; read back with: repro store query DIR)",
        )
        command.add_argument(
            "--stats",
            action="store_true",
            help="print runner accounting (sessions, ticks, hits, wall time)",
        )
        command.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-schedule crashed/raising/hung executions up to N times",
        )
        command.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-spec wall-clock budget; hung workers are terminated",
        )
        command.add_argument(
            "--status-dir",
            default=None,
            metavar="DIR",
            help="write a live heartbeat + metrics.json here "
            "(watch with: repro status DIR)",
        )

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="regenerate tables/figures by id")
    run.add_argument("ids", nargs="*", metavar="id", help="e.g. fig9a table2")
    run.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="also run a scenario/matrix JSON document",
    )
    add_runner_options(run)
    run.set_defaults(func=_cmd_run)

    scenarios = sub.add_parser(
        "scenarios", help="declarative scenario documents (registries, matrices)"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scenarios_list = scenarios_sub.add_parser(
        "list", help="show registered policy/workload/platform keys"
    )
    scenarios_list.set_defaults(func=_cmd_scenarios_list)

    scenarios_validate = scenarios_sub.add_parser(
        "validate", help="check a scenario or matrix file against the registries"
    )
    scenarios_validate.add_argument("file", help="scenario/matrix JSON document")
    scenarios_validate.set_defaults(func=_cmd_scenarios_validate)

    scenarios_expand = scenarios_sub.add_parser(
        "expand", help="print a file's concrete scenarios and cache keys"
    )
    scenarios_expand.add_argument("file", help="scenario/matrix JSON document")
    scenarios_expand.set_defaults(func=_cmd_scenarios_expand)

    scenarios_run = scenarios_sub.add_parser(
        "run", help="compile and execute a scenario or matrix file"
    )
    scenarios_run.add_argument("file", help="scenario/matrix JSON document")
    scenarios_run.add_argument(
        "--only",
        type=int,
        action="append",
        metavar="INDEX",
        help="run only these expansion indices (repeatable; see: expand)",
    )
    scenarios_run.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the summaries as a JSON list",
    )
    scenarios_run.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run round-robin shard i of n of the expansion (e.g. 0/2); "
        "per-shard --store-dir stores merge with: repro store merge",
    )
    add_runner_options(scenarios_run)
    scenarios_run.set_defaults(func=_cmd_scenarios_run)

    status = sub.add_parser(
        "status", help="render sweep progress from a --status-dir heartbeat"
    )
    status.add_argument("dir", help="the directory passed as --status-dir")
    status.add_argument(
        "--follow",
        action="store_true",
        help="refresh continuously (top-style) until the batch finishes",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period for --follow (default: 1s)",
    )
    status.set_defaults(func=_cmd_status)

    metrics = sub.add_parser(
        "metrics", help="dump the metrics registry written to a --status-dir"
    )
    metrics.add_argument("dir", help="the directory passed as --status-dir")
    metrics.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="text exposition format 0.0.4 (default) or the JSON snapshot",
    )
    metrics.set_defaults(func=_cmd_metrics)

    store = sub.add_parser(
        "store", help="query and maintain experiment stores (--store-dir)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_query = store_sub.add_parser(
        "query", help="filter + project the store's run index"
    )
    store_query.add_argument("dir", help="store directory (the --store-dir)")
    store_query.add_argument("--platform", default=None, help="axis filter")
    store_query.add_argument("--policy", default=None, help="axis filter")
    store_query.add_argument("--workload", default=None, help="axis filter")
    store_query.add_argument("--seed", type=int, default=None, help="axis filter")
    store_query.add_argument(
        "--fault-plan",
        default=None,
        metavar="KINDS",
        help="axis filter: comma-joined fault kinds, or '' for clean runs",
    )
    store_query.add_argument("--label", default=None, help="axis filter")
    store_query.add_argument(
        "--columns",
        default=None,
        metavar="COLS",
        help="comma list of columns to project (default: the overview set)",
    )
    store_query.add_argument(
        "--since-schema",
        type=int,
        default=None,
        metavar="N",
        help="only rows whose cache key schema version is >= N",
    )
    store_query.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table; keys shown truncated)",
    )
    store_query.set_defaults(func=_cmd_store_query)

    store_ls = store_sub.add_parser(
        "ls", help="summarise a store: run count and per-axis values"
    )
    store_ls.add_argument("dir", help="store directory (the --store-dir)")
    store_ls.set_defaults(func=_cmd_store_ls)

    store_gc = store_sub.add_parser(
        "gc", help="sweep dangling blobs, quarantined corpses, dead rows"
    )
    store_gc.add_argument("dir", help="store directory (the --store-dir)")
    store_gc.set_defaults(func=_cmd_store_gc)

    store_merge = store_sub.add_parser(
        "merge", help="union shard stores into one (checksum-conflict safe)"
    )
    store_merge.add_argument("dest", help="destination store directory")
    store_merge.add_argument(
        "sources", nargs="+", metavar="SOURCE", help="shard store directories"
    )
    store_merge.set_defaults(func=_cmd_store_merge)

    specs = sub.add_parser("specs", help="show device spec sheets")
    specs.add_argument("phone", nargs="?", help="catalog phone name")
    specs.set_defaults(func=_cmd_specs)

    compare = sub.add_parser(
        "compare", help="Android default vs MobiCore on one workload"
    )
    compare.add_argument(
        "--workload",
        default="busyloop:50",
        help="busyloop:<percent> | game:<title> | geekbench",
    )
    compare.add_argument("--phone", default="Nexus 5", help="catalog phone")
    compare.add_argument("--duration", type=float, default=60.0, help="seconds")
    compare.add_argument("--warmup", type=float, default=4.0, help="seconds")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--pin-uncore",
        action="store_true",
        help="pin GPU/memory at max (the section 3.2 constraint)",
    )
    compare.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan injected into every session "
        "(see: repro faults template)",
    )
    compare.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="take platform/workload/config from a single-scenario JSON "
        "document instead of the flags above",
    )
    add_runner_options(compare)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser(
        "trace", help="record and inspect typed event traces (ftrace-style)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run", help="run traced sessions and export the event stream"
    )
    trace_run.add_argument(
        "--workload",
        action="append",
        metavar="DESC",
        help="busyloop:<percent> | game:<title> | geekbench; repeatable "
        "(default: busyloop:50)",
    )
    trace_run.add_argument("--phone", default="Nexus 5", help="catalog phone")
    trace_run.add_argument("--duration", type=float, default=60.0, help="seconds")
    trace_run.add_argument("--warmup", type=float, default=4.0, help="seconds")
    trace_run.add_argument("--seed", type=int, default=0)
    trace_run.add_argument(
        "--policies",
        default="android,mobicore",
        help="comma list of android and/or mobicore (default: both)",
    )
    trace_run.add_argument(
        "--format",
        choices=("perfetto", "jsonl", "csv"),
        default="perfetto",
        help="export format (perfetto JSON loads in ui.perfetto.dev)",
    )
    trace_run.add_argument(
        "--out", default="trace.json", metavar="FILE", help="output path"
    )
    trace_run.add_argument(
        "--ring",
        type=int,
        default=None,
        metavar="N",
        help="ring-buffer capacity; oldest events are dropped beyond it",
    )
    trace_run.add_argument(
        "--events",
        default=None,
        metavar="CATS",
        help="comma list of event categories to record "
        "(cpufreq,hotplug,cgroup,cpuidle,sched,policy,counters)",
    )
    trace_run.add_argument(
        "--pin-uncore",
        action="store_true",
        help="pin GPU/memory at max (the section 3.2 constraint)",
    )
    trace_run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan injected into every traced session "
        "(see: repro faults template)",
    )
    add_runner_options(trace_run)
    trace_run.set_defaults(func=_cmd_trace_run)

    trace_summary = trace_sub.add_parser(
        "summary", help="count events per type in a trace file"
    )
    trace_summary.add_argument("file", help="perfetto/jsonl/csv trace file")
    trace_summary.set_defaults(func=_cmd_trace_summary)

    faults = sub.add_parser(
        "faults", help="deterministic fault injection (plans, demo)"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    faults_template = faults_sub.add_parser(
        "template", help="print an example fault plan JSON for --faults"
    )
    faults_template.set_defaults(func=_cmd_faults_template)

    faults_demo = faults_sub.add_parser(
        "demo", help="run a clean-vs-faulted A/B and show the injected events"
    )
    faults_demo.add_argument(
        "--workload",
        default="busyloop:70",
        help="busyloop:<percent> | game:<title> | geekbench",
    )
    faults_demo.add_argument("--phone", default="Nexus 5", help="catalog phone")
    faults_demo.add_argument("--duration", type=float, default=20.0, help="seconds")
    faults_demo.add_argument("--seed", type=int, default=0)
    faults_demo.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan (default: the template plan)",
    )
    faults_demo.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    faults_demo.add_argument(
        "--retries", type=int, default=0, metavar="N", help="retry budget"
    )
    faults_demo.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the faulted session's perfetto trace here",
    )
    faults_demo.set_defaults(func=_cmd_faults_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        # Only the close's own I/O failure is ignorable — anything else
        # (KeyboardInterrupt included) must propagate.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
