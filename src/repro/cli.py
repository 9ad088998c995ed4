"""Command-line entry point: run any experiment and print its table.

Usage::

    jigsaw-bench fig06                # quick defaults
    jigsaw-bench fig09 --set scale_factor=0.05 --set n_train=200
    jigsaw-bench all
    python -m repro.cli fig12

``--set key=value`` overrides any field of the experiment's config dataclass
(values are parsed as Python literals, falling back to strings).

The ``explain`` command plans a SQL statement against a small seeded demo
table and prints the planner's decisions (partition pruning, pushdown column
sets, fault policy, cost estimates)::

    jigsaw-bench explain "SELECT a1, a2 FROM oracle WHERE a1 BETWEEN 100 AND 400"
    jigsaw-bench explain --layout workload-driven --run "SELECT a1 FROM oracle"
    jigsaw-bench explain --engine jigsaw-s "EXPLAIN SELECT a1 FROM oracle WHERE a2 < 50"
    jigsaw-bench explain --analyze "SELECT a1 FROM oracle WHERE a1 < 300"

(the ``EXPLAIN`` keyword inside the statement is accepted and redundant
here; ``--run`` also executes the plan and appends actual counters;
``--analyze`` — or ``EXPLAIN ANALYZE`` inside the statement — runs the
query traced and appends the per-operator breakdown).

The ``profile`` command runs a small seeded workload across every engine
under tracing, writes the spans as JSONL, and prints the top-N hotspots::

    jigsaw-bench profile --trace-out trace.jsonl --top 10
    jigsaw-bench profile --metrics      # also print the Prometheus text

The ``serve`` command starts the query-serving tier over a seeded demo
layout and replays a many-client workload through it, verifying every
result against the dense numpy reference and reporting QPS, latency
percentiles and partition-cache effectiveness::

    jigsaw-bench serve --clients 8 --requests 25
    jigsaw-bench serve --serve-workers 8 --queue-depth 32 --partition-cache off
    jigsaw-bench serve --layout replicated --metrics

``serve`` always runs under the query flight recorder; add
``--telemetry-port`` to expose the live HTTP endpoint (``/metrics``,
``/healthz``, ``/queries``, ``/hotspots``) while the replay runs,
``--slow-query-ms`` to tune the slow-query EXPLAIN ANALYZE threshold and
``--flight-out`` to dump the per-query records as JSONL::

    jigsaw-bench serve --telemetry-port 9464 --slow-query-ms 50
    jigsaw-bench serve --flight-out flight.jsonl

The ``health`` command evaluates the declarative health rules — either
against a running telemetry endpoint or over a local seeded workload —
and exits 0/1/2 for ok/warn/crit::

    jigsaw-bench health
    jigsaw-bench health --telemetry-url http://127.0.0.1:9464

The ``regress`` command compares the latest ``BENCH_HISTORY.jsonl`` row
per experiment against the previous one and fails past a configurable
slowdown ratio::

    jigsaw-bench regress --max-slowdown 1.5
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import sys
from typing import Any, List

from .bench.experiments import EXPERIMENTS

__all__ = ["main"]


def _parse_value(raw: str) -> Any:
    try:
        return ast.literal_eval(raw)
    except (SyntaxError, ValueError):
        return raw


def _config_for(module, overrides: List[str]):
    config_cls = next(
        (
            getattr(module, name)
            for name in dir(module)
            if name.endswith("Config") and isinstance(getattr(module, name), type)
        ),
        None,
    )
    if config_cls is None:
        return None
    config = config_cls()
    for override in overrides:
        key, _sep, raw = override.partition("=")
        if not _sep:
            raise SystemExit(f"--set expects key=value, got {override!r}")
        field_names = {field.name for field in dataclasses.fields(config)}
        if key not in field_names:
            raise SystemExit(
                f"{config_cls.__name__} has no field {key!r}; "
                f"fields: {sorted(field_names)}"
            )
        setattr(config, key, _parse_value(raw))
    return config


def _demo_layout(args, layout_name: str):
    """The seeded demo table, workload and one built layout (shared by the
    explain and profile commands)."""
    import numpy as np

    from .layouts import BuildContext
    from .testing.oracle import ORACLE_LAYOUTS, random_table, random_workload

    rng = np.random.default_rng(args.seed)
    table = random_table(rng, n_attrs=args.n_attrs, n_tuples=args.n_tuples)
    workload = random_workload(rng, table, n_queries=5)
    builders = dict(ORACLE_LAYOUTS)
    if layout_name not in builders:
        raise SystemExit(
            f"unknown layout {layout_name!r}; choices: {sorted(builders)}"
        )
    ctx = BuildContext(
        file_segment_bytes=2048,
        schism_sample_size=100,
        prefetch_depth=args.prefetch_depth,
        sketch_budget_bytes=args.sketch_budget,
    )
    layout = builders[layout_name]().build(table, workload, ctx)
    return table, workload, layout


def _run_explain(args) -> int:
    """Build a seeded demo layout, plan the statement, print the report."""
    from .engine.parallel import ThreadedPartitionEngine
    from .sql import parse_statement

    if args.sql is None:
        raise SystemExit("explain requires a SQL statement argument")
    table, _workload, layout = _demo_layout(args, args.layout)
    statement = parse_statement(table.meta, args.sql)

    if args.engine in ("jigsaw-l", "jigsaw-s"):
        strategy = "locking" if args.engine == "jigsaw-l" else "shared"
        executor: Any = ThreadedPartitionEngine(
            layout.manager, table.meta, strategy=strategy
        )
    else:
        executor = layout.executor
    if args.analyze or statement.analyze:
        from .obs import explain_analyze

        _result, _stats, report = explain_analyze(
            executor, statement.query, engine=args.engine or ""
        )
    else:
        report = executor.explain(statement.query)
        if args.run:
            outcome = executor.execute(statement.query)
            if isinstance(outcome, tuple):
                report.record_actuals(outcome[1])
            else:  # threaded engines return a bare ResultSet
                report.record_actuals(executor.last_stats)
    print(
        f"-- demo table {table.meta.name!r}: "
        f"{table.n_tuples} tuples x {len(table.schema)} attributes "
        f"({', '.join(table.schema.attribute_names)}), "
        f"layout {args.layout!r} with {layout.n_partitions} partitions"
    )
    print(report.render())
    return 0


def _run_profile(args) -> int:
    """Run the seeded demo workload across every engine traced; emit a
    JSONL trace file, the top-N hotspot table and (optionally) metrics."""
    from . import obs
    from .engine.parallel import ThreadedPartitionEngine
    from .testing.oracle import ORACLE_LAYOUTS

    collector = obs.TraceCollector(capacity=65536)
    n_queries = 0
    with obs.scoped_trace(collector=collector):
        was_metrics = obs.metrics_enabled()
        obs.enable(trace=False, metrics=True)
        try:
            table = None
            for layout_name, _factory in ORACLE_LAYOUTS:
                table, workload, layout = _demo_layout(args, layout_name)
                executors = [layout.executor]
                if layout_name == "irregular":
                    executors += [
                        ThreadedPartitionEngine(
                            layout.manager, table.meta, strategy=strategy
                        )
                        for strategy in ("locking", "shared")
                    ]
                for executor in executors:
                    for query in workload.queries:
                        executor.execute(query)
                        n_queries += 1
                pool = layout.manager.buffer_pool
                if pool is not None:
                    obs.publish_buffer_pool(pool, name=layout_name)
        finally:
            if not was_metrics:
                obs.disable()
    n_spans = obs.dump_jsonl(collector, args.trace_out)
    print(
        f"profiled {n_queries} queries across "
        f"{len(ORACLE_LAYOUTS) + 2} engine configurations; "
        f"wrote {n_spans} spans to {args.trace_out}"
        + (f" ({collector.n_dropped} dropped)" if collector.n_dropped else "")
    )
    print()
    print(obs.hotspot_summary(collector, n=args.top))
    if args.metrics:
        print()
        print(obs.render_prometheus())
    return 0


def _serve_engines(layout, table, cache):
    """Cache-wired executors suited to the layout's partitioning family.

    Rectangular layouts get the scan engine; irregular families get the
    partition-at-a-time engine plus both threaded protocols (the scheduler
    caps the threaded engines at one in-flight query each); the replicated
    family adds its replica-local dispatcher.
    """
    from .engine.parallel import ThreadedPartitionEngine
    from .engine.partition_at_a_time import PartitionAtATimeExecutor
    from .engine.replicated import ReplicatedExecutor
    from .engine.scan import ScanExecutor

    manager = layout.manager
    meta = table.meta
    engines: dict = {}
    executor = layout.executor
    if isinstance(executor, ScanExecutor):
        engines["scan"] = ScanExecutor(
            manager, meta, zone_maps=True, partition_cache=cache
        )
    elif isinstance(executor, ReplicatedExecutor):
        engines["replicated"] = ReplicatedExecutor(
            manager, meta, zone_maps=True, partition_cache=cache
        )
        engines["partition-at-a-time"] = PartitionAtATimeExecutor(
            manager, meta, zone_maps=True, partition_cache=cache
        )
    else:
        engines["partition-at-a-time"] = PartitionAtATimeExecutor(
            manager, meta, zone_maps=True, partition_cache=cache
        )
        engines["jigsaw-l"] = ThreadedPartitionEngine(
            manager, meta, strategy="locking", partition_cache=cache
        )
        engines["jigsaw-s"] = ThreadedPartitionEngine(
            manager, meta, strategy="shared", partition_cache=cache
        )
    return engines


def _scrape_telemetry(telemetry) -> None:
    """Self-scrape the live endpoint: prove /metrics parses, report health."""
    import json
    from urllib.error import HTTPError
    from urllib.request import urlopen

    from .obs import parse_exposition

    base = telemetry.url
    with urlopen(base + "/metrics", timeout=10) as resp:
        families = parse_exposition(resp.read().decode("utf-8"))
    try:
        with urlopen(base + "/healthz", timeout=10) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except HTTPError as err:  # /healthz answers 503 when any rule is crit
        payload = json.loads(err.read().decode("utf-8"))
    print(
        f"-- telemetry self-scrape: {len(families)} metric families, "
        f"health {payload['status']}"
    )


def _run_serve(args) -> int:
    """Serve a seeded demo layout to N replay clients; verify every result."""
    import json

    import numpy as np

    from . import obs
    from .obs.flight import (
        FlightRecorder,
        install_flight_recorder,
        uninstall_flight_recorder,
    )
    from .serve import (
        PartitionCache,
        QueryScheduler,
        build_client_mix,
        run_replay,
    )
    from .testing.oracle import run_reference_query

    table, workload, layout = _demo_layout(args, args.layout)
    cache = (
        PartitionCache(layout.manager)
        if args.partition_cache == "on"
        else None
    )
    engines = _serve_engines(layout, table, cache)
    if args.metrics or args.telemetry_port is not None:
        obs.enable(trace=False, metrics=True)
    recorder = FlightRecorder(
        capacity=4096,
        slow_query_s=(
            args.slow_query_ms / 1000.0 if args.slow_query_ms > 0 else None
        ),
    )
    install_flight_recorder(recorder)
    rng = np.random.default_rng(args.seed + 1)
    mix = build_client_mix(
        rng,
        tuple(engines),
        list(workload.queries),
        n_clients=args.clients,
        requests_per_client=args.requests,
    )

    def verify(engine, query, result, _stats):
        if result.equals(run_reference_query(table, query)):
            return None
        return f"{engine}: {query.label!r} diverged from the reference"

    scheduler = QueryScheduler(
        engines,
        workers=args.serve_workers,
        queue_depth=args.queue_depth,
    )
    try:
        with scheduler:
            if args.telemetry_port is not None:
                telemetry = scheduler.start_telemetry(
                    port=args.telemetry_port, host=args.telemetry_host
                )
                print(f"-- telemetry endpoint: {telemetry.url}")
            report = run_replay(scheduler, mix, verify=verify)
            if args.telemetry_port is not None:
                _scrape_telemetry(telemetry)
    finally:
        uninstall_flight_recorder(close=False)
    flight = recorder.summary()
    print(
        f"-- flight recorder: {flight['n_recorded']} queries recorded "
        f"({flight['n_slow']} slow, {flight['n_errors']} errors, "
        f"{flight['n_rejections']} rejected); latency p50/p95/p99 = "
        f"{flight['latency_p50_s']*1e3:.1f}/{flight['latency_p95_s']*1e3:.1f}/"
        f"{flight['latency_p99_s']*1e3:.1f} ms"
    )
    if args.flight_out:
        with open(args.flight_out, "w", encoding="utf-8") as fh:
            for record in recorder.records():
                fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        print(
            f"-- wrote {recorder.n_recorded} flight records to "
            f"{args.flight_out}"
        )
    recorder.close()
    print(
        f"-- demo table {table.meta.name!r}: {table.n_tuples} tuples x "
        f"{len(table.schema)} attributes, layout {args.layout!r} with "
        f"{layout.n_partitions} partitions; engines: {', '.join(engines)}"
    )
    print(
        f"-- scheduler: {args.serve_workers} workers, "
        f"queue depth {args.queue_depth}, partition cache "
        f"{args.partition_cache}"
    )
    print(report.summary())
    if cache is not None:
        obs.publish_partition_cache(cache)
        stats = cache.stats
        print(
            f"partition cache: {stats.n_hits} hits / {stats.n_misses} misses "
            f"({stats.hit_rate:.0%}), {len(cache)} entries resident, "
            f"{stats.n_invalidated} invalidated, {stats.n_evicted} evicted"
        )
    if args.metrics:
        print()
        print(obs.render_prometheus())
    for failure in report.failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 0 if report.ok else 1


def _run_write(args) -> int:
    """Drive the write path on a seeded demo layout: batched writes through
    the WAL, shadow-oracle verification at every version, optional crash
    replay and budgeted compaction, and an ``AS OF`` time-travel read."""
    import numpy as np

    from . import obs
    from .sql import parse_statement
    from .testing import (
        ShadowTable,
        WriteWorkloadConfig,
        apply_random_batch,
        verify_against_shadow,
    )
    from .txn import DeltaCompactor, TransactionalTable

    table, _workload, layout = _demo_layout(args, args.layout)
    if args.metrics:
        obs.enable(trace=False, metrics=True)
    wal_enabled = args.wal == "on"
    txn = TransactionalTable(layout, table, wal_enabled=wal_enabled)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    base_version = txn.current_version
    base_n = table.n_tuples

    rng = np.random.default_rng(args.seed + 2)
    config = WriteWorkloadConfig(n_batches=args.write_batches)
    for _batch in range(config.n_batches):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    state = txn.delta_state()
    print(
        f"-- demo table {table.meta.name!r}: {base_n} -> "
        f"{txn.data.n_tuples} tuples across {config.n_batches} commits "
        f"(v{base_version} -> v{txn.current_version}), layout "
        f"{args.layout!r}, WAL {args.wal}"
    )
    print(
        f"-- head delta state: {len(state.segments)} segments, "
        f"{len(state.tombstones)} tombstones"
        + (
            f"; WAL: {txn.wal.stats.n_commits} group commits, "
            f"{txn.wal.stats.bytes_written} bytes"
            if wal_enabled else ""
        )
    )

    report = DeltaCompactor(
        txn, bytes_budget=args.compaction_budget or None, verify=True
    ).run()
    if not report.is_empty:
        shadow.snapshot(report.version)
        print(
            f"-- compaction v{report.version}: folded "
            f"{report.n_segments_folded} segments, dropped "
            f"{report.n_tuples_dropped} dead rows across "
            f"{len(report.scope_pids)} partitions, rewrote "
            f"{report.bytes_rewritten} bytes"
            + (" (WAL truncated)" if report.wal_truncated else "")
        )

    mismatches = verify_against_shadow(txn, shadow, rng)
    versions = tuple(sorted(shadow.history))
    print(
        f"-- verified {len(versions)} versions "
        f"({versions[0]}..{versions[-1]}) against the dense shadow: "
        + ("oracle-exact" if not mismatches else "MISMATCH")
    )
    for problem in mismatches:
        print(f"FAILURE: {problem}", file=sys.stderr)

    as_of = args.as_of
    if args.sql is not None:
        statement = parse_statement(txn.data.meta, args.sql)
        if statement.as_of is not None:
            as_of = statement.as_of
        query = statement.query
    else:
        names = list(table.schema.attribute_names)
        from .core.query import Query

        query = Query.build(txn.data.meta, names, {}, label="write-demo")
    if as_of is None:
        as_of = versions[len(versions) // 2]
    result, stats = txn.execute(query, as_of=as_of)
    print(
        f"-- AS OF {as_of}: {result.n_tuples} tuples "
        f"({stats.n_partition_reads} partition/delta reads, "
        f"{stats.bytes_read} simulated bytes)"
    )
    if args.metrics:
        print()
        print(obs.render_prometheus())
    return 1 if mismatches else 0


def _run_health(args) -> int:
    """Evaluate the health rules; exit code 0/1/2 = ok/warn/crit.

    With ``--telemetry-url`` the verdict comes from a running endpoint's
    ``/healthz``; otherwise a small seeded write workload is driven locally
    (commits, compaction until clean) and the rules are evaluated over the
    resulting metrics registry.
    """
    import json

    if args.telemetry_url:
        from urllib.error import HTTPError, URLError
        from urllib.request import urlopen

        url = args.telemetry_url.rstrip("/") + "/healthz"
        try:
            try:
                with urlopen(url, timeout=10) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
            except HTTPError as err:  # 503 still carries the report body
                payload = json.loads(err.read().decode("utf-8"))
        except (URLError, OSError) as exc:
            print(f"health: cannot reach {url}: {exc}", file=sys.stderr)
            return 2
        print(f"health ({url}): {payload['status'].upper()}")
        for rule in payload.get("results", []):
            observed = rule.get("observed")
            shown = "n/a" if observed is None else f"{observed:.6g}"
            print(f"  [{rule['status'].upper():4s}] {rule['name']} = {shown}")
        return {"ok": 0, "warn": 1, "crit": 2}.get(payload["status"], 2)

    import numpy as np

    from . import obs
    from .obs.health import HealthMonitor
    from .testing import ShadowTable, WriteWorkloadConfig, apply_random_batch
    from .txn import DeltaCompactor, TransactionalTable

    obs.enable(trace=False, metrics=True)
    table, _workload, layout = _demo_layout(args, args.layout)
    txn = TransactionalTable(layout, table, wal_enabled=True)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    rng = np.random.default_rng(args.seed + 2)
    config = WriteWorkloadConfig(n_batches=3)
    for _batch in range(config.n_batches):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    DeltaCompactor(txn, verify=True).run_until_clean()
    report = HealthMonitor().evaluate()
    print(report.render())
    return report.exit_code


def _run_regress(args) -> int:
    """Compare the latest benchmark-history rows against the previous run."""
    from .bench.history import run_regress

    try:
        report = run_regress(
            path=args.history, max_slowdown=args.max_slowdown
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    return 0 if report.ok else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="jigsaw-bench",
        description="Reproduce the Jigsaw (SIGMOD'21) evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "explain", "profile", "serve", "write", "health", "regress"],
        help="which figure to reproduce ('all' runs every one; 'explain' "
        "plans a SQL statement against a demo table; 'profile' traces a "
        "demo workload across every engine; 'serve' replays a many-client "
        "workload through the concurrent serving tier; 'write' drives the "
        "WAL/MVCC write path with shadow-oracle verification and an "
        "AS OF read; 'health' evaluates the declarative health rules and "
        "exits 0/1/2 for ok/warn/crit; 'regress' compares the latest "
        "BENCH_HISTORY.jsonl rows against the previous run)",
    )
    parser.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="SQL statement for the explain and write commands",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (repeatable)",
    )
    parser.add_argument(
        "--layout",
        default="irregular",
        help="explain: layout family to plan against "
        "(natural, workload-driven, irregular, replicated)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["jigsaw-l", "jigsaw-s"],
        help="explain: plan for a threaded protocol instead of the "
        "layout's own executor",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="explain: also execute the plan and report actual counters",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="explain: run the query traced and append the per-operator "
        "breakdown (same as writing EXPLAIN ANALYZE in the statement)",
    )
    parser.add_argument(
        "--trace-out",
        default="jigsaw-trace.jsonl",
        help="profile: path for the JSONL span dump",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="profile: number of hotspot rows to print",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="profile: also print the Prometheus text exposition",
    )
    parser.add_argument(
        "--prefetch-depth",
        type=int,
        default=0,
        help="explain/profile: engine read-ahead depth (0 = inline loads)",
    )
    parser.add_argument(
        "--sketch-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="explain/profile: per-partition byte budget for data-skipping "
        "sketches (0 = zone maps only)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="serve: scheduler worker threads",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="serve: admission-control bound on pending requests "
        "(beyond it submits are rejected and clients back off)",
    )
    parser.add_argument(
        "--partition-cache",
        choices=["on", "off"],
        default="on",
        help="serve: semantic partition cache replaying pruning verdicts "
        "across overlapping queries",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="serve: concurrent replay client threads",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=25,
        help="serve: requests each client replays",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve: start the live telemetry HTTP endpoint on this port "
        "(0 picks an ephemeral port); serves /metrics, /healthz, /queries "
        "and /hotspots while the replay runs",
    )
    parser.add_argument(
        "--telemetry-host",
        default="127.0.0.1",
        metavar="HOST",
        help="serve: bind address for the telemetry endpoint",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="serve: flight-recorder slow-query threshold; queries above "
        "it keep their full EXPLAIN ANALYZE tree (0 disables the slow log)",
    )
    parser.add_argument(
        "--flight-out",
        default=None,
        metavar="PATH",
        help="serve: dump the per-query flight records as JSONL",
    )
    parser.add_argument(
        "--telemetry-url",
        default=None,
        metavar="URL",
        help="health: scrape a running telemetry endpoint's /healthz "
        "instead of evaluating a local demo workload",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="regress: benchmark history file (default BENCH_HISTORY.jsonl, "
        "or the BENCH_HISTORY_PATH environment variable)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=1.5,
        metavar="RATIO",
        help="regress: fail when a direction-classified metric moves past "
        "this ratio in the worse direction",
    )
    parser.add_argument(
        "--wal",
        choices=["on", "off"],
        default="on",
        help="write: group-commit batches through the write-ahead log "
        "(off skips durability, e.g. for read-path A/B runs)",
    )
    parser.add_argument(
        "--as-of",
        type=int,
        default=None,
        metavar="VERSION",
        help="write: catalog version for the time-travel read (also "
        "settable inside the statement: SELECT ... FROM t AS OF <v>)",
    )
    parser.add_argument(
        "--compaction-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="write: bytes-rewritten budget for the compaction pass "
        "(0 = unbounded)",
    )
    parser.add_argument(
        "--write-batches",
        type=int,
        default=6,
        help="write: number of group-committed write batches",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="explain: demo table seed"
    )
    parser.add_argument(
        "--n-tuples", type=int, default=400, help="explain: demo table rows"
    )
    parser.add_argument(
        "--n-attrs", type=int, default=4, help="explain: demo table columns"
    )
    # intermixed: allows `explain --layout X "SELECT ..."` — the optional
    # trailing SQL positional after option flags.
    args = parser.parse_intermixed_args(argv)

    if args.sql is not None and args.experiment not in ("explain", "write"):
        raise SystemExit(
            "a SQL argument is only valid with the explain or write commands"
        )
    if args.experiment == "explain":
        return _run_explain(args)
    if args.experiment == "profile":
        return _run_profile(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "write":
        return _run_write(args)
    if args.experiment in ("health", "regress"):
        return (
            _run_health(args)
            if args.experiment == "health"
            else _run_regress(args)
        )

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            module = EXPERIMENTS[name]
            config = _config_for(module, args.overrides if args.experiment != "all" else [])
            result = module.run(config)
            print(result.to_text())
            print()
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
