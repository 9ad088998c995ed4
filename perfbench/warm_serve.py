"""warm-serve: the serving tier on a warm column store.

The 200k quickstart table under :class:`ColumnLayout`, served by a
:class:`QueryScheduler` with two workers over a zone-mapped
:class:`ScanExecutor` with a :class:`PartitionCache`.  The buffer pool
(256 MiB) holds the whole table (~19 MB stored).  Set-up ends with an
untimed warm-up: one full-width scan decodes every column into the pool,
then :data:`WARM_REQUESTS` hot requests run through the scheduler, whose
worker threads run measurably slower for their first seconds.  Timed reads
are therefore pool hits: this workload bypasses the tuple-level index and
cold I/O, and loads the scheduler, the partition cache, the pool and the
Column catalog build.

The timed loop has two phases over a Zipf-skewed set of hot signatures.
First one closed-loop client submits its next query when the last returns:
``read_p50_ms``, ``read_tail_ms`` and ``read_qps``.  Then one generator
thread sends seeded Poisson arrivals at each rate of :data:`RATES`, with
latency counted from each request's due time; gaps and signature picks are
drawn stratified (:func:`_stratified`), so every run offers the same mix.
The ladder gives the queue-wait and generator-lag layer metrics (at
:data:`REFERENCE_QPS`) and ``serve_max_qps``, the highest rate whose tail
meets :data:`LATENCY_LIMIT_MS` with no rejection and no growing backlog.
Open-loop latency at these rates swung by about a quarter between
identical runs on a shared two-core host, too much for a gated metric, so
the gated latencies come from the closed loop and the ladder is reported
beside them.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import Query
from repro.engine import ScanExecutor
from repro.layouts import ColumnLayout
from repro.serve import PartitionCache, QueryScheduler
from repro.testing.oracle import run_reference_query

from harness import (
    NAMES, ROW_BYTES, Measurement, QueryStream, build_context, check_result,
    make_table, percentile_ms, quickstart_train,
)
from spans import ROOT

N_TUPLES = 200_000
POOL_BYTES = 256 << 20
WORKERS = 2
#: deep enough that no rung of the ladder is ever refused admission
QUEUE_DEPTH = 4096
N_SIGNATURES = 24
ZIPF_S = 1.1
RATES = (20, 40, 60, 80)
REFERENCE_QPS = 40
LATENCY_LIMIT_MS = 150.0
#: share of the run spent in the closed loop, and at the reference rate
CLOSED_SHARE = 0.4
REFERENCE_SHARE = 0.3
#: threads issuing the concurrent warm-up
WARM_CLIENTS = 2
#: length of each closed-loop client's signature sequence (then it repeats)
CLOSED_PICKS = 256
#: requests of the concurrent warm-up at the end of set-up
WARM_REQUESTS = 160
#: ~300 closed-loop reads in a 15 s run: p95 leaves 15 beyond it
TAIL_PCT = 95
#: tail percentile of the ladder's rates (30-180 requests each in 15 s)
LADDER_TAIL_PCT = 75


@dataclass
class State:
    table: object
    layout: object
    cache: object
    engine: "_Tagged"
    scheduler: QueryScheduler
    specs: list
    warm_io_s: float
    warm_invariants: dict
    load_put_bytes: int

    def close(self) -> None:
        """Stop the scheduler's workers and wait for them."""
        self.scheduler.close()


def _hot_specs(seed: int) -> list:
    stream = QueryStream(seed + 2)
    return [stream.next_spec() for _ in range(N_SIGNATURES)]


def _query(meta, spec, label: str) -> Query:
    attr, bounds, projection = spec
    return Query.build(meta, list(projection), {attr: bounds}, label=label)


def setup(seed: int, tally) -> State:
    put_before = tally["put_bytes"]
    table = make_table(seed, N_TUPLES)
    layout = ColumnLayout().build(
        table, quickstart_train(table.meta), build_context(POOL_BYTES)
    )
    cache = PartitionCache(layout.manager)
    executor = ScanExecutor(
        layout.manager, table.meta, zone_maps=True,
        chunk_size=16 * 1024, partition_cache=cache,
    )
    specs = _hot_specs(seed)
    # one full-width scan decodes every column into the pool ...
    gets, get_bytes = tally["gets"], tally["get_bytes"]
    _, stats = executor.execute(Query.build(table.meta, list(NAMES), {}, label="w-all"))
    invariants = {
        "warm_sim_io_ms": round(1e3 * stats.io_time_s, 9),
        "warm_bytes_read": stats.bytes_read,
        "warm_partitions_loaded": stats.n_partition_reads,
        "warm_blob_gets": tally["gets"] - gets,
        "warm_blob_get_bytes": tally["get_bytes"] - get_bytes,
    }
    engine = _Tagged(executor)
    scheduler = QueryScheduler({"scan": engine}, workers=WORKERS, queue_depth=QUEUE_DEPTH)
    scheduler.start()
    # ... and a concurrent pass brings the serving threads to steady state
    # (their first seconds run measurably slower)
    def warm(slot: int) -> None:
        for i in range(slot, WARM_REQUESTS, WARM_CLIENTS):
            query = _query(table.meta, specs[i % N_SIGNATURES], f"w{i}")
            scheduler.execute("scan", query)

    threads = [threading.Thread(target=warm, args=(slot,)) for slot in range(WARM_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return State(table, layout, cache, engine, scheduler, specs, stats.io_time_s,
                 invariants, tally["put_bytes"] - put_before)


class _Tagged:
    """The engine the scheduler serves: in traced runs it tags the worker
    thread with the request id so the worker's spans attach to the
    request's root span."""

    def __init__(self, executor):
        self.executor = executor
        self.tracer = None

    def execute(self, query):
        tracer = self.tracer
        if tracer is None:
            return self.executor.execute(query)
        tracer.set_request(query.label)
        try:
            return self.executor.execute(query)
        finally:
            tracer.set_request(None)


def _stratified(rng, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one in each of ``n`` equal strata, in a
    seeded random order: every run draws the same distribution exactly,
    so signature shares and arrival gaps do not vary between runs."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _zipf_picks(rng, n: int) -> np.ndarray:
    """``n`` hot-signature indexes with Zipf(:data:`ZIPF_S`) shares."""
    weights = 1.0 / np.arange(1, N_SIGNATURES + 1) ** ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    return np.minimum(np.searchsorted(cdf, _stratified(rng, n), side="right"),
                      N_SIGNATURES - 1)


class _Requests:
    """Submitted requests: answers are checked as tickets finish, so only
    the requests in flight hold their results."""

    def __init__(self, state: State, expected: list, tracer):
        self.state = state
        self.expected = expected
        self.tracer = tracer
        self._lock = threading.Lock()
        self._open = []  # (label, spec index, due, submitted, ticket)
        #: (latency from due, generator lag, queue wait, execution, stats)
        self.rows = []

    def submit(self, scheduler, label: str, index: int, due: float):
        query = _query(self.state.table.meta, self.state.specs[index], label)
        submitted = perf_counter()
        ticket = scheduler.submit("scan", query)
        with self._lock:
            self._open.append((label, index, due, submitted, ticket))
        return ticket

    def settle(self, m: Measurement, wait: bool = False) -> None:
        """Check every finished request (every request, with ``wait``)."""
        with self._lock:
            done = [wait or record[4].done() for record in self._open]
            ready = [r for r, d in zip(self._open, done) if d]
            self._open = [r for r, d in zip(self._open, done) if not d]
        for label, index, due, submitted, ticket in ready:
            m.attempted += 1
            try:
                result, stats = ticket.wait(timeout=120.0)
            except Exception as error:  # noqa: BLE001 - counted as failed
                m.failures.append(f"{label}: {type(error).__name__}: {error}")
                continue
            check_result(result, self.expected[index], label, m.failures)
            finished = submitted + ticket.latency_s
            self.rows.append((finished - due, submitted - due, ticket.queue_wait_s,
                              ticket.latency_s - ticket.queue_wait_s, stats))
            if self.tracer is not None:
                root = self.tracer.add_span(ROOT, due, finished, rid=label)
                self.tracer.add_span("serve.generator_lag", due, submitted, root, label)
                self.tracer.add_span(
                    "serve.queue_wait", submitted, submitted + ticket.queue_wait_s,
                    root, label,
                )

    def take_rows(self) -> list:
        rows, self.rows = self.rows, []
        return rows


def _closed_loop(scheduler, requests: _Requests, m: Measurement, seconds: float,
                 seed: int) -> float:
    """One client submits its next query when the last one returns, for
    ``seconds``; answers are checked between requests.  Returns reads
    completed per second of the client's waiting time."""
    picks = _zipf_picks(np.random.default_rng([seed, 7]), CLOSED_PICKS)
    busy = 0.0
    n = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        started = perf_counter()
        ticket = requests.submit(scheduler, f"c{n}", int(picks[n % CLOSED_PICKS]), started)
        with contextlib.suppress(Exception):  # failures count when settled
            ticket.wait(timeout=120.0)
        busy += perf_counter() - started
        n += 1
        requests.settle(m)
    requests.settle(m, wait=True)
    return n / busy


def _rung(scheduler, requests: _Requests, m: Measurement, rate: float,
          seconds: float, rng) -> dict:
    """Open-loop Poisson arrivals at ``rate`` for about ``seconds``: a
    seeded Poisson count of requests with exponential gaps."""
    n = max(1, int(rng.poisson(rate * seconds)))
    gaps = -np.log1p(-_stratified(rng, n)) / rate
    picks = _zipf_picks(rng, n)
    due = perf_counter() + 0.01 + np.cumsum(gaps)
    rejected = 0
    for i in range(n):
        if due[i] - perf_counter() > 0.002:
            requests.settle(m)
        pause = due[i] - perf_counter()
        if pause > 0:
            time.sleep(pause)
        try:
            requests.submit(scheduler, f"l{rate}-{i}", int(picks[i]), float(due[i]))
        except Exception:  # noqa: BLE001 - AdmissionRejected counts as failed
            rejected += 1
    backlog = sum(scheduler.pending().values())
    requests.settle(m, wait=True)
    return {"rejected": rejected, "backlog": backlog}


def measure(state: State, seed: int, seconds: float, tracer, tally) -> Measurement:
    meta = state.table.meta
    expected = [
        run_reference_query(state.table, _query(meta, spec, "oracle"))
        for spec in state.specs
    ]
    state.engine.tracer = tracer
    pool = state.layout.manager.buffer_pool
    pool_before = (pool.stats.n_hits, pool.stats.n_misses, pool.stats.n_evictions)
    cache_before = (state.cache.stats.n_hits, state.cache.stats.n_misses)
    gets_before = tally["gets"]
    m = Measurement()
    requests = _Requests(state, expected, tracer)
    rng = np.random.default_rng([seed, 3])
    other = (1.0 - CLOSED_SHARE - REFERENCE_SHARE) / (len(RATES) - 1)
    rungs = {}
    ladder_io = 0.0
    ladder_bytes = ladder_reads = 0
    scheduler = state.scheduler
    m.read_qps = _closed_loop(scheduler, requests, m, CLOSED_SHARE * seconds, seed)
    closed = requests.take_rows()
    m.read_s = [row[0] for row in closed]
    n_timed = len(closed)
    for rate in RATES:
        share = REFERENCE_SHARE if rate == REFERENCE_QPS else other
        info = _rung(scheduler, requests, m, rate, share * seconds, rng)
        rows = requests.take_rows()
        m.failures.extend(f"rate {rate}: request refused" for _ in range(info["rejected"]))
        m.attempted += info["rejected"]
        latency = [row[0] for row in rows]
        info["tail_ms"] = percentile_ms(latency, LADDER_TAIL_PCT)
        info["p50_ms"] = percentile_ms(latency, 50)
        rungs[rate] = info
        n_timed += len(rows)
        ladder_reads += len(rows)
        ladder_io += sum(row[4].io_time_s for row in rows)
        ladder_bytes += sum(row[4].bytes_read for row in rows)
        if rate == REFERENCE_QPS:
            m.layer["generator_lag_s"] = [row[1] for row in rows]
            m.layer["queue_wait_s"] = [row[2] for row in rows]
            m.layer["serve.exec_ms"] = 1e3 * float(np.mean([row[3] for row in rows]))
    m.reads = n_timed
    sustained = [
        rate for rate, info in rungs.items()
        if info["tail_ms"] <= LATENCY_LIMIT_MS and not info["rejected"]
        and info["backlog"] <= WORKERS
    ]
    m.detail["serve_max_qps"] = max(sustained, default=0)
    m.detail["ladder"] = {
        str(rate): {k: round(v, 3) for k, v in info.items()} for rate, info in rungs.items()
    }
    # the warm-up scan and the ladder issue a number of reads fixed by the
    # seed; the closed loop's count depends on speed, so it is left out
    reads = 1 + ladder_reads
    m.sim_io_ms_per_read = 1e3 * (state.warm_io_s + ladder_io) / reads
    m.invariants = dict(
        state.warm_invariants, timed_blob_gets=tally["gets"] - gets_before,
        ladder_bytes_read=ladder_bytes, wal_bytes=0,
    )
    hits = pool.stats.n_hits - pool_before[0]
    misses = pool.stats.n_misses - pool_before[1]
    m.layer["storage.pool_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m.layer["storage.pool_evictions"] = pool.stats.n_evictions - pool_before[2]
    cache_hits = state.cache.stats.n_hits - cache_before[0]
    cache_lookups = cache_hits + state.cache.stats.n_misses - cache_before[1]
    m.layer["serve.cache_hit_rate"] = cache_hits / cache_lookups if cache_lookups else 0.0
    m.layer["serve.rejected"] = sum(info["rejected"] for info in rungs.values())
    m.layer["tail_pct"] = LADDER_TAIL_PCT
    user_bytes = state.table.n_tuples * ROW_BYTES
    m.write_amp = state.load_put_bytes / user_bytes
    m.space_amp = state.layout.manager.store.total_bytes() / user_bytes
    return m
