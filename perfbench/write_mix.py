"""write-mix: group commits, snapshot reads and compaction on one table.

:class:`TransactionalTable` over :class:`IrregularLayout` on the
quickstart table at 60k tuples.  One closed-loop client repeats: buffer a
seeded batch (inserts, deletes and updates by tuple id), group-commit it,
then run :data:`READS_PER_COMMIT` template reads, the last one ``AS OF`` an
older retained version.  Every :data:`COMPACT_EVERY` commits a
:class:`DeltaCompactor` pass runs, triggered by the commit count (never by a
timer) so the counts repeat exactly per seed; after each pass the retired
partitions older than the ``AS OF`` window are pruned, the retention an
operator would run, so the store stays bounded.  Every read is checked
against a :class:`ShadowTable` at the version it read.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.layouts import IrregularLayout
from repro.testing import ShadowTable
from repro.txn import DeltaCompactor, TransactionalTable

from harness import (
    NAMES, ROW_BYTES, VALUE_RANGE, Measurement, QueryStream, build_context,
    check_result, make_table, quickstart_train,
)

N_TUPLES = 60_000
INSERT_ROWS = 40
DELETE_ROWS = 16
UPDATE_ROWS = 16
READS_PER_COMMIT = 3
COMPACT_EVERY = 8
#: AS OF reads pick among this many most recent older versions
AS_OF_WINDOW = 8
#: loop iterations (commit + reads) whose exact counts are pinned per seed
PREFIX = 10
#: write and space amplification are read after this many iterations (five
#: compaction passes), so they do not depend on how many fit in the run
AMP_AT = 40
#: ~320 reads in a 15 s run: p95 leaves 16 beyond it
TAIL_PCT = 95
#: ~105 commits in a 15 s run: p90 leaves 10 beyond it
COMMIT_TAIL_PCT = 90


@dataclass
class State:
    table: object
    txn: object


def setup(seed: int, tally) -> State:
    table = make_table(seed, N_TUPLES)
    layout = IrregularLayout().build(
        table, quickstart_train(table.meta), build_context()
    )
    return State(table, TransactionalTable(layout, table))


def _batch(rng, shadow: ShadowTable, committed: int) -> list:
    """One batch as ``(kind, args)`` operations, targets drawn from the
    committed visible rows (the table never targets same-batch inserts)."""
    visible = np.flatnonzero(shadow.visible[:committed])
    targets = rng.choice(visible, size=DELETE_ROWS + UPDATE_ROWS, replace=False)
    rows = {
        name: rng.integers(0, VALUE_RANGE, INSERT_ROWS).astype(np.int32)
        for name in NAMES
    }
    attribute = NAMES[int(rng.integers(len(NAMES)))]
    value = int(rng.integers(0, VALUE_RANGE))
    return [
        ("insert", rows),
        ("delete", np.sort(targets[:DELETE_ROWS])),
        ("update", ({attribute: value}, np.sort(targets[DELETE_ROWS:]))),
    ]


def _apply(target, batch: list) -> None:
    """Apply a batch to the table (timed) or to the shadow (untimed)."""
    table = isinstance(target, TransactionalTable)
    for kind, args in batch:
        if kind == "insert":
            target.insert(args)
        elif kind == "delete":
            target.delete(tids=args) if table else target.delete(args)
        else:
            assignments, tids = args
            target.update(assignments, tids=tids) if table else target.update(assignments, tids)


def measure(state: State, seed: int, seconds: float, tracer, tally) -> Measurement:
    txn = state.txn
    shadow = ShadowTable(state.table)
    shadow.snapshot(txn.current_version)
    rng = np.random.default_rng([seed, 5])
    stream = QueryStream(seed + 1)
    m = Measurement()
    busy = sim_io = 0.0
    rows_written = passes = rewritten = 0
    segments = []
    puts_before, gets_before, get_bytes_before = (
        tally["put_bytes"], tally["gets"], tally["get_bytes"]
    )
    wal_before = txn.wal.stats.bytes_written
    iteration = 0
    pinned = {"bytes_read": 0, "partitions_loaded": 0}

    def amplification() -> None:
        user_bytes = rows_written * ROW_BYTES
        m.write_amp = (tally["put_bytes"] - puts_before) / user_bytes
        live_bytes = int(shadow.visible.sum()) * ROW_BYTES
        m.space_amp = txn.manager.store.total_bytes() / live_bytes

    def op(label):
        return tracer.op(label) if tracer else contextlib.nullcontext()

    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        batch = _batch(rng, shadow, txn.data.n_tuples)
        with op(f"w{iteration}"):
            started = perf_counter()
            _apply(txn, batch)
            commit_started = perf_counter()
            version = txn.commit()
            done = perf_counter()
        busy += done - started
        m.commit_s.append(done - commit_started)
        m.attempted += 1
        rows_written += INSERT_ROWS + UPDATE_ROWS
        _apply(shadow, batch)
        shadow.snapshot(version)

        if len(m.commit_s) % COMPACT_EVERY == 0:
            with op(f"c{iteration}"):
                started = perf_counter()
                report = DeltaCompactor(txn).run()
                busy += perf_counter() - started
            passes += 1
            rewritten += report.bytes_rewritten
            shadow.snapshot(txn.current_version)
            # retention: reclaim the blobs and the shadow masks of versions
            # older than the AS OF window, so neither grows with the loop count
            versions = sorted(shadow.history)
            txn.manager.prune_retired(before_version=versions[-AS_OF_WINDOW])
            for version in versions[:-AS_OF_WINDOW - 1]:
                del shadow.history[version]

        floor = txn.manager.floor_version()
        older = [v for v in sorted(shadow.history) if floor <= v < txn.current_version]
        for r in range(READS_PER_COMMIT):
            label = f"r{len(m.read_s)}"
            query = stream.next_query(txn.data.meta, label)
            as_of = None
            if r == READS_PER_COMMIT - 1 and older:
                window = older[-AS_OF_WINDOW:]
                as_of = window[int(rng.integers(len(window)))]
            segments.append(len(txn.delta_state(as_of).segments))
            with op(label):
                started = perf_counter()
                result, stats = txn.execute(query, as_of=as_of)
                elapsed = perf_counter() - started
            busy += elapsed
            m.read_s.append(elapsed)
            m.attempted += 1
            if iteration < PREFIX:
                sim_io += stats.io_time_s
                pinned["bytes_read"] += stats.bytes_read
                pinned["partitions_loaded"] += stats.n_partition_reads
            version = txn.current_version if as_of is None else as_of
            check_result(result, shadow.query(query, version), label, m.failures)
        iteration += 1
        if iteration == PREFIX:
            pinned.update(
                sim_io_ms=round(1e3 * sim_io, 9), blob_gets=tally["gets"] - gets_before,
                blob_get_bytes=tally["get_bytes"] - get_bytes_before,
                wal_bytes=txn.wal.stats.bytes_written - wal_before,
            )
            m.invariants = pinned
        if iteration == AMP_AT:
            amplification()
    if iteration < AMP_AT:
        amplification()
    m.reads = len(m.read_s)
    m.read_qps = m.reads / busy
    m.sim_io_ms_per_read = 1e3 * sim_io / (min(iteration, PREFIX) * READS_PER_COMMIT)
    m.detail.update(
        commits=len(m.commit_s), compaction_passes=passes,
        write_rows_per_s=rows_written / busy,
        commit_p50_ms=1e3 * float(np.percentile(m.commit_s, 50)),
        commit_tail_ms=1e3 * float(np.percentile(m.commit_s, COMMIT_TAIL_PCT)),
    )
    m.layer.update({
        "txn.wal_bytes": (txn.wal.stats.bytes_written - wal_before) / len(m.commit_s),
        "txn.delta_segments": float(np.mean(segments)),
        "txn.compaction_bytes_rewritten": rewritten,
    })
    return m
