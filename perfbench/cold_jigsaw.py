"""cold-jigsaw: the paper's read path with every cache empty.

The quickstart table at 200k tuples under :class:`IrregularLayout` tuned on
the quickstart's three templates; one closed-loop client runs the seeded
:class:`~harness.QueryStream`.  Caches are dropped before every query and
the buffer pool is off, so each read pays the selection phase, the
tuple-level index lookups of the projection phase, blob fetch, checksum and
decode.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

from repro.layouts import IrregularLayout
from repro.testing.oracle import run_reference_query

from harness import (
    ROW_BYTES, Measurement, QueryStream, build_context, check_result,
    make_table, quickstart_train,
)

N_TUPLES = 200_000
#: ~90 reads in a 15 s run: p80 leaves 18 beyond it
TAIL_PCT = 80
#: reads whose simulated I/O and blob counts are pinned per seed
PREFIX = 24


@dataclass
class State:
    table: object
    layout: object
    load_put_bytes: int


def setup(seed: int, tally) -> State:
    put_before = tally["put_bytes"]
    table = make_table(seed, N_TUPLES)
    layout = IrregularLayout().build(
        table, quickstart_train(table.meta), build_context()
    )
    return State(table, layout, tally["put_bytes"] - put_before)


def measure(state: State, seed: int, seconds: float, tracer, tally) -> Measurement:
    table, layout = state.table, state.layout
    stream = QueryStream(seed + 1)
    m = Measurement()
    busy = sim_io = 0.0
    pinned = {"bytes_read": 0, "partitions_loaded": 0}
    gets, get_bytes = tally["gets"], tally["get_bytes"]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        label = f"r{len(m.read_s)}"
        query = stream.next_query(table.meta, label)
        layout.drop_caches()
        scope = tracer.op(label) if tracer else contextlib.nullcontext()
        with scope:
            started = perf_counter()
            result, stats = layout.execute(query)
            elapsed = perf_counter() - started
        m.attempted += 1
        m.read_s.append(elapsed)
        busy += elapsed
        if len(m.read_s) <= PREFIX:
            sim_io += stats.io_time_s
            pinned["bytes_read"] += stats.bytes_read
            pinned["partitions_loaded"] += stats.n_partition_reads
        if len(m.read_s) == PREFIX:
            pinned.update(
                sim_io_ms=round(1e3 * sim_io, 9), blob_gets=tally["gets"] - gets,
                blob_get_bytes=tally["get_bytes"] - get_bytes, wal_bytes=0,
            )
            m.invariants = pinned
        check_result(result, run_reference_query(table, query), label, m.failures)
    m.reads = len(m.read_s)
    m.read_qps = m.reads / busy
    m.sim_io_ms_per_read = 1e3 * sim_io / min(PREFIX, m.reads)
    user_bytes = table.n_tuples * ROW_BYTES
    m.write_amp = state.load_put_bytes / user_bytes
    m.space_amp = layout.manager.store.total_bytes() / user_bytes
    return m
