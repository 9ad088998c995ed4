"""join-dag: aggregate equi-joins through the relational DAG.

Two co-partitioned irregular tables (fact 100k rows, dim 20k rows, zone
maps on), each tuned on the same disjoint join-key windows.  One
closed-loop client runs seeded ``SUM``/``COUNT ... GROUP BY`` equi-joins
through :class:`DagExecutor` with a key range of 2-12% of the key domain,
on both sides of the join; the spill budget sends the wider ranges (about
40% of the queries) down the Grace spill path.  This is the only workload that runs
``plan.dag`` and ``plan.relops`` (build, probe, aggregate, spill).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.plan import (
    AggSpec, Catalog, ColumnRef, DagExecutor, JoinCondition, RelationalQuery,
)
from repro.storage import ColumnTable
from repro.testing.join_oracle import run_reference_join

from harness import Measurement, check_result

N_FACT = 100_000
N_DIM = 20_000
KEY_RANGE = 10_000
N_WINDOWS = 8
#: key-range share of each query: 2-12%, spread evenly in every prefix (the
#: dense join oracle compares every qualifying pair, so ranges stay small)
MIN_FRACTION, MAX_FRACTION = 0.02, 0.12
#: build sides above this many bytes spill
SPILL_BUDGET_BYTES = 24 * 1024
#: join queries whose exact counts are pinned per seed
PREFIX = 20
#: ~170 joins in a 15 s run (the oracle takes most of the loop's time):
#: p90 leaves 17 beyond it
TAIL_PCT = 90
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


@dataclass
class State:
    tables: dict
    executor: object
    load_put_bytes: int
    user_bytes: int


def _key_windows(meta, key: str) -> Workload:
    width = KEY_RANGE // N_WINDOWS
    return Workload(meta, [
        Query.build(
            meta, list(meta.schema.attribute_names),
            {key: (i * width, (i + 1) * width - 1)}, label=f"train{i}",
        )
        for i in range(N_WINDOWS)
    ])


def setup(seed: int, tally) -> State:
    put_before = tally["put_bytes"]
    rng = np.random.default_rng([seed, 11])
    fact = ColumnTable.build("fact", TableSchema.uniform(["f_key", "f_val", "f_tag"]), {
        "f_key": rng.integers(0, KEY_RANGE, N_FACT).astype(np.int32),
        "f_val": rng.integers(0, 10_000, N_FACT).astype(np.int32),
        "f_tag": rng.integers(0, 8, N_FACT).astype(np.int32),
    })
    dim = ColumnTable.build("dim", TableSchema.uniform(["d_key", "d_group"]), {
        "d_key": rng.integers(0, KEY_RANGE, N_DIM).astype(np.int32),
        "d_group": rng.integers(0, 16, N_DIM).astype(np.int32),
    })
    ctx = BuildContext(file_segment_bytes=16 * 1024, schism_sample_size=200)
    layouts = {
        name: IrregularLayout(zone_maps=True, selection_enabled=False).build(
            table, _key_windows(table.meta, key), ctx
        )
        for name, table, key in (("fact", fact, "f_key"), ("dim", dim, "d_key"))
    }
    executor = DagExecutor(Catalog(layouts), spill_budget_bytes=SPILL_BUDGET_BYTES)
    user_bytes = N_FACT * 12 + N_DIM * 8
    return State({"fact": fact, "dim": dim}, executor,
                 tally["put_bytes"] - put_before, user_bytes)


class _Queries:
    """Seeded join queries; widths and starts follow low-discrepancy
    sequences (see :class:`harness.QueryStream`) so every prefix spans the
    whole width range, whatever the seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 13])
        self._offset = float(self._rng.random())
        self._i = 0

    def next(self) -> RelationalQuery:
        i = self._i
        self._i += 1
        unit = (i * _GOLDEN) % 1.0
        width = int(KEY_RANGE * (MIN_FRACTION + (MAX_FRACTION - MIN_FRACTION) * unit))
        lo = int(((self._offset + i * _SILVER) % 1.0) * (KEY_RANGE - width))
        return RelationalQuery(
            tables=("fact", "dim"),
            joins=(JoinCondition(ColumnRef("fact", "f_key"), ColumnRef("dim", "d_key")),),
            where={
                ColumnRef("fact", "f_key"): (lo, lo + width - 1),
                ColumnRef("dim", "d_key"): (lo, lo + width - 1),
            },
            select=(
                ColumnRef("dim", "d_group"),
                AggSpec("sum", ColumnRef("fact", "f_val")),
                AggSpec("count", None),
            ),
            group_by=(ColumnRef("dim", "d_group"),),
            label=f"j{i}",
        )


def measure(state: State, seed: int, seconds: float, tracer, tally) -> Measurement:
    queries = _Queries(seed)
    m = Measurement()
    busy = sim_io = 0.0
    spill_bytes = spilled = 0
    pinned = {"bytes_read": 0, "partitions_loaded": 0, "spill_bytes": 0}
    gets, get_bytes = tally["gets"], tally["get_bytes"]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        query = queries.next()
        scope = tracer.op(query.label) if tracer else contextlib.nullcontext()
        with scope:
            started = perf_counter()
            result, stats = state.executor.execute(query)
            elapsed = perf_counter() - started
        busy += elapsed
        m.read_s.append(elapsed)
        m.attempted += 1
        spill_bytes += stats.spill_bytes_written + stats.spill_bytes_read
        spilled += stats.n_spill_chunks > 0
        if len(m.read_s) <= PREFIX:
            sim_io += stats.io_time_s
            pinned["bytes_read"] += stats.bytes_read
            pinned["partitions_loaded"] += stats.n_partition_reads
            pinned["spill_bytes"] += stats.spill_bytes_written + stats.spill_bytes_read
        if len(m.read_s) == PREFIX:
            pinned.update(
                sim_io_ms=round(1e3 * sim_io, 9), blob_gets=tally["gets"] - gets,
                blob_get_bytes=tally["get_bytes"] - get_bytes, wal_bytes=0,
            )
            m.invariants = pinned
        check_result(result, run_reference_join(state.tables, query), query.label, m.failures)
    m.reads = len(m.read_s)
    m.read_qps = m.reads / busy
    m.sim_io_ms_per_read = 1e3 * sim_io / min(PREFIX, m.reads)
    m.write_amp = state.load_put_bytes / state.user_bytes
    catalog = state.executor.catalog
    stored = sum(catalog[name].manager.store.total_bytes() for name in catalog.tables())
    m.space_amp = stored / state.user_bytes
    m.layer["dag.spill_bytes"] = spill_bytes / m.reads
    m.layer["dag.spill_share"] = spilled / m.reads
    m.detail["spill_share"] = spilled / m.reads
    return m
