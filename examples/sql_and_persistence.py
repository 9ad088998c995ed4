"""Tune once, save the plan, reload it, and query through the SQL front end.

The tuner is the expensive part (quadratic in the training workload), so a
deployment tunes once and ships the plan.  This example round-trips a tuned
plan through JSON, proves the rematerialized layout is byte-identical, and
then answers ad-hoc SQL against it.

Run:  python examples/sql_and_persistence.py
"""

import io

import numpy as np

from repro import CostModel, IOModel, JigsawPartitioner, PartitionerConfig, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor
from repro.persistence import load_plan, save_plan
from repro.plan import AggSpec, ColumnRef, ExecutionStats, GroupAggOp, Relation
from repro.sql import parse_query
from repro.storage import BALOS_HDD, ColumnTable, PartitionManager, StorageDevice


def main() -> None:
    # ------------------------------------------------------------ the table
    rng = np.random.default_rng(1)
    names = [f"c{i}" for i in range(12)]
    table = ColumnTable.build(
        "sensors",
        TableSchema.uniform(names),
        {n: rng.integers(0, 10_000, 30_000).astype(np.int32) for n in names},
    )

    # ------------------------------------------------- train via SQL text
    training_sql = [
        "SELECT c1, c2, c3 FROM sensors WHERE c0 BETWEEN 0 AND 999",
        "SELECT c1, c2, c3 FROM sensors WHERE c0 BETWEEN 5000 AND 6999",
        "SELECT c8, c9 FROM sensors WHERE c7 >= 9000",
        "SELECT c8, c9 FROM sensors WHERE c7 < 1000",
    ]
    train = Workload(table.meta, [parse_query(table.meta, sql) for sql in training_sql])

    cost_model = CostModel(table.meta, IOModel.from_throughput(75.0, 1e-4))
    tuner = JigsawPartitioner(
        cost_model,
        PartitionerConfig(min_size=16 * 1024, max_size=128 * 1024, selection_enabled=False),
    )
    plan = tuner.partition(table.meta, train)
    print(f"tuned: {len(plan)} partitions in {tuner.stats.elapsed_s * 1e3:.1f} ms")

    # ------------------------------------------------------- save / reload
    buffer = io.StringIO()
    save_plan(plan, buffer, train)
    print(f"plan serialized to {len(buffer.getvalue()):,} JSON bytes")
    buffer.seek(0)
    reloaded = load_plan(table.meta, buffer, train)

    original = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    restored = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    original.materialize_plan(plan, table)
    restored.materialize_plan(reloaded, table)
    identical = all(
        original.store.get(original.info(pid).key)
        == restored.store.get(restored.info(pid).key)
        for pid in original.pids()
    )
    print(f"rematerialized partition files byte-identical: {identical}")

    # ------------------------------------------------------- ad-hoc query
    engine = PartitionAtATimeExecutor(restored, table.meta)
    query = parse_query(
        table.meta, "SELECT c1, c2 FROM sensors WHERE c0 BETWEEN 100 AND 499"
    )
    result, stats = engine.execute(query)
    # Scalar aggregates over the result: the operator the DAG runs for GROUP BY.
    mean_c1 = AggSpec("mean", ColumnRef("sensors", "c1"))
    max_c2 = AggSpec("max", ColumnRef("sensors", "c2"))
    summary = GroupAggOp(keys=(), aggs=(mean_c1, max_c2)).run(
        Relation.from_result("sensors", result), ExecutionStats()
    )
    print(
        f"ad-hoc SQL: {result.n_tuples} rows, {stats.bytes_read:,} bytes read, "
        f"mean(c1)={summary.column(mean_c1.name)[0]:.1f}, "
        f"max(c2)={summary.column(max_c2.name)[0]:.0f}"
    )


if __name__ == "__main__":
    main()
