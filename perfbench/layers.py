"""Which public functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

Each target is ``(class, method, span name[, hook])``.  Span names are the
layer vocabulary of the roadmap: ``plan``, ``storage.index`` (the §5.1
tuple-level index), ``storage.load`` (checksum and decode around a blob
fetch), ``storage.blob_get``, ``engine`` (selection, projection fill and
result assembly: everything an executor does outside its children),
``txn.*`` for the write path and ``dag.*`` for the relational DAG.
"""

from __future__ import annotations

from typing import Dict

from repro.core.partitioner import JigsawPartitioner
from repro.engine.partition_at_a_time import PartitionAtATimeExecutor
from repro.engine.scan import ScanExecutor
from repro.layouts import ColumnLayout, IrregularLayout
from repro.plan import DagExecutor, GroupAggOp, HashJoinOp, QueryPlanner
from repro.storage import MemoryBlobStore
from repro.storage.partition_manager import CatalogSnapshot, PartitionManager
from repro.txn import DeltaCompactor, TransactionalTable, WriteAheadLog

from harness import Measurement, percentile_ms
from spans import HOOK, Breakdown


def _index_hook(tracer, args, kwargs, result) -> None:
    """Candidates probed vs. partitions returned, for the hit ratio."""
    index, attribute = args[0], args[1]
    tracer.count("index_candidates", len(index.partitions_for_attribute(attribute)))
    tracer.count("index_hits", len(result))


TARGETS = (
    (IrregularLayout, "build", "layouts.build"),
    (ColumnLayout, "build", "layouts.build"),
    (JigsawPartitioner, "partition", "core.tune"),
    (PartitionManager, "materialize_plan", "storage.materialize"),
    (PartitionManager, "materialize_specs", "storage.materialize"),
    (QueryPlanner, "plan", "plan"),
    (PartitionManager, "partitions_with_missing_cells", "storage.index", _index_hook),
    (CatalogSnapshot, "partitions_with_missing_cells", "storage.index", _index_hook),
    (PartitionManager, "load", "storage.load"),
    (MemoryBlobStore, "get", "storage.blob_get"),
    (ScanExecutor, "execute", "engine"),
    (PartitionAtATimeExecutor, "execute", "engine"),
    (TransactionalTable, "insert", "txn.buffer"),
    (TransactionalTable, "delete", "txn.buffer"),
    (TransactionalTable, "update", "txn.buffer"),
    (TransactionalTable, "commit", "txn.commit"),
    (WriteAheadLog, "commit", "txn.wal_commit"),
    (TransactionalTable, "execute", "txn.execute"),
    (DeltaCompactor, "run", "txn.compaction"),
    (DagExecutor, "execute", "dag"),
    (HashJoinOp, "run", "dag.join"),
    (GroupAggOp, "run", "dag.agg"),
)


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def per_layer_metrics(
    setup: Breakdown,
    run: Breakdown,
    m: Measurement,
    counts: Dict[str, float],
    overhead_frac: float,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    reads = m.reads
    commits = len(m.commit_s)
    ms = 1e3
    tune = setup.inclusive_s("core.tune")
    materialize = setup.inclusive_s("storage.materialize")
    wall = run.wall_s
    layer_sum = sum(run.layers().values())
    candidates = counts.get("index_candidates", 0.0)
    queue = m.layer.pop("queue_wait_s", [])
    lag = m.layer.pop("generator_lag_s", [])
    metrics = {
        "layouts.build_s": setup.inclusive_s("layouts.build") - tune - materialize,
        "core.tune_s": tune,
        "storage.materialize_s": materialize,
        "plan.plan_ms": ms * _per(run.self_s("plan"), reads),
        "storage.index_ms": ms * _per(run.self_s("storage.index"), reads),
        "storage.index_calls": _per(run.n("storage.index"), reads),
        "storage.index_hit_ratio": (
            counts.get("index_hits", 0.0) / candidates if candidates else 0.0
        ),
        "storage.blob_get_ms": ms * _per(run.self_s("storage.blob_get"), reads),
        "storage.blob_gets": _per(counts.get("gets", 0), reads),
        "storage.blob_bytes": _per(counts.get("get_bytes", 0), reads),
        "storage.load_self_ms": ms * _per(run.self_s("storage.load"), reads),
        "engine.self_ms": ms * _per(run.self_s("engine"), reads),
        "serve.queue_wait_p50_ms": percentile_ms(queue, 50) if queue else 0.0,
        "serve.queue_wait_tail_ms": percentile_ms(queue, m.layer.get("tail_pct", 90)) if queue else 0.0,
        "serve.generator_lag_ms": percentile_ms(lag, m.layer.get("tail_pct", 90)) if lag else 0.0,
        "txn.buffer_ms": ms * _per(run.self_s("txn.buffer"), commits),
        "txn.wal_commit_ms": ms * _per(run.self_s("txn.wal_commit"), commits),
        "txn.apply_ms": ms * _per(run.self_s("txn.commit"), commits),
        "txn.merge_ms": ms * _per(run.self_s("txn.execute"), reads),
        "txn.compaction_s": run.inclusive_s("txn.compaction"),
        "txn.compaction_passes": float(run.n("txn.compaction")),
        "dag.self_ms": ms * _per(run.self_s("dag"), reads),
        "dag.join_ms": ms * _per(run.self_s("dag.join"), reads),
        "dag.agg_ms": ms * _per(run.self_s("dag.agg"), reads),
        "dag.scan_ms": ms * _per(run.inclusive_s("engine"), reads) if run.n("dag") else 0.0,
        "bench.traced_wall_s": wall,
        "bench.layer_sum_s": layer_sum,
        "bench.residual_s": run.residual_s,
        "bench.residual_frac": run.residual_s / wall if wall else 0.0,
        "bench.trace_hook_s": run.self_s(HOOK),
        "bench.trace_overhead_frac": overhead_frac,
        "bench.spans": float(sum(run.calls.values())),
    }
    for key in (
        "serve.cache_hit_rate", "serve.exec_ms", "serve.rejected",
        "storage.pool_hit_rate", "storage.pool_evictions",
        "txn.wal_bytes", "txn.delta_segments", "txn.compaction_bytes_rewritten",
        "dag.spill_bytes", "dag.spill_share",
    ):
        metrics[key] = float(m.layer.get(key, 0.0))
    return metrics


def largest_layer(run: Breakdown) -> str:
    layers = run.layers()
    return max(layers, key=layers.get) if layers else ""
