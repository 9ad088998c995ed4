"""Figure 9 variant — TPC-H lineitem JOIN orders through the operator DAG.

The paper's evaluation denormalizes LINEITEM so every engine runs
single-table plans (:mod:`.fig09_tpch`).  This variant keeps lineitem and
orders as separate tables — both range-clustered on the order key, the
physical design a real TPC-H deployment would pick — and runs the Q3-shaped
aggregate join

    SELECT l_returnflag, SUM(l_extendedprice), COUNT(*)
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE o_orderdate BETWEEN <window>
    GROUP BY l_returnflag

through every join strategy the DAG supports (chooser default, forced
partition-wise, forced broadcast, forced naive post-filter).  Each
lineitem belongs to exactly one order, so the denormalized single-table
run computes the same aggregate — the experiment cross-checks the group
totals between the two paths and reports the disagreement (must be ~0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ...core.query import Query, Workload
from ...layouts import IrregularLayout
from ...plan.dag import Catalog, DagExecutor
from ...plan.relational import AggSpec, ColumnRef, JoinCondition, RelationalQuery
from ...plan.relops import GroupAggOp, Relation
from ...plan.stats import ExecutionStats
from ...storage.table_data import ColumnTable
from ...workloads.tpch import denormalize, generate_tpch
from ..environments import BALOS, MACHINES, scaled_context
from ..reporting import ExperimentResult
from .fig09_tpch import PAPER_TPCH_TABLE_BYTES

__all__ = ["Fig09JoinConfig", "run"]

#: The evaluated date window (spec dates are day counts); straddles the
#: return-flag cutoff so all three flags appear in the grouped output.
_DATE_LO, _DATE_HI = 1000, 1500
#: Fraction of the order-key domain the query touches (a "recent orders"
#: segment) — the pushed key range partition-wise and broadcast plans prune
#: on and the naive post-filter plan cannot.
_KEY_FRACTION = 0.25


@dataclass(slots=True)
class Fig09JoinConfig:
    """Scale and scope knobs."""

    scale_factor: float = 0.002
    machine: str = "balos"
    n_train_windows: int = 6
    schism_sample: int = 400
    spill_budget_bytes: Optional[int] = None
    seed: int = 13


def _key_windows(meta, key: str, n_windows: int) -> Workload:
    """Disjoint key-range training windows -> contiguous key zones."""
    interval = meta.interval(key)
    lo, hi = int(interval.lo), int(interval.hi)
    width = max(1, (hi - lo + 1) // n_windows)
    queries = []
    for i in range(n_windows):
        wlo = lo + i * width
        whi = hi if i == n_windows - 1 else min(hi, wlo + width - 1)
        if whi < wlo:
            continue
        queries.append(
            Query.build(
                meta,
                list(meta.schema.attribute_names),
                {key: (wlo, whi)},
                label=f"train{i}",
            )
        )
    return Workload(meta, queries)


def _key_range(orders: ColumnTable) -> Tuple[int, int]:
    interval = orders.meta.interval("o_orderkey")
    lo, hi = int(interval.lo), int(interval.hi)
    start = hi - max(1, int((hi - lo + 1) * _KEY_FRACTION)) + 1
    return (max(lo, start), hi)


def _join_query(orders: ColumnTable) -> RelationalQuery:
    return RelationalQuery(
        tables=("lineitem", "orders"),
        joins=(
            JoinCondition(
                ColumnRef("lineitem", "l_orderkey"),
                ColumnRef("orders", "o_orderkey"),
            ),
        ),
        where={
            ColumnRef("orders", "o_orderdate"): (_DATE_LO, _DATE_HI),
            ColumnRef("orders", "o_orderkey"): _key_range(orders),
        },
        select=(
            ColumnRef("lineitem", "l_returnflag"),
            AggSpec("sum", ColumnRef("lineitem", "l_extendedprice")),
            AggSpec("count", None),
        ),
        group_by=(ColumnRef("lineitem", "l_returnflag"),),
        label="q3-join",
    )


def _denorm_totals(
    denorm: ColumnTable, key_range: Tuple[int, int]
) -> Dict[int, Tuple[float, int]]:
    """The same aggregate off the denormalized single-table scan."""
    query = Query.build(
        denorm.meta,
        ["l_returnflag", "l_extendedprice"],
        {"o_orderdate": (_DATE_LO, _DATE_HI), "l_orderkey": key_range},
        label="q3-denorm",
    )
    from ...testing.oracle import run_reference_query

    result = run_reference_query(denorm, query)
    total = AggSpec("sum", ColumnRef("lineitem", "l_extendedprice"))
    count = AggSpec("count", None)
    groups = GroupAggOp(keys=("lineitem.l_returnflag",), aggs=(total, count)).run(
        Relation.from_result("lineitem", result), ExecutionStats()
    )
    return {
        int(key): (float(sums), int(n))
        for key, sums, n in zip(
            groups.column("lineitem.l_returnflag"),
            groups.column(total.name),
            groups.column(count.name),
        )
    }


def run(cfg: Fig09JoinConfig | None = None) -> ExperimentResult:
    cfg = cfg or Fig09JoinConfig()
    result = ExperimentResult(
        experiment="fig09-join",
        title="TPC-H lineitem JOIN orders: per-split strategy vs baselines",
        parameters={
            "scale_factor": cfg.scale_factor,
            "machine": cfg.machine,
            "date_window": [_DATE_LO, _DATE_HI],
        },
    )
    db = generate_tpch(cfg.scale_factor, seed=cfg.seed)
    lineitem, orders = db.lineitem, db.orders
    result.parameters["n_lineitem"] = lineitem.n_tuples
    result.parameters["n_orders"] = orders.n_tuples

    machine = MACHINES.get(cfg.machine, BALOS)
    ctx, scale = scaled_context(
        machine,
        lineitem.sizeof() + orders.sizeof(),
        paper_table_bytes=PAPER_TPCH_TABLE_BYTES,
        schism_sample_size=cfg.schism_sample,
        seed=cfg.seed,
    )
    result.parameters["scale"] = scale

    builder = lambda: IrregularLayout(zone_maps=True, selection_enabled=False)
    catalog = Catalog(
        {
            "lineitem": builder().build(
                lineitem,
                _key_windows(lineitem.meta, "l_orderkey", cfg.n_train_windows),
                ctx,
            ),
            "orders": builder().build(
                orders,
                _key_windows(orders.meta, "o_orderkey", cfg.n_train_windows),
                ctx,
            ),
        }
    )

    query = _join_query(orders)
    expected = _denorm_totals(denormalize(db), _key_range(orders))

    strategies: Tuple[Tuple[str, Optional[str]], ...] = (
        ("default", None),
        ("partition-wise", "partition-wise"),
        ("broadcast", "broadcast"),
        ("naive", "naive"),
    )
    for label, force in strategies:
        executor = DagExecutor(
            catalog,
            spill_budget_bytes=cfg.spill_budget_bytes,
            force_strategy=force,
        )
        dag_result, stats = executor.execute(query)
        flags = dag_result.column("lineitem.l_returnflag")
        sums = dag_result.column("sum(lineitem.l_extendedprice)")
        counts = dag_result.column("count(*)")
        # Cross-check against the denormalized single-table run.
        max_abs_err = 0.0
        count_mismatch = 0
        for flag, total, n in zip(flags, sums, counts):
            want_sum, want_n = expected.get(int(flag), (0.0, 0))
            max_abs_err = max(max_abs_err, abs(float(total) - want_sum))
            count_mismatch += int(n) != want_n
        if len(flags) != len(expected):
            count_mismatch += abs(len(flags) - len(expected))
        chosen = ""
        for note in executor.last_notes:
            if note.startswith("join "):
                chosen = note.split(": ", 1)[-1].split(" ")[0]
                break
        result.add_row(
            strategy=label,
            chosen=chosen,
            groups=len(flags),
            sim_time_s=round(stats.simulated_time_s, 4),
            io_s=round(stats.io_time_s, 4),
            mb_read=round(stats.bytes_read / 1e6, 3),
            partition_reads=stats.n_partition_reads,
            pruned=stats.n_partitions_pruned,
            spill_chunks=stats.n_spill_chunks,
            denorm_max_abs_err=max_abs_err,
            denorm_count_mismatches=count_mismatch,
        )
    result.notes.append(
        "lineitem and orders are range-clustered on the order key, so the "
        "chooser should find disjoint key splits; totals must equal the "
        "denormalized run's (each lineitem joins exactly one order)"
    )
    return result
