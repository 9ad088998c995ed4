"""Aggregation over query results — deprecated shim.

These helpers predate the relational operator DAG; grouped and scalar
aggregation now live in :class:`repro.plan.relops.GroupAggOp` (driven by
:class:`repro.plan.dag.DagExecutor` for SQL ``GROUP BY``).  The functions
here keep their historical signatures and output shapes for the examples
and old callers, but delegate the actual math to ``GroupAggOp`` — there is
exactly one aggregation implementation in the repository.

Deprecated: new code should express aggregation as a
:class:`~repro.plan.relational.RelationalQuery` (or call ``GroupAggOp``
directly on a :class:`~repro.plan.relops.Relation`).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

import numpy as np

from ..errors import InvalidQueryError
from ..plan.relational import AGG_FUNCTIONS, AggSpec, ColumnRef
from ..plan.relops import GroupAggOp, Relation
from ..plan.stats import ExecutionStats
from ..plan.result import ResultSet

__all__ = ["aggregate", "group_aggregate", "revenue", "AGGREGATE_FUNCTIONS"]

#: Kept for backwards compatibility with callers that introspected the
#: function table; the implementations now live in ``GroupAggOp``.
AGGREGATE_FUNCTIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "sum": lambda values: float(values.sum()),
    "min": lambda values: float(values.min()),
    "max": lambda values: float(values.max()),
    "mean": lambda values: float(values.mean()),
    "count": lambda values: float(len(values)),
}

#: Pseudo table name qualifying ResultSet columns inside the shim.
_TABLE = "r"


def _check_function(name: str) -> None:
    if name not in AGG_FUNCTIONS:
        raise InvalidQueryError(
            f"unknown aggregate {name!r}; choose from {sorted(AGG_FUNCTIONS)}"
        )


def _as_relation(result: ResultSet) -> Relation:
    return Relation.from_result(_TABLE, result)


def _specs(spec: Mapping[str, str]) -> list[AggSpec]:
    for name in spec.values():
        _check_function(name)
    return [
        AggSpec(name, ColumnRef(_TABLE, attribute))
        for attribute, name in spec.items()
    ]


def _legacy_name(agg: AggSpec) -> str:
    # GroupAggOp names outputs "func(r.attr)"; the legacy key is "func(attr)".
    assert agg.column is not None
    return f"{agg.func}({agg.column.column})"


def aggregate(result: ResultSet, spec: Mapping[str, str]) -> Dict[str, float]:
    """Scalar aggregates: ``{"l_extendedprice": "sum", ...}``.

    Empty results yield 0 for sum/count and NaN for min/max/mean (the SQL
    NULL of this numeric world).
    """
    aggs = _specs(spec)
    out_relation = GroupAggOp(keys=(), aggs=aggs).run(
        _as_relation(result), ExecutionStats()
    )
    return {
        _legacy_name(agg): float(out_relation.column(agg.name)[0])
        for agg in aggs
    }


def group_aggregate(
    result: ResultSet,
    by: str,
    spec: Mapping[str, str],
) -> Dict[float, Dict[str, float]]:
    """GROUP BY one attribute, computing the given aggregates per group.

    Returns ``{group_value: {"sum(x)": ..., ...}}`` with groups in ascending
    key order (GroupAggOp's canonical output order).
    """
    aggs = _specs(spec)
    key = f"{_TABLE}.{by}"
    out_relation = GroupAggOp(keys=(key,), aggs=aggs).run(
        _as_relation(result), ExecutionStats()
    )
    keys = out_relation.column(key)
    groups: Dict[float, Dict[str, float]] = {}
    for row in range(out_relation.n_rows):
        value = keys[row]
        groups[value.item() if hasattr(value, "item") else value] = {
            _legacy_name(agg): float(out_relation.column(agg.name)[row])
            for agg in aggs
        }
    return groups


def revenue(result: ResultSet) -> float:
    """TPC-H revenue: ``sum(l_extendedprice * (1 - l_discount))``.

    The product is an expression, not a stored column, so it is computed
    here and summed through the scalar aggregation path.
    """
    price = result.column("l_extendedprice")
    discount = result.column("l_discount")
    if not len(price):
        return 0.0
    return float((price * (1.0 - discount)).sum())
