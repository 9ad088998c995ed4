"""Relational operators: in-memory relations, hash join, grouped aggregation.

The DAG executor (:mod:`repro.plan.dag`) runs each scan leaf through the
existing single-table engines and receives :class:`~repro.plan.result.ResultSet`
objects; this module turns them into :class:`Relation` chunks (qualified
columns plus hidden per-table tuple-id columns) and combines them:

* :class:`HashJoinOp` — vectorized equi-join.  The build side is hashed
  (modeled as ``hash_inserts``), the probe side streamed (``hash_updates``),
  and the produced rows charged as ``materialized_bytes`` so the existing
  :class:`~repro.plan.stats.CpuModel` prices joins with no new knobs.  When
  the build side exceeds the spill budget the operator degrades into a
  Grace/hybrid hash join: both sides are hash-partitioned on the key into
  budget-sized chunks, build chunks are written to the blob store, and the
  join proceeds one resident chunk at a time (``n_spill_chunks`` /
  ``spill_bytes_written`` / ``spill_bytes_read`` in :class:`ExecutionStats`,
  I/O priced by the device's fitted :class:`~repro.core.cost.IOModel`).
* :class:`GroupAggOp` — sort-based grouped aggregation (lexsort +
  ``reduceat``) over sum/min/max/mean/count and ``count(*)``; without keys
  it computes scalar aggregates over any result
  (``Relation.from_result``).

Join and aggregation outputs are deterministic: every relation carries its
tables' tuple-id columns and the executor sorts the final output by them
(FROM order), so partition-wise, broadcast, spilled and in-memory plans all
produce byte-identical results.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cost import IOModel
from ..storage.blob import BlobStore
from .relational import AggSpec
from .result import ResultSet
from .stats import ExecutionStats

__all__ = ["GroupAggOp", "HashJoinOp", "Relation", "SpillConfig"]

#: hidden column prefix carrying each base table's tuple ids through joins.
TID_PREFIX = "__tid."


def tid_column(table: str) -> str:
    return TID_PREFIX + table


@dataclass(slots=True)
class Relation:
    """One batch of rows flowing between relational operators.

    ``columns`` maps *qualified* names (``table.column``) to value arrays;
    rows are aligned across arrays.  Each base table contributing rows adds
    a hidden ``__tid.<table>`` column so downstream operators (and the final
    canonical sort) can trace every output row to its source tuples.
    ``tid_tables`` lists those tables in FROM order.
    """

    columns: Dict[str, np.ndarray]
    tid_tables: Tuple[str, ...]

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    @property
    def nbytes(self) -> int:
        return sum(int(values.nbytes) for values in self.columns.values())

    def column(self, qualified: str) -> np.ndarray:
        return self.columns[qualified]

    @classmethod
    def from_result(cls, table: str, result: ResultSet) -> "Relation":
        columns: Dict[str, np.ndarray] = {
            tid_column(table): np.asarray(result.tuple_ids)
        }
        for name, values in result.columns.items():
            columns[f"{table}.{name}"] = np.asarray(values)
        return cls(columns=columns, tid_tables=(table,))

    def take(self, indices: np.ndarray) -> "Relation":
        return Relation(
            columns={
                name: values[indices] for name, values in self.columns.items()
            },
            tid_tables=self.tid_tables,
        )

    @classmethod
    def concat(cls, parts: Sequence["Relation"]) -> "Relation":
        if not parts:
            raise ValueError("Relation.concat needs at least one part")
        head = parts[0]
        if len(parts) == 1:
            return head
        columns = {
            name: np.concatenate([part.columns[name] for part in parts])
            for name in head.columns
        }
        return cls(columns=columns, tid_tables=head.tid_tables)

    def canonical_order(self) -> np.ndarray:
        """Row order sorted by the FROM-order tuple-id columns.

        ``np.lexsort`` treats its *last* key as primary, so the key list is
        the tid columns reversed: rows sort by the first table's tuple id,
        ties broken by later tables.  This is the invariant order every
        join strategy and spill mode must reproduce.
        """
        keys = [self.columns[tid_column(t)] for t in reversed(self.tid_tables)]
        return np.lexsort(keys)

    def sorted_canonical(self) -> "Relation":
        if self.n_rows <= 1:
            return self
        return self.take(self.canonical_order())


def merge_relations(left: Relation, right: Relation) -> Tuple[str, ...]:
    """The combined tid table order for a join of ``left`` and ``right``."""
    return left.tid_tables + right.tid_tables


# ------------------------------------------------------------------ spill


@dataclass(slots=True)
class SpillConfig:
    """Where and when the hash join spills its build side.

    ``budget_bytes`` is the resident budget for one build side — by default
    the owning table's :class:`~repro.storage.buffer_pool.BufferPool`
    capacity, so join scratch memory obeys the same envelope the read path
    pins partitions under.  ``store`` receives the spilled chunks (the build
    side's blob store); ``io_model`` prices the writes/reads in simulated
    seconds exactly like partition I/O.
    """

    store: BlobStore
    budget_bytes: int
    io_model: Optional[IOModel] = None
    key_prefix: str = "spill"

    def should_spill(self, build_bytes: int) -> bool:
        return self.budget_bytes > 0 and build_bytes > self.budget_bytes

    def n_chunks(self, build_bytes: int) -> int:
        return max(2, -(-build_bytes // max(1, self.budget_bytes)))


def _serialize_relation(relation: Relation) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **relation.columns)
    return buffer.getvalue()


def _deserialize_relation(data: bytes, tid_tables: Tuple[str, ...]) -> Relation:
    with np.load(io.BytesIO(data)) as archive:
        columns = {name: archive[name] for name in archive.files}
    return Relation(columns=columns, tid_tables=tid_tables)


# ------------------------------------------------------------------- join


class HashJoinOp:
    """Vectorized equi-join of two relations with optional build spilling.

    The physical layer decides which side builds; this operator only
    executes.  Matching is sort/searchsorted over the build keys — the
    simulated accounting still models a classic hash join (one insert per
    build row, one probe per probe row) because that is the algorithm whose
    cost we replicate; the vectorized implementation is just how Python gets
    there without an interpreter-bound loop.
    """

    def __init__(self, spill: Optional[SpillConfig] = None):
        self.spill = spill
        #: populated after run(): "memory" or "spill(<n>)" — for EXPLAIN.
        self.last_mode: str = "memory"

    # -- pair enumeration ------------------------------------------------

    @staticmethod
    def _match_pairs(
        build_keys: np.ndarray, probe_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs (build_idx, probe_idx) of every equal-key row pair."""
        order = np.argsort(build_keys, kind="stable")
        sorted_keys = build_keys[order]
        lo = np.searchsorted(sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_idx = order[starts + offsets]
        return build_idx, probe_idx

    # -- execution -------------------------------------------------------

    def run(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
        stats: ExecutionStats,
        build_is_left: bool,
    ) -> Relation:
        """Join ``build`` and ``probe`` on equal keys; charge ``stats``.

        ``build_is_left`` records which input is the logical left so the
        output's tid-table order follows FROM order, not build choice.
        """
        left, right = (build, probe) if build_is_left else (probe, build)
        tid_tables = merge_relations(left, right)

        stats.hash_inserts += build.n_rows
        stats.hash_updates += probe.n_rows

        if self.spill is not None and self.spill.should_spill(build.nbytes):
            joined = self._run_spilled(
                build, probe, build_key, probe_key, stats
            )
        else:
            self.last_mode = "memory"
            joined = self._join_pair(build, probe, build_key, probe_key)

        out_columns: Dict[str, np.ndarray] = {}
        for part in joined:
            out_columns.update(part.columns)
        out = Relation(columns=out_columns, tid_tables=tid_tables)
        stats.materialized_bytes += out.nbytes
        return out

    def _join_pair(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
    ) -> Tuple[Relation, Relation]:
        build_idx, probe_idx = self._match_pairs(
            build.column(build_key), probe.column(probe_key)
        )
        return build.take(build_idx), probe.take(probe_idx)

    def _run_spilled(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
        stats: ExecutionStats,
    ) -> Tuple[Relation, Relation]:
        """Grace hash join: chunk both sides by key hash, one chunk resident.

        Chunk assignment uses the key value itself (``|key| mod n``) so a
        build row and its matching probe rows always land in the same chunk
        — correctness does not depend on the chunk count or budget.
        """
        spill = self.spill
        assert spill is not None
        n_chunks = spill.n_chunks(build.nbytes)
        self.last_mode = f"spill({n_chunks})"

        build_assign = np.abs(
            build.column(build_key).astype(np.int64)
        ) % n_chunks
        probe_assign = np.abs(
            probe.column(probe_key).astype(np.int64)
        ) % n_chunks

        # Phase 1: write every build chunk out, releasing the resident side.
        keys: List[Tuple[str, int]] = []
        for chunk in range(n_chunks):
            part = build.take(np.flatnonzero(build_assign == chunk))
            data = _serialize_relation(part)
            key = f"{spill.key_prefix}/{build_key}/{id(self)}/{chunk}"
            spill.store.put(key, data)
            keys.append((key, len(data)))
        written = sum(size for _, size in keys)
        stats.n_spill_chunks += n_chunks
        stats.spill_bytes_written += written
        if spill.io_model is not None:
            stats.io_time_s += spill.io_model.io_time(written)

        # Phase 2: re-read one chunk at a time and probe it.
        build_parts: List[Relation] = []
        probe_parts: List[Relation] = []
        try:
            for chunk, (key, size) in enumerate(keys):
                data = spill.store.get(key)
                stats.spill_bytes_read += len(data)
                if spill.io_model is not None:
                    stats.io_time_s += spill.io_model.io_time(len(data))
                resident = _deserialize_relation(data, build.tid_tables)
                probe_part = probe.take(np.flatnonzero(probe_assign == chunk))
                b, p = self._join_pair(
                    resident, probe_part, build_key, probe_key
                )
                build_parts.append(b)
                probe_parts.append(p)
        finally:
            for key, _ in keys:
                try:
                    spill.store.delete(key)
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
        return Relation.concat(build_parts), Relation.concat(probe_parts)


# -------------------------------------------------------------- aggregate


class GroupAggOp:
    """Sort-based grouped aggregation over a :class:`Relation`.

    With group keys: lexsort the key columns, find group boundaries, and
    evaluate each aggregate with ``reduceat`` — output rows are sorted by
    the key tuple, so the result is deterministic.  Without keys, produces
    exactly one row; empty input follows SQL scalar-aggregate semantics
    (``sum``/``count`` -> 0, ``min``/``max``/``mean`` -> NaN).

    Accounting models a hash aggregation: one hash insert per input row and
    the output charged as materialized bytes.
    """

    def __init__(self, keys: Sequence[str], aggs: Sequence[AggSpec]):
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)

    def run(self, relation: Relation, stats: ExecutionStats) -> Relation:
        n = relation.n_rows
        stats.hash_inserts += n
        if self.keys:
            out = self._grouped(relation)
        else:
            out = self._scalar(relation)
        stats.materialized_bytes += out.nbytes
        return out

    # -- helpers ---------------------------------------------------------

    def _agg_input(self, relation: Relation, spec: AggSpec) -> np.ndarray:
        if spec.column is None:  # count(*)
            return np.ones(relation.n_rows, dtype=np.int64)
        return relation.column(spec.column.qualified)

    @staticmethod
    def _reduce(
        spec: AggSpec, values: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        if spec.func == "count":
            return counts.astype(np.int64)
        as_float = values.astype(np.float64, copy=False)
        if spec.func == "sum":
            return np.add.reduceat(as_float, starts)
        if spec.func == "min":
            return np.minimum.reduceat(as_float, starts)
        if spec.func == "max":
            return np.maximum.reduceat(as_float, starts)
        if spec.func == "mean":
            return np.add.reduceat(as_float, starts) / counts
        raise AssertionError(f"unreachable aggregate {spec.func!r}")

    def _grouped(self, relation: Relation) -> Relation:
        key_values = [relation.column(k) for k in self.keys]
        n = relation.n_rows
        if n == 0:
            columns: Dict[str, np.ndarray] = {
                name: values[:0] for name, values in zip(self.keys, key_values)
            }
            for spec in self.aggs:
                dtype = np.int64 if spec.func == "count" else np.float64
                columns[spec.name] = np.empty(0, dtype=dtype)
            return Relation(columns=columns, tid_tables=())
        order = np.lexsort(list(reversed(key_values)))
        sorted_keys = [values[order] for values in key_values]
        changed = np.zeros(n, dtype=bool)
        changed[0] = True
        for values in sorted_keys:
            changed[1:] |= values[1:] != values[:-1]
        starts = np.flatnonzero(changed)
        counts = np.diff(np.append(starts, n))
        columns = {
            name: values[starts]
            for name, values in zip(self.keys, sorted_keys)
        }
        for spec in self.aggs:
            values = self._agg_input(relation, spec)[order]
            columns[spec.name] = self._reduce(spec, values, starts, counts)
        return Relation(columns=columns, tid_tables=())

    def _scalar(self, relation: Relation) -> Relation:
        n = relation.n_rows
        columns: Dict[str, np.ndarray] = {}
        for spec in self.aggs:
            if n == 0:
                if spec.func in ("sum", "count"):
                    value = (
                        np.array([0], dtype=np.int64)
                        if spec.func == "count"
                        else np.array([0.0])
                    )
                else:
                    value = np.array([np.nan])
                columns[spec.name] = value
                continue
            values = self._agg_input(relation, spec)
            starts = np.array([0])
            counts = np.array([n])
            columns[spec.name] = self._reduce(spec, values, starts, counts)
        return Relation(columns=columns, tid_tables=())
