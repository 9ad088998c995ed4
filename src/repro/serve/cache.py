"""The semantic partition cache: memoized pruning verdicts per predicate.

Overlapping queries from many clients repeat the same WHERE clauses against
the same catalog.  Classifying a partition — zone probes, then the sketch
pass — is pure metadata work, but at serving rates it is *hot* metadata
work, repeated for every partition of every plan.  :class:`PartitionCache`
memoizes the planner's per-partition verdicts keyed by

* the **normalized-predicate signature** — attribute-sorted ``(attribute,
  lo, hi)`` triples with min/max-normalized bounds plus the pruning policy,
  so two queries spelled differently (reordered conjuncts, flipped bounds)
  share an entry while queries under different soundness rules never do; and
* the **catalog version** the plan read — every
  :meth:`~repro.storage.partition_manager.PartitionManager.swap_partitions`,
  write batch and sketch attach commits a new immutable version, so entries
  computed against an old catalog can never be replayed against a new one.
  (This is the cached-provenance idea of arXiv:2504.19252 applied at
  serving time: reuse *which partitions survived*, not the data itself.)

A hit hands the stored verdicts to :meth:`~repro.plan.logical.LogicalPlan
.use_cached`; pids the entry does not cover fall back to a full
classification, so an entry recorded for one projection is safely replayed
for another.  Projection never affects a verdict (REQUIRED vs
PROJECTION-ONLY depends on predicate attributes only), which is what makes
the predicate-only key sound.

Coherence protocol: a plan classifies against one immutable catalog value
and records under that value's version, so an entry can never disagree with
its key — not even when a swap commits mid-plan.  Pinned (``AS OF``) plans
share entries with every other plan of the same version.  The cache
registers an invalidation hook with the manager that drops entries of
versions neither current nor pinned; it only reclaims their memory promptly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from ..plan.logical import LogicalPlan, PartitionDecision
from ..storage.partition_manager import PartitionManager

__all__ = [
    "CacheStats",
    "CatalogPartitionCache",
    "PartitionCache",
    "predicate_signature",
]

#: ``(table, policy, pruning, ((attribute, lo, hi), ...))`` — hashable,
#: order-free.  ``table`` is "" for single-table serving (one cache per
#: manager needs no scope) and the table name when a
#: :class:`CatalogPartitionCache` keys one multi-table plan's leaves.
Signature = Tuple[str, str, bool, Tuple[Tuple[str, float, float], ...]]


def predicate_signature(
    ranges: Mapping[str, Tuple[float, float]],
    policy: str,
    pruning: bool,
    table: str = "",
) -> Signature:
    """Canonical hashable form of a normalized conjunction.

    Bounds are min/max-normalized and attributes sorted, so conjunct order
    and bound spelling never split entries.  The policy and pruning flag are
    part of the key because the scan (any-disjoint) and partition
    (all-disjoint) rules reach *different* verdicts for the same predicates.
    ``table`` scopes the entry to one leaf of a multi-table plan — the same
    conjunction pushed to two tables (e.g. a join key's propagated bound)
    must never share verdicts.
    """
    triples = []
    for name, (lo, hi) in ranges.items():
        lo, hi = float(lo), float(hi)
        if hi < lo:
            lo, hi = hi, lo
        triples.append((str(name), lo, hi))
    triples.sort()
    return (str(table), policy, bool(pruning), tuple(triples))


class CacheStats:
    """Lifetime counters; reads are approximate under concurrency, which is
    fine for metrics (the cache itself is exact)."""

    __slots__ = ("n_hits", "n_misses", "n_records", "n_invalidated",
                 "n_evicted")

    def __init__(self) -> None:
        self.n_hits = 0
        self.n_misses = 0
        #: entries successfully recorded after a miss
        self.n_records = 0
        #: entries purged by a version-bump invalidation
        self.n_invalidated = 0
        #: entries evicted by the LRU capacity bound
        self.n_evicted = 0

    @property
    def hit_rate(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0


class PartitionCache:
    """LRU map ``(signature, catalog version) -> {pid: PartitionDecision}``.

    Bound to one :class:`PartitionManager`; ``capacity`` bounds the number
    of distinct predicate signatures retained.  Thread-safe: the serving
    tier consults it from every worker concurrently with daemon-side
    invalidations.
    """

    def __init__(
        self,
        manager: PartitionManager,
        capacity: int = 512,
        table_scope: str = "",
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.manager = manager
        self.capacity = capacity
        #: "" for single-table serving; the table name when this cache is
        #: one leaf of a :class:`CatalogPartitionCache`.
        self.table_scope = table_scope
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Signature, int], Dict[int, PartitionDecision]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        manager.add_invalidation_hook(self._on_invalidate)

    # ------------------------------------------------------------- keying

    def signature(self, logical: LogicalPlan) -> Signature:
        return predicate_signature(
            logical.conjunction.ranges(),
            logical.policy,
            logical.pruning,
            table=self.table_scope,
        )

    # ---------------------------------------------------- planner protocol

    def lookup(
        self, logical: LogicalPlan, version: int
    ) -> Optional[Dict[int, PartitionDecision]]:
        """Verdicts for this plan's signature at catalog ``version``, or None."""
        key = (self.signature(logical), version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.n_hits += 1
                return dict(entry)
            self.stats.n_misses += 1
        return None

    def record(self, logical: LogicalPlan, version: int) -> bool:
        """Store a missed plan's verdicts, computed against ``version``."""
        decisions = {
            pid: d for pid, d in logical.decision_map().items() if not d.via_cache
        }
        if not decisions:
            return False
        key = (self.signature(logical), version)
        with self._lock:
            self._entries[key] = decisions
            self._entries.move_to_end(key)
            self.stats.n_records += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.n_evicted += 1
        return True

    # ------------------------------------------------------- invalidation

    def _on_invalidate(self, version: int) -> None:
        # Entries of a still-pinned version stay: pinned plans replay them.
        keep = {version, *self.manager.pinned_versions()}
        with self._lock:
            stale = [key for key in self._entries if key[1] not in keep]
            for key in stale:
                del self._entries[key]
            self.stats.n_invalidated += len(stale)

    def clear(self) -> None:
        with self._lock:
            self.stats.n_invalidated += len(self._entries)
            self._entries.clear()

    # ---------------------------------------------------------- inspection

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionCache({len(self)} entries, capacity={self.capacity}, "
            f"hits={self.stats.n_hits}, misses={self.stats.n_misses})"
        )


class CatalogPartitionCache:
    """Per-table partition caches for multi-table (DAG) plans.

    A relational plan executes one single-table leaf per scan node — each
    with its *own* pushed predicates (including join-key bounds propagated
    from the other side) against its *own* manager.  This wrapper keeps one
    :class:`PartitionCache` per catalog table, scoped by table name, so the
    serving tier can memoize every leaf's verdicts under the multi-table
    plan without any cross-table key collisions and with per-table
    invalidation (a swap on ``orders`` never drops ``lineitem`` entries).

    ``bindings`` maps table name -> anything with a ``.manager``
    (:class:`~repro.plan.dag.Catalog` entries fit).
    """

    def __init__(
        self,
        bindings: Mapping[str, object],
        capacity: int = 512,
    ):
        self._caches: Dict[str, PartitionCache] = {
            name: PartitionCache(
                binding.manager, capacity=capacity, table_scope=name
            )
            for name, binding in bindings.items()
        }

    # ----------------------------------------------------------- accessors

    def for_table(self, table: str) -> PartitionCache:
        try:
            return self._caches[table]
        except KeyError:
            raise KeyError(
                f"no partition cache for table {table!r}; "
                f"catalog has {sorted(self._caches)}"
            ) from None

    def tables(self) -> Tuple[str, ...]:
        return tuple(self._caches)

    def install(self, bindings: Mapping[str, object]) -> int:
        """Attach each per-table cache to its binding's planner.

        Every engine driver plans through
        :class:`~repro.plan.physical.QueryPlanner`, whose
        ``partition_cache`` attribute is the serving tier's hook — setting
        it here makes every DAG leaf scan consult (and feed) this cache
        with no executor changes.  Returns the number of planners wired;
        bindings without an ``executor.planner`` (e.g. threaded engines)
        are skipped.
        """
        wired = 0
        for name, binding in bindings.items():
            if name not in self._caches:
                continue
            planner = getattr(
                getattr(binding, "executor", binding), "planner", None
            )
            if planner is None:
                continue
            planner.partition_cache = self._caches[name]
            wired += 1
        return wired

    # ---------------------------------------------------- planner protocol

    def lookup(
        self, table: str, logical: LogicalPlan, version: int
    ) -> Optional[Dict[int, PartitionDecision]]:
        """Verdicts for one leaf of a multi-table plan (see
        :meth:`PartitionCache.lookup`)."""
        return self.for_table(table).lookup(logical, version)

    def record(self, table: str, logical: LogicalPlan, version: int) -> bool:
        return self.for_table(table).record(logical, version)

    def clear(self) -> None:
        for cache in self._caches.values():
            cache.clear()

    # ---------------------------------------------------------- inspection

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters across every per-table cache."""
        total = CacheStats()
        for cache in self._caches.values():
            for slot in CacheStats.__slots__:
                setattr(
                    total, slot,
                    getattr(total, slot) + getattr(cache.stats, slot),
                )
        return total

    def __len__(self) -> int:
        return sum(len(cache) for cache in self._caches.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CatalogPartitionCache({sorted(self._caches)}, "
            f"{len(self)} entries)"
        )
