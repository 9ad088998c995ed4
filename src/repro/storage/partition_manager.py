"""The partition manager (Section 5.1).

Stores each partition in one file (blob), charges reads through the storage
device, and maintains the two indexes of the paper: the *attribute-level*
index (attribute -> partitions storing it) and the *tuple-level* index
(which partitions store a given tuple's cells).  Both live in one immutable
:class:`CatalogVersion` per catalog version: every commit builds the next
value and swaps one reference, readers never lock, and a pinned
:class:`CatalogSnapshot` is a lease on one value.

The tuple-level index answers the projection phase's "partitions holding
attribute ``a`` for these tuples" lookups from a per-attribute *owner
array*: a dense tid-indexed array naming each cell's primary partition,
plus a small sorted overflow for the rare cell with several primary homes.
Each owner array is derived from the value's per-segment tid arrays on its
first lookup and memoized on the value — the one mutable cache it carries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.partition import PartitioningPlan
from ..core.schema import TableSchema
from ..obs import tracer as obs_tracer
from ..errors import (
    InvalidPartitioningError,
    PartitionNotFoundError,
    PartitionUnreadableError,
    SnapshotUnavailableError,
    StorageError,
)
from .blob import BlobStore, MemoryBlobStore
from .buffer_pool import BufferPool
from .device import StorageDevice
from .faults import RetryPolicy
from .io_stats import IOStats
from .format import (
    append_trailer,
    checksum_overhead,
    deserialize_partition,
    read_trailer,
    serialize_partition,
    strip_trailer,
)
from .sketches import SketchSet
from .physical import (
    TID_CATALOG,
    TID_EXPLICIT,
    PhysicalPartition,
    SegmentSpec,
    build_physical_partition,
    physical_from_logical,
    sorted_unique,
)
from .table_data import ColumnTable

__all__ = ["CatalogSnapshot", "CatalogVersion", "PartitionInfo", "PartitionManager"]


@dataclass(slots=True)
class PartitionInfo:
    """Catalog entry for one materialized partition.

    ``attributes`` holds the *primary* attribute set; replica segments (the
    limited-replication extension) are catalogued separately so the paper's
    indexes keep pointing at each cell's single primary home.
    ``full_coverage_attrs`` lists the attributes — primary or replica — for
    which the partition stores a cell for *every* one of its tuples, which is
    the precondition for evaluating a predicate entirely partition-locally.
    """

    pid: int
    key: str
    n_bytes: int
    attributes: frozenset
    n_tuples: int
    zone_map: Dict[str, Tuple[float, float]]
    segment_attrs: List[Tuple[str, ...]] = field(default_factory=list)
    segment_tids: List[np.ndarray] = field(default_factory=list)
    segment_tid_modes: List[str] = field(default_factory=list)
    segment_replicas: List[bool] = field(default_factory=list)
    replica_attributes: frozenset = frozenset()
    full_coverage_attrs: frozenset = frozenset()
    #: catalog version at which this partition became visible; a retired
    #: entry is re-stamped with the version that retired it.
    version: int = 0
    #: optional per-partition data-skipping sketches (see
    #: :mod:`repro.storage.sketches`); ``None`` when none were built.
    sketches: Optional[SketchSet] = None
    _tuple_ids_cache: Optional[np.ndarray] = field(default=None, repr=False)

    def tuple_ids(self) -> np.ndarray:
        """Sorted unique tuple IDs with a primary cell in the partition.

        Memoized: the projection phase and ``_full_coverage`` call this once
        per attribute pass, and the dedup/concatenate is pure recomputation.
        """
        if self._tuple_ids_cache is None:
            primary = [
                tids
                for tids, replica in zip(self.segment_tids, self.segment_replicas)
                if not replica
            ] or self.segment_tids
            if not primary:
                self._tuple_ids_cache = np.empty(0, dtype=np.int64)
            else:
                self._tuple_ids_cache = sorted_unique(np.concatenate(primary))
        return self._tuple_ids_cache

    def catalog_tids(self) -> Dict[int, np.ndarray]:
        """Ordinal -> tids of the segments whose tids live in the catalog."""
        modes = zip(self.segment_tids, self.segment_tid_modes)
        return {i: tids for i, (tids, mode) in enumerate(modes) if mode == TID_CATALOG}

    def attribute_tids(self, attribute: str) -> np.ndarray:
        """Sorted unique tuple IDs for which the partition stores a cell of
        ``attribute`` — in *any* segment, primary or replica."""
        holding = [
            tids
            for attrs, tids in zip(self.segment_attrs, self.segment_tids)
            if attribute in attrs and len(tids)
        ]
        if not holding:
            return np.empty(0, dtype=np.int64)
        if len(holding) == 1:
            return holding[0]
        return sorted_unique(np.concatenate(holding))

    def zone_disjoint(
        self, attribute: str, lo: float, hi: float
    ) -> Optional[bool]:
        """Whether the partition's zone for ``attribute`` misses ``[lo, hi]``.

        Returns ``None`` when the catalog has no bounds for the attribute
        (not stored here, or stored with no cells) — callers must treat that
        as "cannot prune", not as disjoint.
        """
        bounds = self.zone_map.get(attribute)
        if bounds is None:
            return None
        zone_lo, zone_hi = bounds
        return zone_hi < lo or zone_lo > hi


def _full_coverage(info: PartitionInfo) -> frozenset:
    """Attributes (primary or replica) stored for every tuple of the partition."""
    all_tids = info.tuple_ids()
    if not len(all_tids):
        return frozenset()
    coverage: Dict[str, int] = {}
    for attrs, tids in zip(info.segment_attrs, info.segment_tids):
        unique = len(sorted_unique(tids))
        for attribute in attrs:
            coverage[attribute] = coverage.get(attribute, 0) + unique
    return frozenset(a for a, count in coverage.items() if count >= len(all_tids))


#: One attribute's tuple-level index: the dense owner array (``slot + 2``
#: per tid, ``0`` for no primary home, ``1`` for several) and the overflow
#: ``(tids, slots)`` listing every home of each multi-home tid, sorted.
Owners = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _build_owners(infos: Mapping[int, PartitionInfo], attribute: str,
                  pids: Tuple[int, ...]) -> Owners:
    """The owner array of ``attribute`` over the partitions ``pids``, where
    a slot is a pid's position in ``pids``."""
    held: List[np.ndarray] = []
    for pid in pids:
        info = infos[pid]
        primary = [
            tids
            for attrs, tids, replica in zip(
                info.segment_attrs, info.segment_tids, info.segment_replicas
            )
            if not replica and attribute in attrs and len(tids)
        ]
        if len(primary) == 1:
            held.append(primary[0])
        else:
            held.append(sorted_unique(np.concatenate([np.empty(0, np.int64), *primary])))
    # ``segment_tids`` are sorted, so each array's last entry is its largest.
    size = max((int(tids[-1]) + 1 for tids in held if len(tids)), default=0)
    owners = np.zeros(size, dtype=np.min_scalar_type(len(pids) + 1))
    clashes: List[np.ndarray] = []
    for slot, tids in enumerate(held):
        current = owners[tids]
        owners[tids] = slot + 2
        taken = current != 0
        if taken.any():
            clash, previous = tids[taken], current[taken]
            single = previous >= 2
            clashes.append(np.stack([clash[single], previous[single] - 2], axis=1))
            clashes.append(np.stack([clash, np.full(len(clash), slot)], axis=1))
            owners[clash] = 1
    if not clashes:
        empty = np.empty(0, np.int64)
        return owners, empty, empty
    overflow = np.unique(np.concatenate(clashes).astype(np.int64), axis=0)
    return owners, overflow[:, 0].copy(), overflow[:, 1].copy()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CatalogVersion:
    """The catalog at one version: immutable, shared, read without locks.

    Holds the version number, the pid -> :class:`PartitionInfo` map of the
    partitions live at that version, and the paper's attribute-level index:
    ``(attribute, replica_only) -> pids``, in the order the partitions became
    visible (by ``(info.version, pid)``, which the greedy degraded-read cover
    walks).  The tuple-level index is one :data:`Owners` per attribute: the
    primary partition of every tid, as a position in
    :meth:`partitions_for_attribute`, plus an overflow for tids with several
    primary homes.

    Each commit derives the next value (:meth:`patched`, :meth:`advanced`)
    and the manager swaps one reference, so a verdict computed against a
    value stays exact for as long as anyone holds it.  The one mutable part
    is ``_owners``, the memo of owner arrays built so far: each is derived
    from the value's own infos on its first lookup, so a racing rebuild
    stores an identical array, and a derived value carries over only the
    entries its commit left valid.
    """

    version: int
    infos: Mapping[int, PartitionInfo]
    index: Mapping[Tuple[str, bool], Tuple[int, ...]]
    _owners: Dict[str, Owners] = field(default_factory=dict)

    @classmethod
    def build(cls, version: int, infos: Iterable[PartitionInfo]) -> "CatalogVersion":
        """The value a run of commits leaving exactly ``infos`` live had."""
        ordered = sorted(infos, key=lambda info: (info.version, info.pid))
        return cls(version, {}, {}).patched(version, (), ordered)

    def advanced(
        self, version: int, info: Optional[PartitionInfo] = None
    ) -> "CatalogVersion":
        """This catalog under a new version, optionally with one entry swapped
        for one holding the same segments (a sketch attach).  No owner array
        changes, so the two values share one memo."""
        infos = self.infos if info is None else {**self.infos, info.pid: info}
        return CatalogVersion(version, infos, self.index, self._owners)

    def patched(
        self, version: int, removed: Iterable[int], added: Sequence[PartitionInfo]
    ) -> "CatalogVersion":
        """Drop the ``removed`` pids, then append ``added`` in order.

        Copies the maps once and rebuilds only the pid tuples of attributes
        the changed partitions hold — no full re-index per commit — and
        keeps the memoized owner arrays of every other attribute.
        """
        infos = dict(self.infos)
        gone = {pid: infos.pop(pid) for pid in removed}
        infos.update((info.pid, info) for info in added)
        keys = {info.pid: _index_keys(info) for info in added}
        touched = set().union(*keys.values(), *map(_index_keys, gone.values()))
        index = dict(self.index)
        for key in touched:
            pids = tuple(pid for pid in index.get(key, ()) if pid not in gone)
            pids += tuple(info.pid for info in added if key in keys[info.pid])
            if pids:
                index[key] = pids
            else:
                index.pop(key, None)
        # ``dict.copy`` is atomic, unlike iterating a memo readers may fill.
        owners = self._owners.copy()
        for attribute, replica in touched:
            if not replica:
                owners.pop(attribute, None)
        return CatalogVersion(version, infos, index, owners)

    def info(self, pid: int) -> PartitionInfo:
        try:
            return self.infos[pid]
        except KeyError:
            raise PartitionNotFoundError(f"no partition with id {pid}") from None

    def pids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.infos))

    def partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        """Partitions storing a *primary* cell of ``attribute``."""
        return self.index.get((attribute, False), ())

    def replica_partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        """Partitions holding replica-only copies of ``attribute``."""
        return self.index.get((attribute, True), ())

    def partitions_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        pids: set = set()
        for attribute in attributes:
            pids.update(self.partitions_for_attribute(attribute))
        return tuple(sorted(pids))

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        """Tuple-level index lookup used by the projection phase: the
        partitions that store a primary cell of ``attribute`` for at least
        one of ``tids``, in :meth:`partitions_for_attribute` order."""
        pids = self.partitions_for_attribute(attribute)
        if not pids:
            return ()
        owners, overflow_tids, overflow_slots = self._owner_index(attribute, pids)
        tids = np.asarray(tids, dtype=np.int64)
        probe = tids[(tids >= 0) & (tids < len(owners))]
        hit = np.zeros(len(pids) + 2, dtype=bool)
        hit[owners[probe]] = True
        if hit[1]:
            several = np.isin(overflow_tids, probe)
            hit[overflow_slots[several] + 2] = True
        return tuple(pids[slot] for slot in np.flatnonzero(hit[2:]))

    def _owner_index(self, attribute: str, pids: Tuple[int, ...]) -> Owners:
        owners = self._owners.get(attribute)
        if owners is None:
            owners = _build_owners(self.infos, attribute, pids)
            self._owners[attribute] = owners
        return owners

    def cover_attribute(
        self, attribute: str, tids: np.ndarray, exclude: Iterable[int] = ()
    ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Greedy cover of ``(attribute, tids)`` cells from other partitions.

        Candidates are every partition holding ``attribute`` primarily or as
        replicas, minus ``exclude`` (typically the unreadable partition).
        Returns ``(chosen_pids, still_missing_tids)``; an empty second item
        means full coverage.
        """
        excluded = frozenset(exclude)
        remaining = sorted_unique(np.asarray(tids, dtype=np.int64))
        chosen: List[int] = []
        for pid in self.partitions_for_attribute(attribute) + (
            self.replica_partitions_for_attribute(attribute)
        ):
            if pid in excluded or not len(remaining):
                continue
            held = self.infos[pid].attribute_tids(attribute)
            if not len(held):
                continue
            hit = np.isin(remaining, held, assume_unique=True)
            if hit.any():
                chosen.append(pid)
                remaining = remaining[~hit]
        return tuple(chosen), remaining

    def __len__(self) -> int:
        return len(self.infos)


def _index_keys(info: PartitionInfo) -> Set[Tuple[str, bool]]:
    """The attribute-index keys listing ``info``: its primary attributes,
    then replica-only ones (a partition holding both copies is primary)."""
    return {(a, False) for a in info.attributes} | {
        (a, True) for a in info.replica_attributes - info.attributes
    }


class PartitionManager:
    """Materializes partitions to a blob store and serves indexed reads."""

    def __init__(
        self,
        schema: TableSchema,
        device: StorageDevice,
        store: BlobStore | None = None,
        key_prefix: str = "",
        buffer_pool: BufferPool | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.schema = schema
        self.device = device
        self.store = store if store is not None else MemoryBlobStore()
        self.key_prefix = key_prefix
        self.buffer_pool = buffer_pool
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: the current catalog; readers take this one reference, never a lock.
        self._head = CatalogVersion(0, {}, {})
        #: callbacks invoked (outside the mutex) after every commit, with the
        #: new catalog version.
        self._invalidation_hooks: List[Callable[[int], None]] = []
        #: serializes writers — commits, pins, prunes — against each other.
        self._mutex = threading.RLock()
        #: pid -> entry for partitions removed by a swap but kept readable so
        #: queries planned against an older version can still finish.
        self._retired: Dict[int, PartitionInfo] = {}
        #: commit log: ``(version, pids_added, infos_removed)`` per commit, in
        #: version order.  ``infos_removed`` holds the entries the commit
        #: took out of the catalog (retired, replaced in place, or re-sketched),
        #: so walking the log backwards from the head rebuilds any retained
        #: version exactly.
        self._history: List[Tuple[int, Tuple[int, ...], Tuple[PartitionInfo, ...]]] = []
        #: version -> (pinned value, number of :class:`CatalogSnapshot` pins).
        self._pins: Dict[int, Tuple[CatalogVersion, int]] = {}
        #: oldest version still reconstructible; raised by
        #: :meth:`prune_retired` when it reclaims blobs older versions need.
        self._floor_version = 0

    @property
    def head(self) -> CatalogVersion:
        """The current :class:`CatalogVersion`."""
        return self._head

    @property
    def catalog_version(self) -> int:
        """Bumped once per commit: swap, write batch or sketch attach."""
        return self._head.version

    # ------------------------------------------------------------- commits

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callback fired after every commit.

        Hooks receive the new catalog version and run outside the mutex
        (they may take their own locks but must not re-enter the manager's
        write path).  The semantic partition cache registers here to drop
        entries memoized against older versions.
        """
        with self._mutex:
            self._invalidation_hooks.append(hook)

    def _publish(self, head: CatalogVersion, added=(), removed=()) -> None:
        """Log the commit and make ``head`` current (mutex held)."""
        self._history.append((head.version, added, removed))
        self._head = head

    def _notify_invalidation(self, version: int) -> None:
        for hook in tuple(self._invalidation_hooks):
            hook(version)

    # -------------------------------------------------------- materialize

    def _key(self, pid: int) -> str:
        return f"{self.key_prefix}p{pid:06d}.jig"

    def _build_info(self, physical: PhysicalPartition, data: bytes) -> PartitionInfo:
        replica_attrs: frozenset = frozenset()
        for segment in physical.segments:
            if segment.replica:
                replica_attrs |= frozenset(segment.attributes)
        # ``n_bytes`` is the *accounted* size — the version-1-equivalent byte
        # count every simulated-I/O and footprint figure is calibrated to.
        # Checksum bytes exist in the file but charge nothing.
        info = PartitionInfo(
            pid=physical.pid,
            key=self._key(physical.pid),
            n_bytes=len(data) - checksum_overhead(len(physical.segments)),
            attributes=physical.attribute_set(),
            n_tuples=physical.n_tuples,
            zone_map=physical.zone_map(),
            segment_attrs=[tuple(s.attributes) for s in physical.segments],
            segment_tids=[np.sort(np.asarray(s.tuple_ids, dtype=np.int64))
                          for s in physical.segments],
            segment_tid_modes=[s.tid_storage for s in physical.segments],
            segment_replicas=[s.replica for s in physical.segments],
            replica_attributes=replica_attrs,
        )
        info.full_coverage_attrs = _full_coverage(info)
        return info

    def _verify_readable(self, info: PartitionInfo) -> StorageError | None:
        """Read a just-staged blob back through the fault path; None when a
        decode succeeds within the retry budget, else the last error."""
        last_error: StorageError | None = None
        catalog_tids = info.catalog_tids() or None
        for _attempt in range(self.retry_policy.max_attempts):
            try:
                data = self.store.get(info.key)
                deserialize_partition(data, self.schema, catalog_tids)
                return None
            except StorageError as exc:
                last_error = exc
        return last_error

    def swap_partitions(
        self,
        add: Sequence[PhysicalPartition],
        remove: Iterable[int] = (),
        verify: bool = False,
    ) -> List[PartitionInfo]:
        """Atomically make ``add`` visible and retire ``remove``.

        The one write path of the catalog: plain partition adds, in-place
        replaces (an added pid that already exists) and layout migrations are
        all expressed as one swap.  Every new partition file is *staged* —
        serialized and written to the blob store — before the catalog is
        touched; with ``verify`` each staged file is also read back and
        decoded (through the fault-injection path, within the retry budget).
        A staging failure rolls back every staged blob that did not overwrite
        a live partition and raises, leaving the old catalog fully intact —
        this is what makes migrations abort-safe.

        The commit itself is pure in-memory bookkeeping: the next
        :class:`CatalogVersion` is derived from the head — removed pids
        dropped from every index, added partitions appended — and published
        in one reference swap.  Removed pids move to the *retired* set (still
        served by :meth:`info`/:meth:`load` so in-flight queries planned
        against the old catalog can finish), and the buffer-pool entries of
        every touched pid are invalidated.  Call
        :meth:`prune_retired` to reclaim retired blobs once no old-version
        reader remains.
        """
        additions = list(add)
        removals = set(remove)
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._swap_partitions(additions, removals, verify)
        with tracer.span(
            "storage.swap",
            n_add=len(additions),
            n_remove=len(removals),
            verify=verify,
        ) as span:
            infos = self._swap_partitions(additions, removals, verify)
            span.set(
                catalog_version=self.catalog_version,
                bytes_written=sum(info.n_bytes for info in infos),
            )
        return infos

    def _swap_partitions(
        self, additions: List[PhysicalPartition], removals: Set[int], verify: bool
    ) -> List[PartitionInfo]:
        added_pids = {physical.pid for physical in additions}
        if len(added_pids) != len(additions):
            raise InvalidPartitioningError("swap adds the same pid twice")
        staged: List[PartitionInfo] = []
        overwritten = {
            physical.pid for physical in additions
            if physical.pid in self._head.infos or physical.pid in self._retired
        }
        try:
            for physical in additions:
                data = serialize_partition(physical, self.schema)
                info = self._build_info(physical, data)
                self.store.put(info.key, data)
                self.device.invalidate(info.key)
                staged.append(info)
            if verify:
                for info in staged:
                    error = self._verify_readable(info)
                    if error is not None:
                        raise StorageError(
                            f"staged partition {info.pid} ({info.key!r}) failed "
                            f"read-back verification: {error}"
                        )
        except Exception:
            # Roll back: delete staged blobs unless they overwrote a live
            # key (an in-place replace destroyed the old bytes on put —
            # deleting would only lose the readable copy we still have).
            for info in staged:
                if info.pid not in overwritten:
                    self.store.delete(info.key)
                    self.device.invalidate(info.key)
            raise

        # ------------------------------------------------------------ commit
        with self._mutex:
            head = self._head
            version = head.version + 1
            replaced = sorted(pid for pid in removals | added_pids if pid in head.infos)
            removed = tuple(head.infos[pid] for pid in replaced)
            for old in removed:
                if old.pid not in added_pids:
                    # Stamp the *retirement* version: a pruning pass with
                    # ``before_version=catalog_version`` then spares partitions
                    # retired by the current swap, so plans built just before
                    # the commit can still finish against them.  Retire before
                    # publishing, so a lock-free ``info`` never misses the pid.
                    self._retired[old.pid] = replace(old, version=version)
            for info in staged:
                info.version = version
            self._publish(
                head.patched(version, replaced, sorted(staged, key=lambda i: i.pid)),
                tuple(sorted(added_pids)),
                removed,
            )
            for pid in added_pids:
                self._retired.pop(pid, None)
            if self.buffer_pool is not None:
                for pid in sorted(set(replaced) | added_pids):
                    self.buffer_pool.invalidate(pid)
        self._notify_invalidation(version)
        return staged

    def add_partition(self, physical: PhysicalPartition) -> PartitionInfo:
        """Serialize one partition, write it, and index it."""
        return self.swap_partitions([physical])[0]

    def replace_partition(self, physical: PhysicalPartition) -> PartitionInfo:
        """Rewrite an existing partition (e.g. after adding replica segments)."""
        return self.swap_partitions([physical], remove=[physical.pid])[0]

    def prune_retired(self, before_version: int | None = None) -> int:
        """Drop retired partitions (catalog entries + blobs); returns count.

        A retired entry's ``version`` records the catalog version that
        retired it; ``before_version`` prunes only entries retired *before*
        that version (``info.version < before_version``), so passing the
        current catalog version spares the most recent swap's retirees.
        Defaults to everything retired.

        Pinned snapshots clamp the prune: an entry retired at version ``r``
        was still live at every version ``< r``, so while any snapshot pins
        a version ``< r`` the entry is spared regardless of
        ``before_version``.  Pruning an entry raises the manager's *floor* —
        versions below the floor can no longer be pinned (their blobs are
        gone), which is what :class:`~repro.errors.SnapshotUnavailableError`
        reports.
        """
        with self._mutex:
            min_pinned = min(self._pins) if self._pins else None
            doomed = []
            for pid in sorted(self._retired):
                retired_at = self._retired[pid].version
                if before_version is not None and retired_at >= before_version:
                    continue
                if min_pinned is not None and retired_at > min_pinned:
                    continue
                doomed.append(self._retired.pop(pid))
            if doomed:
                self._floor_version = max(
                    self._floor_version,
                    max(info.version for info in doomed),
                )
                # Commits at or below the floor can no longer be replayed
                # (their retirees' blobs are gone) — trim the log.
                self._history = [
                    entry for entry in self._history
                    if entry[0] > self._floor_version
                ]
        for info in doomed:
            self.store.delete(info.key)
            self.device.invalidate(info.key)
            if self.buffer_pool is not None:
                self.buffer_pool.invalidate(info.pid)
        return len(doomed)

    # ---------------------------------------------------------- snapshots

    def advance_version(self) -> int:
        """Commit a version bump with no catalog change.

        The write path calls this when a delta-segment commit changes what a
        scan must return without touching any base partition: the catalog
        version is the transaction timeline, so every committed batch of
        writes gets its own pinnable version.  The new value shares every map
        with the previous head.
        """
        with self._mutex:
            head = self._head.advanced(self._head.version + 1)
            self._publish(head)
        self._notify_invalidation(head.version)
        return head.version

    def pin_snapshot(self, version: int | None = None) -> "CatalogSnapshot":
        """Pin a refcounted lease on the catalog value at ``version``.

        Defaults to the current version, whose value is the head itself; an
        older version's value is rebuilt from the commit log.  Every pin of
        one version shares one value.  While pinned, :meth:`prune_retired`
        spares every retired partition the snapshot still needs.  Release
        with :meth:`CatalogSnapshot.release` (or use it as a context manager).

        Raises :class:`~repro.errors.SnapshotUnavailableError` for future
        versions and for versions below the prune floor.
        """
        with self._mutex:
            head = self._head
            version = head.version if version is None else int(version)
            if version > head.version:
                raise SnapshotUnavailableError(
                    f"cannot pin catalog version {version}: "
                    f"current version is {head.version}"
                )
            if version < self._floor_version:
                raise SnapshotUnavailableError(
                    f"cannot pin catalog version {version}: retired "
                    f"partitions below version {self._floor_version} were "
                    f"already pruned"
                )
            catalog, count = self._pins.get(version, (None, 0))
            if catalog is None:
                catalog = head if version == head.version else self._rebuild(version)
            self._pins[version] = (catalog, count + 1)
        return CatalogSnapshot(self, catalog)

    def _rebuild(self, version: int) -> CatalogVersion:
        """The value the head had at ``version``: undo the logged commits
        after it, newest first (mutex held)."""
        infos = dict(self._head.infos)
        for commit_version, added, removed in reversed(self._history):
            if commit_version <= version:
                break
            for pid in added:
                del infos[pid]
            infos.update((info.pid, info) for info in removed)
        return CatalogVersion.build(version, infos.values())

    def release_snapshot(self, snapshot: "CatalogSnapshot") -> None:
        """Drop one pin on ``snapshot``'s version (idempotence is the
        snapshot's job — :meth:`CatalogSnapshot.release` only calls once)."""
        with self._mutex:
            catalog, count = self._pins.get(snapshot.version, (None, 0))
            if count <= 1:
                self._pins.pop(snapshot.version, None)
            else:
                self._pins[snapshot.version] = (catalog, count - 1)

    def snapshot_refcount(self) -> int:
        """Total outstanding snapshot pins across all versions."""
        with self._mutex:
            return sum(count for _catalog, count in self._pins.values())

    def pinned_versions(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._pins))

    def floor_version(self) -> int:
        """Oldest catalog version that can still be pinned."""
        return self._floor_version

    def next_pid(self) -> int:
        """Smallest pid never used by an active or retired partition."""
        with self._mutex:
            used = set(self._head.infos) | set(self._retired)
        return max(used, default=-1) + 1

    def materialize_plan(
        self,
        plan: PartitioningPlan,
        table: ColumnTable,
        tid_storage: str = TID_EXPLICIT,
    ) -> List[PartitionInfo]:
        """Resolve every logical partition against the data and store it."""
        return [
            self.add_partition(physical_from_logical(partition, table, tid_storage))
            for partition in plan
        ]

    def materialize_specs(
        self,
        spec_groups: Sequence[Sequence[SegmentSpec]],
        table: ColumnTable,
        tid_storage: str = TID_CATALOG,
    ) -> List[PartitionInfo]:
        """Materialize explicit tuple-assignment partitions (baselines)."""
        infos = []
        for pid, specs in enumerate(spec_groups):
            physical = build_physical_partition(pid, specs, table, tid_storage)
            infos.append(self.add_partition(physical))
        return infos

    # -------------------------------------------------------------- reads

    def load(
        self,
        pid: int,
        chunk_size: int | None = None,
        columns: Set[str] | frozenset | None = None,
    ) -> Tuple[PhysicalPartition, "IOStats"]:
        """Read a partition file, charging simulated device time.

        Returns ``(partition, io_delta)`` where ``io_delta`` holds exactly
        what this read cost: bytes and simulated seconds when it reached the
        device, a cache hit when the simulated OS buffer cache served it, or
        a pool hit when the buffer pool held the deserialized partition (no
        device charge, no decode work).

        ``columns`` is the projection pushdown: when given, cell decoding is
        lazy and only the named attributes are materialized eagerly; any
        other column still decodes transparently on first access.  Simulated
        byte/time accounting is unaffected — the whole file is still charged
        on a device read, as the row-major format offers no byte-level skip.

        Reads are fault tolerant: a failed fetch or a corrupt file (bad
        magic, truncation, checksum mismatch) is retried up to
        ``retry_policy.max_attempts`` times with exponential *simulated*
        backoff charged to the returned delta.  A partition that stays
        unreadable raises :class:`PartitionUnreadableError` carrying the
        accumulated ``io_delta``, and any pooled copy is invalidated so a
        stale object can never be served after a failed refresh.
        """
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._load(pid, chunk_size, columns)
        with tracer.span("storage.load", pid=pid) as span:
            partition, delta = self._load(pid, chunk_size, columns)
            span.sim_io_s = delta.io_time_s
            span.set(
                bytes_read=delta.bytes_read,
                pool_hit=delta.n_pool_hits > 0,
                cache_hit=delta.n_cache_hits > 0,
                n_retries=delta.n_retries,
            )
        return partition, delta

    def _load(
        self,
        pid: int,
        chunk_size: int | None = None,
        columns: Set[str] | frozenset | None = None,
    ) -> Tuple[PhysicalPartition, "IOStats"]:
        info = self.info(pid)
        pool = self.buffer_pool
        if pool is not None:
            partition = pool.get(pid)
            if partition is not None:
                return partition, IOStats(n_pool_hits=1, pool_hit_bytes=info.n_bytes)
        policy = self.retry_policy
        delta = IOStats()
        drain_latency = getattr(self.store, "consume_injected_latency", None)
        last_error: StorageError | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delta.n_retries += 1
                delta.io_time_s += policy.delay_s(attempt - 1)
            try:
                data = self.store.get(info.key)
            except StorageError as exc:
                if drain_latency is not None:
                    delta.io_time_s += drain_latency(info.key)
                last_error = exc
                continue
            # Bytes flowed, so the device charge applies even if the payload
            # turns out corrupt; the accounted size is the v1-equivalent one.
            delta.add(self.device.read_delta(info.key, info.n_bytes, chunk_size=chunk_size))
            if drain_latency is not None:
                delta.io_time_s += drain_latency(info.key)
            decode_columns = columns
            if pool is not None and decode_columns is None:
                # A pooled partition must be able to serve *any* later
                # projection, so decode lazily even for full loads.
                decode_columns = frozenset()
            try:
                partition = deserialize_partition(
                    data, self.schema, info.catalog_tids() or None,
                    columns=decode_columns,
                )
            except StorageError as exc:
                # Corrupt on the wire or at rest: never cache, maybe retry.
                self.device.invalidate(info.key)
                last_error = exc
                continue
            if pool is not None:
                pool.put(pid, partition, info.n_bytes)
            return partition, delta
        if pool is not None:
            pool.invalidate(pid)
        raise PartitionUnreadableError(
            f"partition {pid} ({info.key!r}) unreadable after "
            f"{policy.max_attempts} attempts: {last_error}",
            pid=pid,
            io_delta=delta,
        ) from last_error

    # ----------------------------------------------------------- sketches

    def attach_sketches(
        self, pid: int, sketches: Optional[SketchSet], persist: bool = True
    ) -> None:
        """Attach (or clear, with ``None``) a partition's sketch set.

        Sketches change pruning verdicts, so attaching commits a new catalog
        version.  With ``persist`` the sketches are first written into the
        blob's format-v2 trailer, replacing any previous one, so a rebuilt
        catalog can recover them via :meth:`load_sketches`.  The accounted
        ``n_bytes`` is untouched: like checksum overhead, the trailer exists
        in the file but charges nothing — attaching sketches must not
        perturb simulated I/O accounting.
        """
        if persist:
            key = self._head.info(pid).key
            data = strip_trailer(self.store.get(key))
            if sketches is not None:
                data = append_trailer(data, sketches.to_bytes())
            self.store.put(key, data)
            self.device.invalidate(key)
        self._commit_sketches(pid, sketches)

    def load_sketches(self, pid: int) -> Optional[SketchSet]:
        """Recover a partition's sketches from its blob trailer (catalog
        metadata path: reads raw bytes, charges no simulated I/O) and commit
        them as a new catalog version."""
        payload = read_trailer(self.store.get(self._head.info(pid).key))
        sketches = SketchSet.from_bytes(payload) if payload is not None else None
        self._commit_sketches(pid, sketches)
        return sketches

    def _commit_sketches(self, pid: int, sketches: Optional[SketchSet]) -> None:
        with self._mutex:
            head = self._head
            old = head.info(pid)
            head = head.advanced(head.version + 1, replace(old, sketches=sketches))
            self._publish(head, (pid,), (old,))
        self._notify_invalidation(head.version)

    # ------------------------------------------------ indexes (lock-free)

    def info(self, pid: int) -> PartitionInfo:
        """Catalog entry for an active — or retired but unpruned — pid."""
        entry = self._head.infos.get(pid)
        if entry is None:
            entry = self._retired.get(pid)
            if entry is None:
                raise PartitionNotFoundError(f"no partition with id {pid}")
        return entry

    def pids(self) -> Tuple[int, ...]:
        return self._head.pids()

    def retired_pids(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._retired))

    def partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        return self._head.partitions_for_attribute(attribute)

    def replica_partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        return self._head.replica_partitions_for_attribute(attribute)

    def partitions_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        return self._head.partitions_for_attributes(attributes)

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        return self._head.partitions_with_missing_cells(attribute, tids)

    def total_bytes(self) -> int:
        """Total stored bytes across all partitions (storage footprint)."""
        return sum(info.n_bytes for info in self._head.infos.values())

    def __len__(self) -> int:
        return len(self._head)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionManager({len(self)} partitions, "
            f"{self.total_bytes()} bytes, device={self.device.profile.name!r})"
        )


class CatalogSnapshot:
    """A refcounted pin on one :class:`CatalogVersion`, whose index methods
    serve a pinned plan.  Retired partitions the snapshot still references
    remain loadable — pinning clamps :meth:`PartitionManager.prune_retired`.

    ``valid_mask`` is an optional dense boolean array over the tuple-id
    domain set by the transactional layer: True for tids a *base* scan may
    return at this version (delta-only tids and compaction-dropped tids are
    False).  Engines consult it on their no-WHERE fast paths; ``None`` (the
    default, and always the case outside the write path) preserves the
    read-only engines' exact seed behavior.

    One-shot visibility note: in-place :meth:`PartitionManager
    .replace_partition` overwrites the old blob's bytes, so snapshots are
    only guaranteed across fresh-pid swaps — which is what the adaptive
    repartitioner and the delta compactor emit.
    """

    __slots__ = ("manager", "catalog", "valid_mask", "_released")

    def __init__(self, manager: PartitionManager, catalog: CatalogVersion):
        self.manager = manager
        self.catalog = catalog
        self.valid_mask: Optional[np.ndarray] = None
        self._released = False

    @property
    def version(self) -> int:
        return self.catalog.version

    @property
    def pids(self) -> frozenset:
        return frozenset(self.catalog.infos)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.manager.release_snapshot(self)

    def __enter__(self) -> "CatalogSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def info(self, pid: int) -> PartitionInfo:
        return self.catalog.info(pid)

    def partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        return self.catalog.partitions_for_attribute(attribute)

    def partitions_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        return self.catalog.partitions_for_attributes(attributes)

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        return self.catalog.partitions_with_missing_cells(attribute, tids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CatalogSnapshot(version={self.version}, {len(self.catalog)} partitions)"
