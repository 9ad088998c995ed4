"""Differential tests for the tuple-level index's owner arrays.

Random commit sequences build catalogs with overlapping partitions (tids
with several primary homes), replica-only segments and in-place replaces
that append a replica.  After every commit the head, and every version
pinned along the way, must answer
:meth:`~repro.storage.CatalogVersion.partitions_with_missing_cells` exactly
as a brute-force oracle over the catalog entries does, for probes that are
empty, unsorted, duplicated or reach past every owned tid.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TableSchema
from repro.storage import (
    BALOS_HDD,
    TID_CATALOG,
    ColumnTable,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    build_physical_partition,
)
from repro.storage.physical import PhysicalSegment

ATTRS = ("a1", "a2", "a3")
N_TUPLES = 40


def _table() -> ColumnTable:
    columns = {
        name: (np.arange(N_TUPLES) * (i + 1)).astype(np.int32)
        for i, name in enumerate(ATTRS)
    }
    return ColumnTable.build("T", TableSchema.uniform(list(ATTRS)), columns)


def oracle(catalog, attribute, probe):
    """Every pid of ``partitions_for_attribute`` with a non-replica segment
    holding ``attribute`` for a probed tid, in that order."""
    wanted = set(np.asarray(probe).tolist())
    return tuple(
        pid for pid in catalog.partitions_for_attribute(attribute)
        if any(
            not replica and attribute in attrs and wanted & set(tids.tolist())
            for attrs, tids, replica in zip(
                catalog.info(pid).segment_attrs,
                catalog.info(pid).segment_tids,
                catalog.info(pid).segment_replicas,
            )
        )
    )


def _tid_range(data):
    lo = data.draw(st.integers(0, N_TUPLES - 1))
    hi = data.draw(st.integers(lo + 1, N_TUPLES))
    return np.arange(lo, hi, dtype=np.int64)


def _replica(table, attribute, tids):
    return PhysicalSegment(
        attributes=(attribute,),
        tuple_ids=tids,
        columns=table.gather((attribute,), tids),
        tid_storage=TID_CATALOG,
        replica=True,
    )


def _draw_partition(data, table, pid):
    specs = [
        SegmentSpec(
            tuple(data.draw(st.lists(st.sampled_from(ATTRS), min_size=1,
                                     max_size=2, unique=True))),
            _tid_range(data),
        )
        for _ in range(data.draw(st.integers(1, 2)))
    ]
    physical = build_physical_partition(pid, specs, table, TID_CATALOG)
    # Replica segments over arbitrary tids: primary elsewhere, or nowhere.
    for _ in range(data.draw(st.integers(0, 1))):
        attribute = data.draw(st.sampled_from(ATTRS))
        physical.segments.append(_replica(table, attribute, _tid_range(data)))
    return physical


def _commit(data, manager, table):
    live = manager.pids()
    op = data.draw(st.sampled_from(["swap", "replace", "advance"] if live else ["swap"]))
    if op == "swap":
        start = manager.next_pid()
        adds = [_draw_partition(data, table, start + k)
                for k in range(data.draw(st.integers(1, 3)))]
        remove = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        manager.swap_partitions(adds, remove=remove)
    elif op == "replace":
        # The limited-replication rewrite: one appended replica segment.
        pid = data.draw(st.sampled_from(live))
        partition, _io = manager.load(pid)
        attribute = data.draw(st.sampled_from(ATTRS))
        partition.segments.append(
            _replica(table, attribute, manager.info(pid).tuple_ids())
        )
        manager.replace_partition(partition)
    else:
        manager.advance_version()


probes = st.lists(st.integers(0, N_TUPLES + 8), max_size=12).map(
    lambda tids: np.array(tids, dtype=np.int64)
)


def _check(catalog, probe_list):
    for attribute in ATTRS:
        for probe in probe_list:
            expected = oracle(catalog, attribute, probe)
            assert catalog.partitions_with_missing_cells(attribute, probe) == expected


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_owner_arrays_match_the_oracle_at_every_version(data):
    table = _table()
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    probe_list = data.draw(st.lists(probes, min_size=1, max_size=4))
    probe_list.append(np.arange(N_TUPLES, dtype=np.int64))
    pinned = []
    try:
        for _ in range(data.draw(st.integers(1, 6))):
            _commit(data, manager, table)
            # Query the head first, so its memo is filled before the next
            # commit derives a value from it.
            _check(manager.head, probe_list)
            if data.draw(st.booleans()):
                pinned.append(manager.pin_snapshot())
        for snapshot in pinned:
            _check(snapshot.catalog, probe_list)
    finally:
        for snapshot in pinned:
            snapshot.release()


def _manager_with(table, *specs_by_pid):
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.swap_partitions([
        build_physical_partition(pid, specs, table, TID_CATALOG)
        for pid, specs in enumerate(specs_by_pid)
    ])
    return manager


def test_multi_home_tids_resolve_through_the_overflow():
    table = _table()
    manager = _manager_with(
        table,
        [SegmentSpec(("a1",), np.arange(0, 20))],
        [SegmentSpec(("a1",), np.arange(10, 30))],
        [SegmentSpec(("a1",), np.arange(15, 25))],
    )
    owners, overflow_tids, overflow_slots = manager.head._owner_index(
        "a1", manager.partitions_for_attribute("a1")
    )
    assert set(np.unique(owners[10:25])) == {1}
    assert list(zip(overflow_tids[:2], overflow_slots[:2])) == [(10, 0), (10, 1)]
    assert manager.partitions_with_missing_cells("a1", np.array([12])) == (0, 1)
    assert manager.partitions_with_missing_cells("a1", np.array([16, 5])) == (0, 1, 2)
    assert manager.partitions_with_missing_cells("a1", np.array([29, 99])) == (1,)


def test_pinned_version_keeps_its_own_owners_after_a_swap():
    table = _table()
    manager = _manager_with(
        table,
        [SegmentSpec(("a1",), np.arange(0, 20))],
        [SegmentSpec(("a3",), np.arange(0, 20))],
    )
    probe = np.array([5], dtype=np.int64)
    with manager.pin_snapshot() as old:
        assert old.partitions_with_missing_cells("a1", probe) == (0,)
        assert old.partitions_with_missing_cells("a3", probe) == (1,)
        manager.swap_partitions(
            [build_physical_partition(
                2, [SegmentSpec(("a1",), np.arange(0, 10))], table, TID_CATALOG
            )],
            remove=[0],
        )
        assert manager.partitions_with_missing_cells("a1", probe) == (2,)
        assert old.partitions_with_missing_cells("a1", probe) == (0,)
        assert manager.head._owners["a1"] is not old.catalog._owners["a1"]
        # The swap did not touch a3, so the new head reuses its owner array.
        assert manager.head._owners["a3"] is old.catalog._owners["a3"]


def test_racing_readers_build_exact_owner_arrays():
    """Readers fill the memo of whichever value they took while a writer
    derives new values from it; every answer must still match the oracle."""
    table = _table()
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    probe = np.array([3, 17, 29, 31, 3], dtype=np.int64)

    def partition(pid):
        # Consecutive pids overlap, so most tids have two primary homes.
        lo = (pid * 7) % (N_TUPLES - 12)
        return build_physical_partition(
            pid,
            [SegmentSpec((ATTRS[pid % 3], ATTRS[(pid + 1) % 3]), np.arange(lo, lo + 12))],
            table,
            TID_CATALOG,
        )

    manager.swap_partitions([partition(0), partition(1)])
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                head = manager.head
                for attribute in ATTRS:
                    assert head.partitions_with_missing_cells(attribute, probe) == oracle(
                        head, attribute, probe
                    )
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def writer():
        try:
            for _ in range(100):
                pid = manager.next_pid()
                manager.swap_partitions([partition(pid)], remove=manager.pids()[:1])
                manager.advance_version()
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
