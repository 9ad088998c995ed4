"""Property tests for the immutable per-version catalog.

Random commit sequences — fresh-pid swaps, in-place replaces, bare version
bumps, sketch attaches and prunes — run against one manager, and the head's
index answers are recorded at every commit.  Afterwards every version still
above the prune floor must answer exactly the same through
:meth:`~repro.storage.PartitionManager.pin_snapshot`: the same pids in the
same order, and the very same catalog entries.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TableSchema
from repro.errors import SnapshotUnavailableError
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
from repro.storage.sketches import DictSketch, SketchSet

ATTRS = ("a1", "a2", "a3", "a4")
N_TUPLES = 48
PROBES = tuple(np.arange(lo, lo + 12, dtype=np.int64) for lo in range(0, N_TUPLES, 12))
ATTR_SETS = (("a1",), ("a2", "a3"), ATTRS)


def _table() -> ColumnTable:
    columns = {
        name: (np.arange(N_TUPLES) * (i + 1)).astype(np.int32)
        for i, name in enumerate(ATTRS)
    }
    return ColumnTable.build("T", TableSchema.uniform(list(ATTRS)), columns)


def _answers(index, pids):
    """Everything a plan can ask an index, in the order it answers."""
    return (
        tuple(pids),
        tuple(index.partitions_for_attribute(a) for a in ATTRS),
        tuple(index.partitions_for_attributes(s) for s in ATTR_SETS),
        tuple(
            index.partitions_with_missing_cells(a, probe)
            for a in ATTRS for probe in PROBES
        ),
    )


def _draw_partition(data, table, pid):
    specs = []
    for _ in range(data.draw(st.integers(1, 2))):
        lo = data.draw(st.integers(0, N_TUPLES - 1))
        hi = data.draw(st.integers(lo + 1, N_TUPLES))
        attrs = data.draw(
            st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3, unique=True)
        )
        specs.append(SegmentSpec(tuple(attrs), np.arange(lo, hi, dtype=np.int64)))
    return build_physical_partition(pid, specs, table, TID_CATALOG)


def _commit(data, manager, table):
    live = manager.pids()
    ops = ["swap", "advance"] + (["replace", "sketch", "prune"] if live else [])
    op = data.draw(st.sampled_from(ops))
    if op == "swap":
        start = manager.next_pid()
        adds = [
            _draw_partition(data, table, start + k)
            for k in range(data.draw(st.integers(0, 3)))
        ]
        remove = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        manager.swap_partitions(data.draw(st.permutations(adds)), remove=remove)
    elif op == "replace":
        # The limited-replication rewrite: one appended replica segment.
        pid = data.draw(st.sampled_from(live))
        partition, _io = manager.load(pid)
        attribute = data.draw(st.sampled_from(ATTRS))
        tids = manager.info(pid).tuple_ids()
        partition.segments.append(PhysicalSegment(
            attributes=(attribute,),
            tuple_ids=tids,
            columns=table.gather((attribute,), tids),
            tid_storage=TID_CATALOG,
            replica=True,
        ))
        manager.replace_partition(partition)
    elif op == "advance":
        manager.advance_version()
    elif op == "sketch":
        pid = data.draw(st.sampled_from(live))
        attribute = sorted(manager.info(pid).attributes)[0]
        values = np.unique(table.column(attribute)).astype(np.float64)
        manager.attach_sketches(
            pid, SketchSet(by_attr={attribute: DictSketch(attribute, values)})
        )
    else:
        before = data.draw(st.none() | st.integers(0, manager.catalog_version + 1))
        manager.prune_retired(before_version=before)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_pinnable_version_answers_as_the_head_did(data):
    table = _table()
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    recorded = {}  # version -> (answers, catalog entries)

    def record():
        pids = manager.pids()
        recorded[manager.catalog_version] = (
            _answers(manager, pids),
            [manager.info(pid) for pid in pids],
        )

    record()
    for _ in range(data.draw(st.integers(1, 10))):
        version = manager.catalog_version
        _commit(data, manager, table)
        if manager.catalog_version != version:
            record()

    head = manager.head
    for version, (answers, infos) in recorded.items():
        if version < manager.floor_version():
            with pytest.raises(SnapshotUnavailableError):
                manager.pin_snapshot(version)
            continue
        with manager.pin_snapshot(version) as snapshot, \
                manager.pin_snapshot(version) as twin:
            pids = tuple(sorted(snapshot.pids))
            assert _answers(snapshot, pids) == answers
            assert all(
                snapshot.info(pid) is info for pid, info in zip(pids, infos)
            )
            # Pins of one version share one value; the current one is the head.
            assert twin.catalog is snapshot.catalog
            assert (snapshot.catalog is head) == (version == head.version)
    assert manager.snapshot_refcount() == 0


def test_lock_free_reads_race_commits():
    """Readers never lock: every pid any head lists must still resolve
    through ``info`` (live or retired) while a writer commits, and pins
    taken and dropped concurrently must balance."""
    table = _table()
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    tids = np.arange(N_TUPLES, dtype=np.int64)

    def partition(pid):
        attrs = (ATTRS[pid % len(ATTRS)], ATTRS[(pid + 1) % len(ATTRS)])
        return build_physical_partition(
            pid, [SegmentSpec(attrs, tids)], table, TID_CATALOG
        )

    manager.swap_partitions([partition(0), partition(1)])
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                head = manager.head
                for attribute in ATTRS:
                    for pid in head.partitions_with_missing_cells(attribute, PROBES[0]):
                        assert attribute in manager.info(pid).attributes
                with manager.pin_snapshot() as snapshot:
                    assert snapshot.version <= manager.catalog_version
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def writer():
        try:
            for _ in range(150):
                live = manager.pids()
                manager.swap_partitions([partition(manager.next_pid())], remove=live[:1])
                manager.advance_version()
                manager.attach_sketches(manager.pids()[-1], None, persist=False)
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
    assert manager.snapshot_refcount() == 0
