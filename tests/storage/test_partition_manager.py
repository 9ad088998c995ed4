"""Unit tests for the partition manager and its two indexes."""

import numpy as np
import pytest

from repro.core import CostModel, IOModel, JigsawPartitioner, PartitionerConfig
from repro.errors import PartitionNotFoundError, StorageError
from repro.storage import (
    BALOS_HDD,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    checksum_overhead,
)


@pytest.fixture()
def manager(small_table):
    device = StorageDevice(BALOS_HDD)
    return PartitionManager(small_table.schema, device)


def materialize_two_partitions(manager, small_table):
    n = small_table.n_tuples
    first_half = np.arange(n // 2, dtype=np.int64)
    second_half = np.arange(n // 2, n, dtype=np.int64)
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2"), first_half)],
            [SegmentSpec(("a1", "a3"), second_half)],
        ],
        small_table,
        tid_storage=TID_CATALOG,
    )


class TestMaterializeAndLoad:
    def test_load_roundtrip_charges_io(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        partition, io_delta = manager.load(0)
        assert io_delta.io_time_s > 0
        assert io_delta.bytes_read == manager.info(0).n_bytes
        assert manager.device.stats.bytes_read == manager.info(0).n_bytes
        segment = partition.segments[0]
        assert np.array_equal(
            segment.columns["a1"], small_table.column("a1")[segment.tuple_ids]
        )

    def test_unknown_pid_raises(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        with pytest.raises(PartitionNotFoundError):
            manager.load(99)
        with pytest.raises(PartitionNotFoundError):
            manager.info(99)

    def test_total_bytes_matches_store(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        # The catalog accounts v1-equivalent sizes so the simulated I/O cost
        # of a layout is unchanged by the v2 checksums; physical files are
        # bigger by exactly the per-partition CRC overhead.
        overhead = sum(
            checksum_overhead(len(manager.info(pid).segment_tids))
            for pid in manager.pids()
        )
        assert manager.total_bytes() + overhead == manager.store.total_bytes()

    def test_materialize_plan_covers_all_cells(self, small_table, small_workload):
        cost_model = CostModel(small_table.meta, IOModel.from_throughput(75, 0.001))
        tuner = JigsawPartitioner(
            cost_model,
            PartitionerConfig(min_size=1024, max_size=1 << 20, selection_enabled=False),
        )
        plan = tuner.partition(small_table.meta, small_workload)
        manager = PartitionManager(small_table.schema, StorageDevice(BALOS_HDD))
        infos = manager.materialize_plan(plan, small_table)
        cells = sum(
            len(attrs) * len(tids)
            for info in infos
            for attrs, tids in zip(info.segment_attrs, info.segment_tids)
        )
        assert cells == small_table.n_tuples * len(small_table.schema)


class TestIndexes:
    def test_attribute_level_index(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        assert set(manager.partitions_for_attribute("a1")) == {0, 1}
        assert manager.partitions_for_attribute("a2") == (0,)
        assert manager.partitions_for_attribute("a3") == (1,)
        assert manager.partitions_for_attribute("a6") == ()

    def test_partitions_for_attributes_union(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        assert manager.partitions_for_attributes(["a2", "a3"]) == (0, 1)

    def test_tuple_level_index(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        n = small_table.n_tuples
        low_tids = np.array([0, 1], np.int64)
        high_tids = np.array([n - 1], np.int64)
        assert manager.partitions_with_missing_cells("a2", low_tids) == (0,)
        assert manager.partitions_with_missing_cells("a2", high_tids) == ()
        assert manager.partitions_with_missing_cells("a3", high_tids) == (1,)

    def test_tuple_index_with_empty_request(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        empty = np.empty(0, np.int64)
        assert manager.partitions_with_missing_cells("a1", empty) == ()

    def test_tuple_index_multi_home(self, manager, small_table):
        # Overlapping partitions give tids 100..199 two primary homes.
        manager.materialize_specs(
            [
                [SegmentSpec(("a1",), np.arange(0, 200))],
                [SegmentSpec(("a1", "a2"), np.arange(100, 300))],
            ],
            small_table,
        )
        both = np.array([150], np.int64)
        assert manager.partitions_with_missing_cells("a1", both) == (0, 1)
        assert manager.partitions_with_missing_cells("a1", np.array([250, 50])) == (0, 1)
        assert manager.partitions_with_missing_cells("a1", np.array([250])) == (1,)
        assert manager.partitions_with_missing_cells("a2", both) == (1,)

    def test_tuple_index_ignores_replica_segments(self, manager, small_table):
        from repro.storage.physical import PhysicalSegment

        materialize_two_partitions(manager, small_table)
        n = small_table.n_tuples
        high_tids = np.arange(n // 2, n, dtype=np.int64)
        # Replicate a2 of the second half into partition 0: a2 stays primary
        # there for the first half only.
        partition, _io = manager.load(0)
        partition.segments.append(PhysicalSegment(
            attributes=("a2",),
            tuple_ids=high_tids,
            columns=small_table.gather(("a2",), high_tids),
            tid_storage=TID_CATALOG,
            replica=True,
        ))
        manager.replace_partition(partition)
        assert manager.replica_partitions_for_attribute("a2") == ()
        assert manager.partitions_with_missing_cells("a2", high_tids) == ()
        assert manager.partitions_with_missing_cells("a2", np.array([0, n - 1])) == (0,)

    def test_owner_arrays_of_a_wide_table_are_uint8(self):
        from repro import Query, TableSchema, Workload
        from repro.layouts import BuildContext, IrregularLayout
        from repro.storage import ColumnTable, DeviceProfile

        rng = np.random.default_rng(0)
        names = [f"a{i}" for i in range(1, 25)]
        columns = {name: rng.integers(0, 100_000, 6_000).astype(np.int32) for name in names}
        table = ColumnTable.build("T", TableSchema.uniform(names), columns)
        wide = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
        train = Workload(table.meta, [
            Query.build(table.meta, wide, {"a1": (0, 9_999)}),
            Query.build(table.meta, wide, {"a8": (90_000, 99_999)}),
            Query.build(table.meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
        ])
        ctx = BuildContext(
            device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
            file_segment_bytes=16 * 1024,
        )
        head = IrregularLayout().build(table, train, ctx).manager.head
        all_tids = np.arange(table.n_tuples, dtype=np.int64)
        for name in names:
            pids = head.partitions_for_attribute(name)
            assert 0 < len(pids) <= 254
            assert head.partitions_with_missing_cells(name, all_tids) == pids
            assert head._owners[name][0].dtype == np.uint8, name

    def test_info_exposes_zone_maps(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        info = manager.info(0)
        lo, hi = info.zone_map["a1"]
        half = small_table.column("a1")[: small_table.n_tuples // 2]
        assert lo == half.min() and hi == half.max()


def _physical_halves(small_table, pids=(0, 1)):
    from repro.storage import TID_EXPLICIT, build_physical_partition

    n = small_table.n_tuples
    first = np.arange(n // 2, dtype=np.int64)
    second = np.arange(n // 2, n, dtype=np.int64)
    return (
        build_physical_partition(
            pids[0], [SegmentSpec(("a1", "a2"), first)], small_table, TID_EXPLICIT
        ),
        build_physical_partition(
            pids[1], [SegmentSpec(("a1", "a3"), second)], small_table, TID_EXPLICIT
        ),
    )


class TestSwapPartitions:
    def test_swap_bumps_version_once(self, manager, small_table):
        left, right = _physical_halves(small_table)
        infos = manager.swap_partitions([left, right])
        assert manager.catalog_version == 1
        assert [info.version for info in infos] == [1, 1]

    def test_swap_retires_removed_pids(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        replacement, _ = _physical_halves(small_table, pids=(2, 3))
        replacement = type(replacement)(
            pid=2, segments=replacement.segments
        )
        manager.swap_partitions([replacement], remove=[0, 1])
        assert manager.pids() == (2,)
        assert manager.retired_pids() == (0, 1)
        # Retired partitions stay readable for in-flight queries...
        assert manager.info(0).pid == 0
        partition, _delta = manager.load(0)
        assert partition.pid == 0
        # ...but vanish from every index new plans consult.
        assert 0 not in manager.partitions_for_attribute("a2")
        assert manager.partitions_for_attribute("a2") == (2,)

    def test_swap_rejects_duplicate_added_pids(self, manager, small_table):
        from repro.errors import InvalidPartitioningError

        left, _right = _physical_halves(small_table)
        with pytest.raises(InvalidPartitioningError):
            manager.swap_partitions([left, left])

    def test_in_place_replace_is_not_retired(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        manager.replace_partition(left)
        assert manager.retired_pids() == ()
        assert manager.catalog_version == 2
        assert manager.info(0).version == 2

    def test_prune_retired_reclaims_blobs(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        fresh, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh], remove=[0, 1])
        keys = {manager.info(pid).key for pid in (0, 1)}
        assert manager.prune_retired() == 2
        assert manager.retired_pids() == ()
        remaining = set(manager.store.keys())
        assert not (keys & remaining)
        with pytest.raises(PartitionNotFoundError):
            manager.info(0)

    def test_prune_retired_respects_version_floor(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])           # version 1
        fresh0, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh0], remove=[0])    # version 2, retires 0
        fresh1, _ = _physical_halves(small_table, pids=(3, 4))
        manager.swap_partitions([fresh1], remove=[1])    # version 3, retires 1
        # Retired entries are stamped with the version that retired them:
        # pruning below the current version spares the latest swap's retiree
        # (pid 1, retired at v3) so in-flight v2 readers can finish.
        assert manager.info(0).version == 2 and manager.info(1).version == 3
        assert manager.prune_retired(before_version=3) == 1
        assert manager.retired_pids() == (1,)
        assert manager.prune_retired() == 1
        assert manager.retired_pids() == ()

    def test_next_pid_skips_retired(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        fresh, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh], remove=[0, 1])
        assert manager.next_pid() == 3

    def test_failed_staging_rolls_back_new_blobs(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left])
        n_keys_before = len(list(manager.store.keys()))

        put = manager.store.put
        calls = {"n": 0}

        def failing_put(key, data):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise StorageError("disk full")
            put(key, data)

        manager.store.put = failing_put
        fresh_left, fresh_right = _physical_halves(small_table, pids=(5, 6))
        with pytest.raises(StorageError):
            manager.swap_partitions([fresh_left, fresh_right], remove=[0])
        manager.store.put = put
        # Old catalog fully intact; the staged pid-5 blob was rolled back.
        assert manager.pids() == (0,)
        assert manager.retired_pids() == ()
        assert manager.catalog_version == 1
        assert len(list(manager.store.keys())) == n_keys_before
        partition, _delta = manager.load(0)
        assert partition.pid == 0

    def test_verify_failure_aborts_and_keeps_old_layout(self, small_table):
        from repro.storage import FaultConfig, FaultInjectingBlobStore, MemoryBlobStore

        device = StorageDevice(BALOS_HDD)
        inner = MemoryBlobStore()
        manager = PartitionManager(small_table.schema, device, store=inner)
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left])
        # Every get of the would-be pid-7 key fails: verification must abort.
        key = manager._key(7)
        manager.store = FaultInjectingBlobStore(
            inner, seed=1,
            overrides={key: FaultConfig(transient_error_rate=1.0)},
        )
        fresh = type(right)(pid=7, segments=right.segments)
        with pytest.raises(StorageError, match="read-back verification"):
            manager.swap_partitions([fresh], remove=[0], verify=True)
        assert manager.pids() == (0,)
        assert manager.retired_pids() == ()
        assert key not in set(inner.keys())

    def test_swap_invalidates_buffer_pool(self, small_table):
        from repro.storage import BufferPool

        device = StorageDevice(BALOS_HDD)
        manager = PartitionManager(
            small_table.schema, device, buffer_pool=BufferPool(1 << 20)
        )
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        manager.load(0)
        assert manager.buffer_pool.get(0) is not None
        manager.replace_partition(left)
        assert manager.buffer_pool.get(0) is None
