"""Pieces every workload shares: the table, the query stream, the blob-byte
tally and the measurement record the runner turns into metrics."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext
from repro.storage import ColumnTable, DeviceProfile, MemoryBlobStore

#: the quickstart table: 24 four-byte integer attributes, values 0..99,999.
NAMES = tuple(f"a{i}" for i in range(1, 25))
VALUE_RANGE = 100_000
ROW_BYTES = 4 * len(NAMES)
WIDE = ("a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10")
#: the quickstart's three training templates: (predicate attribute, projection)
TEMPLATES = (("a1", WIDE), ("a8", WIDE), ("a20", ("a15", "a16", "a17", "a18")))
#: every ``OFF_TEMPLATE_EVERY``-th query projects attributes no template
#: trained for, so the projection phase has to gather across partitions.
OFF_TEMPLATE_EVERY = 4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


def make_table(seed: int, n_tuples: int) -> ColumnTable:
    rng = np.random.default_rng(seed)
    schema = TableSchema.uniform(list(NAMES))
    columns = {
        name: rng.integers(0, VALUE_RANGE, n_tuples).astype(np.int32)
        for name in NAMES
    }
    return ColumnTable.build("T", schema, columns)


def quickstart_train(meta) -> Workload:
    """The quickstart's Q1..Q3: what the irregular layout is tuned for."""
    q1 = Query.build(meta, list(WIDE), {"a1": (0, 9_999)}, label="Q1")
    q2 = Query.build(meta, list(WIDE), {"a8": (90_000, 99_999)}, label="Q2")
    q3 = Query.build(
        meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}, label="Q3"
    )
    return Workload(meta, [q1, q2, q3])


def build_context(buffer_pool_bytes: int = 0) -> BuildContext:
    """The quickstart device: 75 MB/s, 1 us latency, 16 KiB file segments."""
    return BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=16 * 1024,
        buffer_pool_bytes=buffer_pool_bytes,
    )


class QueryStream:
    """Seeded template queries with 1-10% ranges, plus off-template ones.

    Query ``i`` uses template ``i mod 3``, or every
    :data:`OFF_TEMPLATE_EVERY`-th query an off-template projection of 3-6
    attributes drawn from the seed.  Range widths follow a golden-ratio
    sequence and range starts a silver-ratio sequence with a seeded offset,
    so every prefix of the stream covers widths and positions evenly
    whatever the seed: runs on different seeds see different queries with
    the same cost profile, which keeps their medians comparable.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._offset = float(self._rng.random())
        self._i = 0

    def next_spec(self) -> tuple:
        """``(predicate attribute, (lo, hi), projection)`` of the next query."""
        i = self._i
        self._i += 1
        attr, projection = TEMPLATES[i % len(TEMPLATES)]
        if i % OFF_TEMPLATE_EVERY == OFF_TEMPLATE_EVERY - 1:
            others = [n for n in NAMES if n != attr]
            k = 3 + (i // OFF_TEMPLATE_EVERY) % 4
            projection = tuple(sorted(self._rng.choice(others, size=k, replace=False)))
        frac = 0.01 + 0.09 * ((i * _GOLDEN) % 1.0)
        width = int(VALUE_RANGE * frac)
        start = (self._offset + i * _SILVER) % 1.0
        lo = int(start * (VALUE_RANGE - width))
        return attr, (lo, lo + width - 1), projection

    def next_query(self, meta, label: str) -> Query:
        attr, bounds, projection = self.next_spec()
        return Query.build(meta, list(projection), {attr: bounds}, label=label)


@contextlib.contextmanager
def blob_tally() -> Iterator[Dict[str, int]]:
    """Count the calls and bytes of every :class:`MemoryBlobStore` put and
    get while open (the workloads' stores are all in-memory)."""
    tally = {"put_bytes": 0, "puts": 0, "get_bytes": 0, "gets": 0}
    put, get = MemoryBlobStore.__dict__["put"], MemoryBlobStore.__dict__["get"]

    def counted_put(store, key, data):
        tally["put_bytes"] += len(data)
        tally["puts"] += 1
        return put(store, key, data)

    def counted_get(store, key):
        data = get(store, key)
        tally["get_bytes"] += len(data)
        tally["gets"] += 1
        return data

    MemoryBlobStore.put, MemoryBlobStore.get = counted_put, counted_get
    try:
        yield tally
    finally:
        MemoryBlobStore.put, MemoryBlobStore.get = put, get


def percentile_ms(values_s: List[float], q: float) -> float:
    if not values_s:
        return float("nan")
    return float(np.percentile(np.asarray(values_s), q)) * 1e3


def check_result(got, expected, label: str, failures: List[str]) -> bool:
    if got.equals(expected):
        return True
    failures.append(f"{label}: result differs from the dense numpy oracle")
    return False


@dataclass
class Measurement:
    """What one timed loop produced; the runner derives every metric."""

    #: latency of each read (each join in join-dag), seconds, issue order
    read_s: List[float] = field(default_factory=list)
    #: reads completed per second of closed-loop time
    read_qps: float = 0.0
    #: reads executed in the loop, all of them (the per-read denominator)
    reads: int = 0
    #: latency of each :meth:`TransactionalTable.commit` (write-mix)
    commit_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    sim_io_ms_per_read: float = 0.0
    write_amp: float = 0.0
    space_amp: float = 0.0
    #: exact counts over a fixed prefix of the stream (repeat per seed)
    invariants: Dict[str, float] = field(default_factory=dict)
    #: workload-specific figures printed beside the metrics
    detail: Dict[str, float] = field(default_factory=dict)
    #: per-layer figures that come from counters rather than spans
    layer: Dict[str, float] = field(default_factory=dict)
