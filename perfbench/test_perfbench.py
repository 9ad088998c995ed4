"""Self-tests of the benchmark: layer attribution, exact counts, closure.

Run from the repository root::

    python3 -m pytest perfbench -q

They take a couple of minutes: each builds the real workloads at full size
and runs short timed loops.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import cold_jigsaw  # noqa: E402
import join_dag  # noqa: E402
import warm_serve  # noqa: E402
import write_mix  # noqa: E402
from harness import blob_tally  # noqa: E402
from repro.storage.partition_manager import PartitionManager  # noqa: E402

DELAY_S = 0.03


@contextlib.contextmanager
def slow_index(delay_s: float = DELAY_S):
    """Inject a fixed delay into every tuple-level index lookup, from outside."""
    original = PartitionManager.__dict__["partitions_with_missing_cells"]
    calls = {"n": 0}

    def delayed(self, attribute, tids):
        calls["n"] += 1
        time.sleep(delay_s)
        return original(self, attribute, tids)

    PartitionManager.partitions_with_missing_cells = delayed
    try:
        yield calls
    finally:
        PartitionManager.partitions_with_missing_cells = original


def _metrics(outcome) -> dict:
    return {name: value for name, (value, _unit) in outcome[1].items()}


def _p50_ms(module, seed: int, seconds: float) -> float:
    with blob_tally() as tally:
        state = module.setup(seed, tally)
        try:
            m = module.measure(state, seed, seconds, None, tally)
        finally:
            run._close(state)
    assert not m.failures
    return statistics.median(m.read_s) * 1e3


def test_index_delay_is_attributed_to_the_index_layer():
    with blob_tally() as tally:
        base = _metrics(run.traced(cold_jigsaw, "cold-jigsaw", 3, 6.0, tally))
    with slow_index(), blob_tally() as tally:
        slowed = _metrics(run.traced(cold_jigsaw, "cold-jigsaw", 3, 6.0, tally))
    # each call's share of the index layer rises by the injected delay (the
    # two runs time different numbers of reads, so compare per call) ...
    per_call = {
        name: run_["storage.index_ms"] / run_["storage.index_calls"]
        for name, run_ in (("base", base), ("slowed", slowed))
    }
    rise = per_call["slowed"] - per_call["base"]
    assert 0.7 * DELAY_S * 1e3 <= rise <= 1.4 * DELAY_S * 1e3, per_call
    # ... and lands in the index layer, not in its neighbours
    per_read = DELAY_S * 1e3 * slowed["storage.index_calls"]
    for other in ("engine.self_ms", "storage.load_self_ms", "plan.plan_ms"):
        assert slowed[other] < base[other] + 0.2 * per_read, other


def test_index_delay_moves_cold_reads_and_not_warm_serving():
    cold_base = _p50_ms(cold_jigsaw, 4, 4.0)
    with slow_index() as calls:
        cold_slow = _p50_ms(cold_jigsaw, 4, 4.0)
    assert calls["n"] > 0
    assert cold_slow > cold_base * 1.05, (cold_base, cold_slow)

    warm_base = _p50_ms(warm_serve, 4, 4.0)
    with slow_index() as calls:
        warm_slow = _p50_ms(warm_serve, 4, 4.0)
    # the scan engine never consults the tuple-level index ...
    assert calls["n"] == 0
    # ... so its latency stays where it was, up to run-to-run noise
    assert abs(warm_slow / warm_base - 1.0) < 0.3, (warm_base, warm_slow)


@pytest.mark.parametrize(
    "module,seconds",
    [(cold_jigsaw, 5.0), (warm_serve, 1.0), (write_mix, 3.0), (join_dag, 3.0)],
)
def test_exact_counts_repeat_for_one_seed(module, seconds):
    counts = []
    for _ in range(2):
        with blob_tally() as tally:
            state = module.setup(7, tally)
            try:
                m = module.measure(state, 7, seconds, None, tally)
            finally:
                run._close(state)
        assert not m.failures
        assert m.invariants, "the run was too short to reach the pinned prefix"
        counts.append((m.invariants, m.sim_io_ms_per_read))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "module,name",
    [(cold_jigsaw, "cold-jigsaw"), (warm_serve, "warm-serve"),
     (write_mix, "write-mix"), (join_dag, "join-dag")],
)
def test_traced_layers_close_to_the_traced_wall(module, name):
    with blob_tally() as tally:
        m, metrics, detail = run.traced(module, name, 5, 4.0, tally)
    assert not m.failures
    values = {k: v for k, (v, _unit) in metrics.items()}
    wall = values["bench.traced_wall_s"]
    assert values["bench.layer_sum_s"] + values["bench.residual_s"] == pytest.approx(wall)
    assert values["bench.residual_frac"] <= 0.05
    units = json.load(open(os.path.join(run.HERE, "spec.json")))["per_layer_units"]
    assert set(values) == set(units)
    if name == "cold-jigsaw":
        assert detail["largest_layer"] == "storage.index"


def test_run_without_program_source_fails_cleanly(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-jigsaw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
