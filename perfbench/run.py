"""The repository benchmark: one workload, one seed, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-jigsaw --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up ``N_SETUPS`` times (``setup_s`` is the
median), runs the timed loop for ``--seconds`` with nothing wrapped, checks
every answer against the dense numpy oracles outside the timed intervals,
and prints the end-to-end metrics.  ``--trace 1`` runs the loop twice for
half the time each, on fresh set-ups from the same seed: first unwrapped,
then with the layer wrappers of :mod:`layers` installed; it prints the
per-layer metrics, the residual that closes them to the traced wall time,
and the tracing overhead (median read latency of the traced half over the
unwrapped half, on the reads both halves ran), and writes every span to ``.perfbench/trace-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
non-zero when an answer differs from its oracle, when a pinned exact count
(``invariants.json``) differs, or when the program's source is missing.
See ``spec.json`` for the workloads, metric directions and layer map.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "cold-jigsaw": "cold_jigsaw",
    "warm-serve": "warm_serve",
    "write-mix": "write_mix",
    "join-dag": "join_dag",
}
N_SETUPS = 3


def _load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _close(state) -> None:
    """Release what a set-up started (the serving tier's worker threads)."""
    close = getattr(state, "close", None)
    if close is not None:
        close()


def _timed_setups(module, seed: int, tally, n: int):
    """Set the workload up ``n`` times; keep the last state."""
    times, state = [], None
    for _ in range(n):
        _close(state)
        state = None
        gc.collect()
        started = perf_counter()
        state = module.setup(seed, tally)
        times.append(perf_counter() - started)
    return times, state


def end_to_end(module, seed: int, seconds: float, tally) -> tuple:
    from harness import percentile_ms

    setup_times, state = _timed_setups(module, seed, tally, N_SETUPS)
    try:
        m = module.measure(state, seed, seconds, None, tally)
    finally:
        _close(state)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "read_p50_ms": (percentile_ms(m.read_s, 50), "ms"),
        "read_tail_ms": (percentile_ms(m.read_s, module.TAIL_PCT), "ms"),
        "read_qps": (m.read_qps, "1/s"),
        "sim_io_ms_per_read": (m.sim_io_ms_per_read, "ms"),
        "write_amp": (m.write_amp, "ratio"),
        "space_amp": (m.space_amp, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = dict(m.detail)
    detail.update(
        setup_runs_s=[round(t, 4) for t in setup_times],
        read_samples=len(m.read_s),
        read_tail_pct=module.TAIL_PCT,
    )
    return m, metrics, detail


def traced(module, workload: str, seed: int, seconds: float, tally) -> tuple:
    from layers import TARGETS, largest_layer, per_layer_metrics
    from spans import SpanTracer

    half = seconds / 2.0
    _, state = _timed_setups(module, seed, tally, 1)
    try:
        plain = module.measure(state, seed, half, None, tally)
    finally:
        _close(state)
    state = None
    gc.collect()
    tracer = SpanTracer()
    with tracer.installed(TARGETS):
        with tracer.op("setup"):
            state = module.setup(seed, tally)
        try:
            before = dict(tally)
            m = module.measure(state, seed, half, tracer, tally)
        finally:
            _close(state)
    counts = dict(tracer.counts)
    counts.update({k: tally[k] - before[k] for k in ("gets", "get_bytes")})
    paired = min(len(plain.read_s), len(m.read_s))
    overhead = (
        statistics.median(m.read_s[:paired]) / statistics.median(plain.read_s[:paired]) - 1.0
        if paired else 0.0
    )
    setup_bd = tracer.breakdown(tracer.select(lambda rid: rid == "setup"))
    run_bd = tracer.breakdown(
        tracer.select(lambda rid: rid is not None and rid != "setup")
    )
    values = per_layer_metrics(setup_bd, run_bd, m, counts, overhead)
    units = _load_json("spec.json")["per_layer_units"]
    metrics = {name: (value, units[name]) for name, value in values.items()}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seed}.jsonl"))
    layers = run_bd.layers()
    wall = run_bd.wall_s
    detail = {
        "largest_layer": largest_layer(run_bd),
        "self_time_share": {
            name: round(t / wall, 4) for name, t in sorted(
                layers.items(), key=lambda item: -item[1]
            )
        },
        "residual_share": round(run_bd.residual_s / wall, 5) if wall else 0.0,
        "untraced_reads": len(plain.read_s),
        "traced_reads": len(m.read_s),
    }
    m.failures.extend(plain.failures)
    m.attempted += plain.attempted
    return m, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source not found at {SRC}/repro", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from harness import blob_tally

    module = importlib.import_module(WORKLOADS[args.workload])
    with blob_tally() as tally:
        if args.trace:
            m, metrics, detail = traced(
                module, args.workload, args.seed, args.seconds, tally
            )
        else:
            m, metrics, detail = end_to_end(module, args.seed, args.seconds, tally)

    failures = list(m.failures)
    pinned = _load_json("invariants.json").get(args.workload, {}).get(str(args.seed))
    if pinned is not None and m.invariants and pinned != m.invariants:
        failures.append(f"exact counts drifted: pinned {pinned}, got {m.invariants}")
    detail["invariants"] = m.invariants
    detail["invariants_pinned"] = pinned is not None
    detail["failed_frac"] = len(failures) / max(m.attempted, 1)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": max(m.attempted, 1),
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
