"""Benchmark for the cross-experiment artifact graph: cold `run all` speedup.

Mirrors the PR 1-PR 3 speedup gates: a cold ``run all --jobs 4`` through the
artifact graph (shared intermediates computed once per content address, DAG
waves ahead of the experiment fan-out, incremental precision-search
producers) must produce rows bit-identical to the serial no-reuse path --
every driver executing its full-forward reference searches with no store
active -- and be at least 2x faster.  The measured ratio lands in the CI
timing-JSON artifact as BENCH_PR5 trajectory data (``extra_info.BENCH_PR5``)
and in the tracked ``BENCH_TRAJECTORY.json``.

Both arms are *cold*: fresh cache/store directories each run.  The two
arms are measured interleaved (serial, graph, serial, graph, ...) and
each takes its best-of-three -- the minimum is the least-noisy estimator
of the true cost and the interleaving keeps the thermal state
comparable -- and
one full re-measure absorbs shared-runner noise before the gate is
enforced (the PR 3 pattern).  On a single-core runner the win comes from
deduplicating shared work and the lockstep incremental search
(measured ~2x there); multi-core runners add the topological-wave and
experiment fan-out overlap on top.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.runner import ExperimentRunner, ResultCache

GATE = 2.0
JOBS = 4


def _serial_no_reuse() -> tuple[str, float]:
    """Cold serial `run all`, artifact reuse off: the pre-graph reference."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-serial-") as cache_dir:
        runner = ExperimentRunner(cache=ResultCache(cache_dir), use_cache=False)
        start = time.perf_counter()
        reports = runner.run_all(jobs=1)
        elapsed = time.perf_counter() - start
    return json.dumps([report.rows for report in reports]), elapsed


def _graph_cold(jobs: int = JOBS) -> tuple[str, float]:
    """Cold `run all --jobs N` through the artifact graph (fresh stores)."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-graph-") as cache_dir:
        runner = ExperimentRunner(cache=ResultCache(cache_dir))
        start = time.perf_counter()
        reports = runner.run_all(jobs=jobs)
        elapsed = time.perf_counter() - start
    return json.dumps([report.rows for report in reports]), elapsed


def _measure() -> tuple[float, float, float]:
    """(speedup, serial seconds, graph seconds); rows gated bit-identical.

    Interleaved best-of-three per arm: min-of-repeats estimates each arm's
    true cost and alternating the arms keeps shared-runner noise symmetric.
    """
    serial_seconds = float("inf")
    graph_seconds = float("inf")
    serial_rows = None
    for _attempt in range(3):
        rows, elapsed = _serial_no_reuse()
        if serial_rows is None:
            serial_rows = rows
        serial_seconds = min(serial_seconds, elapsed)
        graph_rows, elapsed = _graph_cold()
        assert graph_rows == serial_rows, "artifact-graph rows differ from serial"
        graph_seconds = min(graph_seconds, elapsed)
    return serial_seconds / graph_seconds, serial_seconds, graph_seconds


def test_cold_run_speedup(benchmark, trajectory):
    """Cold `run all --jobs 4` with the artifact graph: >= 2x, bit-identical."""
    speedup, serial_seconds, graph_seconds = _measure()
    if speedup < GATE:  # pragma: no cover - noisy-runner fallback
        retry = _measure()
        if retry[0] > speedup:
            speedup, serial_seconds, graph_seconds = retry
    print(
        f"\ncold run-all artifact-graph speedup: {speedup:.2f}x "
        f"(serial no-reuse {serial_seconds:.1f} s, graph --jobs {JOBS} "
        f"{graph_seconds:.1f} s)"
    )
    payload = {
        "workload": "run all (8 experiments, default configs)",
        "jobs": JOBS,
        "speedup": round(speedup, 2),
        "serial_seconds": round(serial_seconds, 2),
        "graph_seconds": round(graph_seconds, 2),
        "gate": GATE,
    }
    benchmark.extra_info["BENCH_PR5"] = payload
    trajectory("BENCH_PR5", payload)
    benchmark.pedantic(_graph_cold, rounds=1, iterations=1)
    assert speedup >= GATE
