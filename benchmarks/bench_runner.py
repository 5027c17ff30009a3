"""Benchmarks for the orchestration layer: result-cache replay speedup.

Mirrors the PR 1 (batch datapath) and PR 2 (trace engine) speedup gates:
the cached replay must be bit-identical to the cold computation and at
least 10x faster on a representative multi-experiment workload.  The
measured ratio lands in the CI timing-JSON artifact as BENCH_PR3
trajectory data (``extra_info.BENCH_PR3``).
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.runner import ExperimentRunner, ResultCache

#: A representative slice of `run all`: multiplier characterisation
#: (table1/fig2 scale) plus both SIMD experiments at their full shapes.
WORKLOAD = [
    ("table1", {"samples": 200}),
    ("fig2", {"samples": 200}),
    ("fig4", {}),
    ("table2", {}),
]


def _run_workload(runner: ExperimentRunner) -> tuple[list[list[dict]], float]:
    start = time.perf_counter()
    reports = runner.run_many([(name, dict(config)) for name, config in WORKLOAD])
    return [report.rows for report in reports], time.perf_counter() - start


def _clear_process_memos() -> None:
    """Forget what earlier work in this process memoised on the cold path.

    A cold run in a process that already ran the workload (another benchmark
    file in the same session) would otherwise reuse the parsed import graphs,
    the assembled kernels and the compiled loop plans, and measure far less
    than a first run does.  Module imports stay: they cannot be undone.
    """
    from repro.runner import fingerprint, registry
    from repro.simd import engine, kernels

    fingerprint._IMPORTS.clear()
    fingerprint._find_spec.cache_clear()
    registry._DECLARATIONS.clear()
    kernels._assembled_convolution.cache_clear()
    engine._analyze_instructions.cache_clear()
    engine._TRACES_BY_IDENTITY.clear()


def _cold_workload(cache_dir: str) -> tuple[ExperimentRunner, list[list[dict]], float]:
    """A runner on an empty cache, and its first (cold) run of the workload."""
    runner = ExperimentRunner(cache=ResultCache(cache_dir))
    _clear_process_memos()
    rows, seconds = _run_workload(runner)
    return runner, rows, seconds


def test_cache_replay_speedup(benchmark, trajectory):
    """Warm-cache replay must be >= 10x faster than the cold run, rows bit-identical.

    Cold is timed once (it includes the cache writes, and starts from
    cleared process memos, so it means the same alone and after other
    benchmarks in one session); the warm replay takes the best of three runs
    to shed filesystem-cache noise, like the BENCH_PR1/BENCH_PR2 gates.  One retry
    absorbs shared-runner timing noise in CI.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        runner, cold_rows, cold_seconds = _cold_workload(cache_dir)

        warm_seconds = float("inf")
        for _ in range(3):
            warm_rows, elapsed = _run_workload(runner)
            warm_seconds = min(warm_seconds, elapsed)
            assert json.dumps(warm_rows) == json.dumps(cold_rows)

        speedup = cold_seconds / warm_seconds
        if speedup < 10.0:  # pragma: no cover - noisy-runner fallback
            with tempfile.TemporaryDirectory(prefix="repro-bench-cache2-") as retry_dir:
                cold_runner, _cold_rows, cold_seconds = _cold_workload(retry_dir)
                _warm_rows, warm_seconds = _run_workload(cold_runner)
                speedup = cold_seconds / warm_seconds
        print(
            f"\nresult-cache replay speedup: {speedup:.1f}x "
            f"(cold {cold_seconds * 1e3:.1f} ms, warm {warm_seconds * 1e3:.1f} ms, "
            f"{len(WORKLOAD)} experiments)"
        )
        benchmark.extra_info["BENCH_PR3"] = {
            "workload": [name for name, _config in WORKLOAD],
            "speedup": round(speedup, 2),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "gate": 10.0,
        }
        trajectory("BENCH_PR3", benchmark.extra_info["BENCH_PR3"])
        benchmark.pedantic(lambda: _run_workload(runner), rounds=3, iterations=1)
        assert speedup >= 10.0


def test_parallel_run_matches_serial(benchmark):
    """`--jobs 2` fan-out returns rows byte-identical to the serial path."""
    serial_runner = ExperimentRunner(use_cache=False)
    parallel_runner = ExperimentRunner(use_cache=False)
    requests = [("fig4", {"input_length": 40, "taps": 7}), ("table2", {"input_length": 40, "taps": 7})]
    serial = serial_runner.run_many([(n, dict(c)) for n, c in requests], jobs=1)
    parallel = benchmark(
        lambda: parallel_runner.run_many([(n, dict(c)) for n, c in requests], jobs=2)
    )
    assert json.dumps([r.rows for r in serial]) == json.dumps([r.rows for r in parallel])
