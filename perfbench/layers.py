"""The traced run: per-layer timings of runner, stores, engines and service.

``python3 perfbench/run.py --workload <w> --seed <n> --trace 1`` lands here.
Each layer's public functions are called in-process (or, for import and
fingerprint cost, in a fresh child), wrapped in spans this file records.
The spans (name, start, end, parent) are written to
``.bench_build/perfbench/traces/<workload>-seed<n>.json`` when the suite
ends, and every per-layer metric is a span's self time: its duration minus
the part its child spans cover.

Which end-to-end metric each layer should move is tabulated in
``perfbench/README.md``.  The suite is the same for every workload; the
workload seed picks the sweep cells and the request order.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterator

import harness
from harness import (
    EXPERIMENTS,
    WORK,
    BenchmarkError,
    Outcome,
    State,
    canonical,
    repro_argv,
    restore,
    run_child,
    scrubbed_env,
)

#: Fresh-process probes per run (import time, fingerprint time); medians reported.
PROCESS_PROBES = 3
#: Repeats of the cheap in-process layer calls; metrics are per repeat.
ROUNDS = 5
#: Repeats of the eight drivers.
DRIVER_ROUNDS = 3
#: Warm lookups per experiment for ``service.lookup_ms``.
LOOKUP_ROUNDS = 40
#: Closed-loop window of the one-connection HTTP probe.
SERVICE_SECONDS = 2.0
#: Alternating untraced/traced lookup batches for the tracing overhead.
OVERHEAD_PAIRS = 7

#: A fresh interpreter fingerprinting the eight drivers (the cost every CLI
#: process pays once; memoised only within a process).
FINGERPRINT_PROBE = """\
import time
from repro.runner.fingerprint import code_fingerprint
from repro.runner.registry import build_registry
specs = list(build_registry().values())
start = time.perf_counter()
for spec in specs:
    code_fingerprint(spec.module.__name__)
print(time.perf_counter() - start)
"""


class Tracer:
    """In-memory spans on a monotonic clock; written once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record: dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [(span["end_ns"] - span["start_ns"]) / 1e9 for span in self.spans if span["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child spans)."""
        covered: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += (span["end_ns"] - span["start_ns"] - covered[span["id"]]) / 1e9
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "self_seconds": self.self_seconds()}, indent=1))


def _import_times(env: dict[str, str], cwd: Path, index: int) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of ``repro`` and ``numpy`` in a fresh child."""
    child = run_child([sys.executable, "-X", "importtime", "-c", "import repro"],
                      env=env, cwd=cwd, name=f"importtime{index}")
    found: dict[str, float] = {}
    for line in child.stderr.read_text().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        package, cumulative = parts[2].strip(), parts[1].strip()
        if package in ("repro", "numpy") and cumulative.isdigit():
            found.setdefault(package, int(cumulative) / 1e6)
    if child.returncode != 0 or len(found) != 2:
        raise BenchmarkError(f"import probe failed: {child.stderr.read_text()[-2000:]}")
    return found


def _fingerprint_seconds(env: dict[str, str], cwd: Path, index: int) -> float:
    child = run_child([sys.executable, "-c", FINGERPRINT_PROBE], env=env, cwd=cwd, name=f"fingerprint{index}")
    if child.returncode != 0:
        raise BenchmarkError(f"fingerprint probe failed: {child.stderr.read_text()[-2000:]}")
    return float(child.stdout.read_text())


def _cache_stats(env: dict[str, str], cwd: Path, store: Path, name: str) -> dict[str, int]:
    child = run_child(repro_argv("cache", "stats", "--json", "--cache-dir", str(store)),
                      env=env, cwd=cwd, name=name)
    if child.returncode != 0:
        raise BenchmarkError(f"cache stats failed: {child.stderr.read_text()[-2000:]}")
    return json.loads(child.stdout.read_text())["results"]


def traced_run(state: State, run_dir: Path, workload: str, seed: int) -> Outcome:
    """Every per-layer metric of ``BENCHMARK.json`` plus the tracing overhead."""
    harness.import_repro(run_dir / "inproc-cache")
    import reference
    from repro.analysis.sweep import SweepResult
    from repro.runner.artifacts import (
        ArtifactStore,
        StoreStats,
        activated,
        artifact_key,
        load_producer,
        produce_into,
        record_stats,
    )
    from repro.runner.cache import CacheEntry, ResultCache
    from repro.runner.executor import execute_requests
    from repro.runner.fingerprint import code_fingerprint, module_closure
    from repro.runner.registry import build_registry
    from repro.runner.service import ExperimentRunner

    tracer = Tracer()
    span = tracer.span
    metrics: dict[str, float] = {}
    checks = {"attempted": 0, "failed": 0}

    def check(ok: bool) -> None:
        checks["attempted"] += 1
        checks["failed"] += not ok

    warm_docs = {name: json.loads(state.warm[name]) for name in EXPERIMENTS}
    reference_rows = {name: canonical(warm_docs[name]["rows"]) for name in EXPERIMENTS}
    child_env = scrubbed_env(run_dir, run_dir / "probe-cache")

    with span("suite"):
        with span("phase.process_probes"):
            imports = [_import_times(child_env, run_dir, index) for index in range(PROCESS_PROBES)]
            metrics["import.repro_s"] = statistics.median(found["repro"] for found in imports)
            metrics["import.numpy_s"] = statistics.median(found["numpy"] for found in imports)
            metrics["fingerprint.s"] = statistics.median(
                _fingerprint_seconds(child_env, run_dir, index) for index in range(PROCESS_PROBES)
            )
            # Hit fraction of the counters one warm `run all` process adds.
            hits_store = run_dir / "hits"
            restore(state.snapshot, hits_store)
            hits_env = scrubbed_env(run_dir, hits_store)
            before = _cache_stats(hits_env, run_dir, hits_store, "stats-before")
            warm = run_child(repro_argv("run", "all", "--json", "--cache-dir", str(hits_store)),
                             env=hits_env, cwd=run_dir, name="warm-run")
            check(warm.returncode == 0 and harness.warm_reports_ok(warm.stdout, state))
            after = _cache_stats(hits_env, run_dir, hits_store, "stats-after")
            hits = after["hits"] - before["hits"]
            lookups = hits + after["misses"] - before["misses"]
            metrics["cache.hit_frac"] = hits / lookups if lookups else 0.0

        with span("phase.registry"):
            for _ in range(ROUNDS):
                with span("registry.build"):
                    registry = build_registry()
            metrics["fingerprint.modules"] = float(
                sum(len(module_closure(spec.module.__name__)) for spec in registry.values())
            )

        with span("phase.warm_store"):
            store = run_dir / "warm"
            restore(state.snapshot, store)
            runner = ExperimentRunner(cache=ResultCache(store), registry=registry)
            for _ in range(ROUNDS):
                for name in EXPERIMENTS:
                    with span("cache.get"):
                        entry = runner.cache.get(name, warm_docs[name]["key"])
                    check(entry is not None and canonical(entry.rows) == reference_rows[name])
            reports = [runner.lookup(name) for name in EXPERIMENTS]
            for _ in range(ROUNDS):
                with span("render.text"):
                    for report in reports:
                        runner.render(report)
                with span("render.json"):
                    json.dumps({report.name: report.to_jsonable() for report in reports}, indent=1)
            order = [name for round_order, _ in zip(harness.request_orders(seed, 0), range(LOOKUP_ROUNDS))
                     for name in round_order]
            for name in order:
                with span("service.lookup"):
                    runner.lookup(name)
            artifact_store = ArtifactStore(store / "artifacts")
            for _ in range(ROUNDS):
                for artifact, keys in state.artifacts.items():
                    for key in keys:
                        with span("artifacts.get"):
                            found = artifact_store.get(artifact, key)
                        check(found is not None)
            metrics["stats.log_lines"] = float(len((state.snapshot / "_stats.jsonl").read_bytes().splitlines()))
            for _ in range(ROUNDS):
                restore(state.snapshot, store)
                with span("stats.record"):
                    record_stats(store, StoreStats(result_hits=len(EXPERIMENTS)))

        with span("phase.cold_store"):
            cold = run_dir / "cold"
            produced = ArtifactStore(cold / "artifacts")
            units: dict[tuple[str, str], tuple[int, str, dict[str, object]]] = {}
            for spec in registry.values():
                config = spec.canonical_config()
                for binding in spec.artifacts.values():
                    if binding.when is not None and not config.get(binding.when):
                        continue
                    params = {pname: config[pname] for pname in binding.params}
                    units[(binding.name, canonical(params))] = (binding.level, binding.producer, params)
            entries = []
            for (artifact, _params_key), (_level, producer, params) in sorted(units.items(), key=lambda item: item[1][0]):
                fingerprint = code_fingerprint(producer.partition(":")[0])
                key = artifact_key(artifact, params, fingerprint)
                with span(f"producer.{artifact}"):
                    entry = produce_into(produced, artifact, params, load_producer(producer),
                                         key=key, fingerprint=fingerprint)
                check(key in state.artifacts.get(artifact, ()))
                entries.append((key, entry))
            put_store = ArtifactStore(cold / "artifacts-put")
            for _ in range(ROUNDS):
                for key, entry in entries:
                    with span("artifacts.put"):
                        put_store.put(key, entry)
            with activated(produced):
                for _ in range(DRIVER_ROUNDS):
                    for name, spec in registry.items():
                        config = spec.canonical_config()
                        with span(f"driver.{name}"):
                            rows = spec.execute(config)
                        check(canonical(SweepResult(records=rows).to_jsonable()) == reference_rows[name])

        with span("phase.sweep"):
            seeds = harness.sweep_seeds(seed)
            expected = reference.sweep_reference(seeds)["cells"]
            spec = registry["table2"]
            configs = [spec.canonical_config({"seed": value}) for value in seeds]
            with span("executor.execute_requests"):
                results = execute_requests([("table2", config) for config in configs], jobs=1, registry=registry)
            metrics["executor.overhead_s"] = tracer.durations("executor.execute_requests")[0] - sum(
                elapsed for _rows, elapsed in results
            )
            for (rows, _elapsed), (_key, _config, expected_rows) in zip(results, expected):
                check(canonical(rows) == expected_rows)
            cell_cache = ResultCache(run_dir / "sweep")
            fingerprint = code_fingerprint(spec.module.__name__)
            for (rows, elapsed), (key, config_text, _rows) in zip(results, expected):
                entry = CacheEntry(experiment="table2", params=json.loads(config_text), fingerprint=fingerprint,
                                   result=SweepResult(records=rows), elapsed_seconds=elapsed)
                with span("cache.claim"):
                    claimed = cell_cache.claim("table2", key)
                with span("cache.put"):
                    cell_cache.put(key, entry)
                check(claimed)

        with span("phase.service"):
            service_store = run_dir / "service"
            restore(state.snapshot, service_store)
            with harness.Server(env=scrubbed_env(run_dir, service_store), store=service_store,
                                cwd=run_dir, name="serve") as server:
                load = harness.closed_loop(server.port, seed, connections=1, seconds=SERVICE_SECONDS)
                counters = server.get_json("/v1/metrics")["cache"]
            failed = harness.check_replies(load.replies, state.warm)
            checks["attempted"] += len(load.replies)
            checks["failed"] += failed
            http_p50_ms = statistics.median(reply.latency_s for reply in load.replies) * 1e3
            metrics["service.l1_hit_frac"] = counters["warm_hits"] / counters["hits"] if counters["hits"] else 0.0

        with span("phase.overhead"):
            batch = order[: 10 * len(EXPERIMENTS)]
            untraced, traced = [], []
            for _ in range(OVERHEAD_PAIRS):
                start = time.perf_counter()
                for name in batch:
                    runner.lookup(name)
                untraced.append(time.perf_counter() - start)
                start = time.perf_counter()
                for name in batch:
                    with span("overhead.lookup"):
                        runner.lookup(name)
                traced.append(time.perf_counter() - start)

    selfs = tracer.self_seconds()
    metrics["registry.build_s"] = selfs["registry.build"] / ROUNDS
    metrics["cache.get_s"] = selfs["cache.get"] / ROUNDS
    metrics["render.text_s"] = selfs["render.text"] / ROUNDS
    metrics["render.json_s"] = selfs["render.json"] / ROUNDS
    metrics["artifacts.get_s"] = selfs["artifacts.get"] / ROUNDS
    metrics["artifacts.put_s"] = selfs["artifacts.put"] / ROUNDS
    metrics["stats.record_s"] = selfs["stats.record"] / ROUNDS
    metrics["cache.claim_s"] = selfs["cache.claim"]
    metrics["cache.put_s"] = selfs["cache.put"]
    for artifact, _params in units:
        metrics[f"producer.{artifact}_s"] = selfs[f"producer.{artifact}"]
    for name in EXPERIMENTS:
        metrics[f"driver.{name}_s"] = selfs[f"driver.{name}"] / DRIVER_ROUNDS
    lookup_p50_ms = statistics.median(tracer.durations("service.lookup")) * 1e3
    metrics["service.lookup_ms"] = lookup_p50_ms
    metrics["service.http_overhead_ms"] = http_p50_ms - lookup_p50_ms
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.spans"] = float(len(tracer.spans))

    trace_path = WORK / "traces" / f"{workload}-seed{seed}.json"
    tracer.write(trace_path)
    top = sorted(selfs.items(), key=lambda item: item[1], reverse=True)[:12]
    notes = [f"spans written to {trace_path.relative_to(harness.ROOT)}", "largest self times:"]
    notes.extend(f"  {name:<40} {seconds:10.4f} s" for name, seconds in top)
    return Outcome(checks["attempted"], checks["failed"], metrics, notes)
