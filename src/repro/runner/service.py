"""The experiment runner: cache-aware, artifact-aware parallel execution.

:class:`ExperimentRunner` is the one code path behind ``python -m repro``,
the benchmarks and the examples: it canonicalises the requested config,
computes the content address (config + code fingerprint), replays from the
:class:`~repro.runner.cache.ResultCache` on a hit and executes + stores on a
miss.

Cold runs go through the cross-experiment artifact graph first: every
driver's declared ``ARTIFACTS`` (see
:class:`~repro.runner.registry.ArtifactBinding`) are resolved to
content-addressed units, deduplicated across the request batch, and the
missing ones are produced over worker processes in topological waves --
the shared multiplier characterisation is computed exactly once per cold
``run all``, and fig6's trained LeNet, its precision profile (a second
wave) and the AlexNet profile are produced through the incremental search
producers.  The experiments themselves then fan out with the store
active, so their resolvers replay the intermediates instead of
recomputing them.  Reports stay in request order and rows stay
bit-identical to a serial no-reuse run -- producers are deterministic
functions of their parameters and the incremental search is gated to
make the full-forward reference's decisions (same profile rows).

Cached and live paths return identical (sanitised) rows, so downstream
rendering/export code never needs to know which path produced them.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .artifacts import ArtifactStore, artifact_key, record_stats
from .backends import MemoryBackend
from .cache import CacheEntry, ResultCache, cache_key, run_provenance
from .errors import UnknownExperimentError
from .executor import ExecutionOutcome, ExecutionPolicy, execute_requests, open_stores, produce_artifacts
from .fingerprint import code_fingerprint
from .registry import ExperimentSpec, build_registry
from .store import StoreStats
from ..analysis.sweep import SweepResult, sanitize_value

logger = logging.getLogger(__name__)

#: Progress callback for :meth:`ExperimentRunner.run_many`: receives one dict
#: per lifecycle event (``planned`` / ``artifact_wave`` / ``artifact_wave_done``
#: / ``executing`` / ``executed``).  Used by the HTTP job layer for per-wave
#: progress reporting; callers that do not care pass ``None``.
Observer = Callable[[dict[str, object]], None]


@dataclass
class RunReport:
    """Outcome of one experiment run: rows plus cache/provenance facts.

    ``elapsed_seconds`` is what *this* run spent (the replay time on a cache
    hit); ``compute_seconds`` is what the underlying computation cost when it
    actually ran (equal to ``elapsed_seconds`` on a miss, the stored cold
    time on a hit).
    """

    name: str
    rows: list[dict[str, object]]
    config: dict[str, object]
    cached: bool
    elapsed_seconds: float
    compute_seconds: float = 0.0
    key: str | None = None
    fingerprint: str | None = None

    @property
    def result(self) -> SweepResult:
        return SweepResult(records=self.rows)

    def to_jsonable(self) -> dict[str, object]:
        """One canonical JSON document for a report (mirrors ``SweepResult``).

        The CLI's ``--json`` output, the HTTP run/job responses and the job
        store all serialise reports through here, so rows compare
        byte-identical across every front end.  Tuple-typed config values
        appear as lists (their JSON canonical form).
        """
        return {
            "experiment": self.name,
            "config": {key: sanitize_value(value) for key, value in self.config.items()},
            "rows": [dict(row) for row in self.rows],
            "cached": self.cached,
            "elapsed_seconds": self.elapsed_seconds,
            "compute_seconds": self.compute_seconds,
            "key": self.key,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_jsonable(cls, document: Mapping[str, object]) -> "RunReport":
        """Rebuild a report from :meth:`to_jsonable` output."""
        return cls(
            name=str(document["experiment"]),
            rows=[dict(row) for row in document["rows"]],
            config=dict(document["config"]),
            cached=bool(document["cached"]),
            elapsed_seconds=float(document["elapsed_seconds"]),
            compute_seconds=float(document["compute_seconds"]),
            key=document.get("key"),
            fingerprint=document.get("fingerprint"),
        )

    @classmethod
    def replayed(
        cls, name: str, config: dict[str, object], key: str, entry: CacheEntry, start: float
    ) -> "RunReport":
        """A cache hit found after a lookup that began at ``start`` (``perf_counter``)."""
        return cls(
            name=name,
            rows=entry.rows,
            config=config,
            cached=True,
            elapsed_seconds=time.perf_counter() - start,
            compute_seconds=entry.elapsed_seconds,
            key=key,
            fingerprint=entry.fingerprint,
        )

    @classmethod
    def computed(cls, name: str, config: dict[str, object], key: str, entry: CacheEntry) -> "RunReport":
        """The report of a live run whose result is ``entry``."""
        return cls(
            name=name,
            rows=entry.rows,
            config=config,
            cached=False,
            elapsed_seconds=entry.elapsed_seconds,
            compute_seconds=entry.elapsed_seconds,
            key=key,
            fingerprint=entry.fingerprint,
        )


@dataclass(frozen=True)
class ArtifactUnit:
    """One producible unit of the deduplicated artifact plan."""

    artifact: str
    producer: str
    params: tuple[tuple[str, object], ...]
    key: str
    fingerprint: str
    level: int


class ExperimentRunner:
    """Unified, cache-aware front end over the experiment registry.

    ``use_cache`` governs both stores: with it off, runs are genuinely
    reuse-free (no result replay, no artifact graph).  The artifact store
    defaults to the one :func:`~repro.runner.executor.open_stores` puts
    beside the result cache, so isolated cache directories (tests,
    benchmarks) isolate their artifacts too.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        registry: Mapping[str, ExperimentSpec] | None = None,
        artifacts: ArtifactStore | None = None,
    ):
        self.registry = dict(registry) if registry is not None else build_registry()
        self.cache = cache if cache is not None else ResultCache()
        self.use_cache = use_cache
        if artifacts is None and self.cache.root is not None:
            artifacts = open_stores(self.cache.root)[1]
        elif artifacts is None:
            # A memory-backed result cache (tests, the service's warm L1)
            # keeps the artifact store ephemeral too.
            artifacts = ArtifactStore(backend=MemoryBackend())
        self.artifacts = artifacts

    def spec(self, name: str) -> ExperimentSpec:
        try:
            return self.registry[name]
        except KeyError:
            known = ", ".join(sorted(self.registry))
            raise UnknownExperimentError(f"unknown experiment {name!r}; known: {known}") from None

    def address(self, name: str, overrides: Mapping[str, object] | None = None) -> tuple[dict[str, object], str, str]:
        """``(canonical config, cache key, fingerprint)`` for one request.

        This is the single addressing path every consumer shares: the CLI,
        the batch scheduler and the HTTP warm path all hash configs through
        here, so a request can never address a different entry than the run
        that stored it.
        """
        spec = self.spec(name)
        config = spec.canonical_config(overrides)
        fingerprint = code_fingerprint(spec.module_name)
        return config, cache_key(name, spec.canonical_json(config), fingerprint), fingerprint

    def lookup(self, name: str, overrides: Mapping[str, object] | None = None) -> RunReport | None:
        """Warm-path probe: the cached report for a config, or ``None``.

        Never executes anything and never mutates the persisted hit/miss
        counters (it is a read-only probe; the HTTP service keeps its own
        per-request cache counters).  Raises the same validation errors as
        :meth:`run`, so a front end can validate-and-probe in one call.
        """
        config, key, fingerprint = self.address(name, overrides)
        if not self.use_cache:
            return None
        start = time.perf_counter()
        entry = self.cache.get(name, key)
        return RunReport.replayed(name, config, key, entry, start) if entry is not None else None

    def run(self, name: str, **overrides: object) -> RunReport:
        """Run one experiment (cache-aware).

        Overrides naming object parameters (pre-built models) or unknown
        keys fall through to the driver directly and bypass the cache --
        object identity cannot participate in a content address.
        """
        spec = self.spec(name)
        if any(key not in spec.params for key in overrides):
            start = time.perf_counter()
            rows = SweepResult(records=spec.module.run(**overrides)).to_jsonable()
            elapsed = time.perf_counter() - start
            return RunReport(
                name=name,
                rows=rows,
                config=dict(overrides),
                cached=False,
                elapsed_seconds=elapsed,
                compute_seconds=elapsed,
            )
        return self.run_many([(name, dict(overrides))])[0]

    # -- artifact graph ---------------------------------------------------------

    def _plan_artifacts(
        self, cold: list[tuple[str, dict[str, object]]]
    ) -> list[ArtifactUnit]:
        """Deduplicated artifact units the cold requests need, plan order.

        Units are keyed like the result cache: artifact name + canonical
        params + the *producer's* code fingerprint.  Identical units required
        by several experiments collapse onto one entry -- that is the
        cross-experiment reuse.
        """
        units: dict[str, ArtifactUnit] = {}
        fingerprints: dict[str, str] = {}
        for name, config in cold:
            spec = self.spec(name)
            for binding in spec.artifacts.values():
                if binding.when is not None and not config.get(binding.when):
                    continue
                params = {pname: config[pname] for pname in binding.params}
                if binding.producer not in fingerprints:
                    module_name = binding.producer.partition(":")[0]
                    fingerprints[binding.producer] = code_fingerprint(module_name)
                fingerprint = fingerprints[binding.producer]
                key = artifact_key(binding.name, params, fingerprint)
                if key not in units:
                    units[key] = ArtifactUnit(
                        artifact=binding.name,
                        producer=binding.producer,
                        params=tuple(params.items()),
                        key=key,
                        fingerprint=fingerprint,
                        level=binding.level,
                    )
        return list(units.values())

    def _ensure_artifacts(
        self,
        units: list[ArtifactUnit],
        *,
        jobs: int | None,
        observer: Observer | None = None,
        policy: ExecutionPolicy | None = None,
        outcome: ExecutionOutcome | None = None,
    ) -> StoreStats:
        """Produce the missing units, one wave per topological level.

        A wave finds its missing units with the presence-only
        :meth:`~repro.runner.store.ContentStore.exists`, never by decoding:
        validating would unpickle multi-MB entries in the parent.  So a
        corrupt entry counts as a wave hit, and the driver's resolver then
        quarantines it and recomputes it under a claim.  The invariant
        ``artifact_misses == claims + claim_waits`` therefore holds only
        for healthy stores.
        """
        stats = StoreStats()
        levels = sorted({unit.level for unit in units})
        for level in levels:
            wave = [unit for unit in units if unit.level == level]
            missing = [unit for unit in wave if not self.artifacts.exists(unit.artifact, unit.key)]
            stats["artifact_hits"] += len(wave) - len(missing)
            stats["artifact_misses"] += len(missing)
            if observer is not None:
                observer(
                    {
                        "event": "artifact_wave",
                        "level": level,
                        "waves": len(levels),
                        "units": len(wave),
                        "missing": len(missing),
                        "artifacts": sorted({unit.artifact for unit in missing}),
                    }
                )
            if missing:
                produced = produce_artifacts(missing, self.artifacts, jobs=jobs, policy=policy, outcome=outcome)
                # Fold producer-side store telemetry (claims won/lost against
                # concurrent fillers, corruption, evictions, remote traffic)
                # into the stats the parent persists.
                for _key, _elapsed, drained in produced:
                    stats += drained
            if observer is not None:
                observer({"event": "artifact_wave_done", "level": level, "produced": len(missing)})
        return stats

    # -- experiment execution ----------------------------------------------------

    def run_many(
        self,
        requests: list[tuple[str, dict[str, object]]],
        *,
        jobs: int | None = None,
        observer: Observer | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> list[RunReport]:
        """Run ``(name, overrides)`` requests; cold ones fan out over ``jobs``.

        Reports come back in request order.  Cache lookups happen up front in
        the parent, artifact waves and executions in workers, cache writes
        back in the parent -- a single writer keeps the on-disk store simple.
        ``observer`` (when given) receives progress events: the plan, each
        artifact wave, and the experiment fan-out.  ``policy`` tunes the
        executor's per-unit timeout / retry / respawn behaviour
        (:data:`~repro.runner.executor.DEFAULT_POLICY` when ``None``).
        """
        outcome = ExecutionOutcome()
        prepared: list[RunReport | None] = []
        cold: list[tuple[int, str, dict[str, object], str]] = []
        cold_position: dict[str, int] = {}  # key -> index into `cold` (dedupe)
        duplicates: list[tuple[int, str]] = []  # (request index, key)
        fingerprints: dict[str, str] = {}
        for index, (name, overrides) in enumerate(requests):
            spec = self.spec(name)
            config = spec.canonical_config(overrides)
            if name not in fingerprints:
                fingerprints[name] = code_fingerprint(spec.module_name)
            key = cache_key(name, spec.canonical_json(config), fingerprints[name])
            lookup_start = time.perf_counter()
            entry = self.cache.get(name, key) if self.use_cache else None
            if entry is not None:
                prepared.append(RunReport.replayed(name, config, key, entry, lookup_start))
            else:
                prepared.append(None)
                # Identical cold requests in one call compute only once.
                if key in cold_position:
                    duplicates.append((index, key))
                else:
                    cold_position[key] = len(cold)
                    cold.append((index, name, config, key))
        stats = StoreStats(
            result_hits=sum(1 for report in prepared if report is not None),
            result_misses=len(cold) + len(duplicates),
        ) if self.use_cache else StoreStats()
        if observer is not None:
            observer(
                {
                    "event": "planned",
                    "requests": len(requests),
                    "cached": sum(1 for report in prepared if report is not None),
                    "cold": len(cold),
                    "duplicates": len(duplicates),
                }
            )
        if cold:
            store = self.artifacts if self.use_cache else None

            def compute(indices: list[int]) -> list[CacheEntry]:
                """Produce the artifact waves of ``cold[indices]``, then execute them as one batch."""
                cells = [cold[index] for index in indices]
                batch = [(name, config) for _index, name, config, _key in cells]
                if self.use_cache:
                    stats.update(self._ensure_artifacts(
                        self._plan_artifacts(batch), jobs=jobs, observer=observer, policy=policy, outcome=outcome
                    ))
                if observer is not None:
                    observer({"event": "executing", "experiments": len(cells)})
                results = execute_requests(
                    batch, jobs=jobs, store=store, registry=self.registry,
                    policy=policy, outcome=outcome, stats=stats,
                )
                return [
                    CacheEntry(
                        experiment=name,
                        params=json.loads(self.spec(name).canonical_json(config)),
                        fingerprint=fingerprints[name],
                        result=SweepResult(records=rows),
                        elapsed_seconds=elapsed,
                        provenance=run_provenance(),
                    )
                    for (_index, name, config, _key), (rows, elapsed) in zip(cells, results)
                ]

            # First-writer-wins: of N concurrent runners cold-filling one
            # content address, exactly one computes; the rest replay its entry.
            fill_start = time.perf_counter()
            if self.use_cache:
                filled = self.cache.fill([(name, key) for _index, name, _config, key in cold], compute)
            else:
                filled = [(entry, True) for entry in compute(list(range(len(cold))))]
            for (index, name, config, key), (entry, computed) in zip(cold, filled):
                prepared[index] = (
                    RunReport.computed(name, config, key, entry)
                    if computed
                    else RunReport.replayed(name, config, key, entry, fill_start)
                )
            for index, key in duplicates:
                source = prepared[cold[cold_position[key]][0]]
                prepared[index] = replace(
                    source, rows=[dict(row) for row in source.rows], config=dict(source.config)
                )
        stats += self.cache.drain_stats() + self.artifacts.drain_stats()
        stats["retried"] += outcome.retries
        if self.use_cache and self.cache.root is not None:
            try:
                record_stats(self.cache.root, stats)
            except OSError as error:  # stats are best-effort observability
                logger.warning("could not persist cache stats (%s)", error)
        if observer is not None:
            observer(
                {
                    "event": "executed",
                    "experiments": len(cold),
                    "retries": outcome.retries,
                    "crashes": outcome.crashes,
                    "timeouts": outcome.timeouts,
                    "degraded": outcome.degraded,
                }
            )
        return [report for report in prepared if report is not None]

    def run_all(
        self, *, jobs: int | None = None, policy: ExecutionPolicy | None = None
    ) -> list[RunReport]:
        """Every registered experiment with default configs, registry order."""
        return self.run_many([(name, {}) for name in self.registry], jobs=jobs, policy=policy)

    def render(self, report: RunReport) -> str:
        """Driver-formatted text for a report's rows (live or cached alike)."""
        return self.spec(report.name).render(report.rows)
