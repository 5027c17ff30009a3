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
functions of their parameters and the incremental search is gated
bit-identical to the full-forward reference.

Cached and live paths return identical (sanitised) rows, so downstream
rendering/export code never needs to know which path produced them.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from .artifacts import ArtifactStore, artifact_key, load_producer, produce_into, record_stats
from .backends import MemoryBackend, claim_is_owned, wait_for_fill
from .cache import CacheEntry, ResultCache, cache_key, run_provenance
from .errors import UnknownExperimentError
from .executor import ExecutionOutcome, ExecutionPolicy, execute_requests, produce_artifacts
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


@dataclass(frozen=True)
class ArtifactUnit:
    """One producible unit of the deduplicated artifact plan."""

    artifact: str
    producer: str
    params: tuple[tuple[str, object], ...]
    key: str
    fingerprint: str
    level: int

    def task(
        self, store_root: str, store_url: str | None = None
    ) -> tuple[str, str, dict[str, object], str, str, str, str | None]:
        return (
            self.artifact,
            self.producer,
            dict(self.params),
            self.key,
            self.fingerprint,
            store_root,
            store_url,
        )


class ExperimentRunner:
    """Unified, cache-aware front end over the experiment registry.

    ``use_artifacts`` controls the cross-experiment artifact graph; it
    defaults to ``use_cache`` so ``--no-cache`` style runs stay genuinely
    reuse-free unless artifacts are enabled explicitly.  The store defaults
    to ``<cache root>/artifacts`` so isolated cache directories (tests,
    benchmarks) isolate their artifacts too.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        registry: Mapping[str, ExperimentSpec] | None = None,
        artifacts: ArtifactStore | None = None,
        use_artifacts: bool | None = None,
    ):
        self.registry = dict(registry) if registry is not None else build_registry()
        self.cache = cache if cache is not None else ResultCache()
        self.use_cache = use_cache
        if artifacts is not None:
            self.artifacts = artifacts
        elif self.cache.root is not None:
            self.artifacts = ArtifactStore(self.cache.root / "artifacts")
        else:
            # Memory-backed result cache (tests, the service's warm L1):
            # keep the artifact store ephemeral too.
            self.artifacts = ArtifactStore(backend=MemoryBackend())
        self.use_artifacts = use_cache if use_artifacts is None else use_artifacts

    def _store_url(self) -> str | None:
        """The networked-store URL workers should tier onto, if any.

        A tiered/remote artifact backend exposes ``url``; plain disk and
        memory backends do not, and workers then rebuild a local store.
        """
        return getattr(self.artifacts.backend, "url", None)

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
        fingerprint = code_fingerprint(spec.module.__name__)
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
        """Produce the missing units, one wave per topological level."""
        stats = StoreStats()
        store_root = str(self.artifacts.root) if self.artifacts.root is not None else None
        store_url = self._store_url()
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
            if missing and store_root is None:
                # Off-disk (memory-backed) store: workers cannot share it,
                # so produce inline in the parent.  Counters accrue on the
                # store itself and are drained by the caller.
                for unit in missing:
                    produce_into(
                        self.artifacts,
                        unit.artifact,
                        dict(unit.params),
                        load_producer(unit.producer),
                        key=unit.key,
                        fingerprint=unit.fingerprint,
                    )
            elif missing:
                produced = produce_artifacts(
                    [unit.task(store_root, store_url) for unit in missing],
                    jobs=jobs,
                    policy=policy,
                    outcome=outcome,
                )
                # Fold worker-side store telemetry (claims won/lost against
                # concurrent fillers, corruption, evictions, remote traffic)
                # into the stats the parent persists.
                for _key, _elapsed, drained in produced:
                    stats += drained
            if observer is not None:
                observer({"event": "artifact_wave_done", "level": level, "produced": len(missing)})
        return stats

    # -- experiment execution ----------------------------------------------------

    def _resolve_waiting(
        self,
        name: str,
        config: dict[str, object],
        key: str,
        fingerprint: str,
        policy: ExecutionPolicy | None,
        outcome: ExecutionOutcome,
        stats: StoreStats,
    ) -> RunReport:
        """Resolve one cold request whose fill claim a concurrent runner won.

        Normally the winner's entry lands and this is a (slightly delayed)
        cache hit.  If the winner died, :func:`wait_for_fill` hands us its
        claim and we compute; if the wait deadline expired we compute
        *without* a claim -- duplicated, uncached work, but deterministic
        and never touching the claim the (slow, live) winner still owns.
        """
        start = time.perf_counter()
        entry = wait_for_fill(self.cache, name, key)
        if entry is not None:
            return RunReport.replayed(name, config, key, entry, start)
        owns_claim = claim_is_owned(self.cache, name, key)
        try:
            ((rows, elapsed),) = execute_requests(
                [(name, config)],
                jobs=1,
                artifacts_root=self._artifacts_root(),
                registry=self.registry,
                policy=policy,
                outcome=outcome,
                store_url=self._store_url() if self.use_artifacts else None,
                stats=stats,
            )
        except BaseException:
            if owns_claim:
                self.cache.release_claim(name, key)
            raise
        return self._computed(name, config, key, fingerprint, rows, elapsed, store=owns_claim)

    def _artifacts_root(self) -> str | None:
        """The artifact store root workers activate (``None`` = no reuse)."""
        if self.use_artifacts and self.artifacts.root is not None:
            return str(self.artifacts.root)
        return None

    def _computed(
        self,
        name: str,
        config: dict[str, object],
        key: str,
        fingerprint: str,
        rows: list[dict[str, object]],
        elapsed: float,
        *,
        store: bool,
    ) -> RunReport:
        """The report of a live run, persisted first when ``store`` (we own the claim)."""
        if store:
            self.cache.put_or_release(
                key,
                CacheEntry(
                    experiment=name,
                    params=json.loads(self.spec(name).canonical_json(config)),
                    fingerprint=fingerprint,
                    result=SweepResult(records=rows),
                    elapsed_seconds=elapsed,
                    provenance=run_provenance(),
                ),
            )
        return RunReport(
            name=name,
            rows=rows,
            config=config,
            cached=False,
            elapsed_seconds=elapsed,
            compute_seconds=elapsed,
            key=key,
            fingerprint=fingerprint,
        )

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
                fingerprints[name] = code_fingerprint(spec.module.__name__)
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
            # First-writer-wins fill coordination: of N concurrent runners
            # cold-filling one content address, exactly one computes (it
            # `owns` the claim); the rest wait on the winner's entry.
            owned = cold
            waiting: list[tuple[int, str, dict[str, object], str]] = []
            if self.use_cache:
                owned = []
                for item in cold:
                    _index, name, _config, key = item
                    if self.cache.claim(name, key):
                        owned.append(item)
                    else:
                        self.cache.note_wait()
                        waiting.append(item)
            try:
                if owned:
                    if self.use_artifacts:
                        units = self._plan_artifacts(
                            [(name, config) for _index, name, config, _key in owned]
                        )
                        stats += self._ensure_artifacts(
                            units, jobs=jobs, observer=observer, policy=policy, outcome=outcome
                        )
                    if observer is not None:
                        observer(
                            {
                                "event": "executing",
                                "experiments": len(owned),
                                "waiting": len(waiting),
                            }
                        )
                    results = execute_requests(
                        [(name, config) for _index, name, config, _key in owned],
                        jobs=jobs,
                        artifacts_root=self._artifacts_root(),
                        registry=self.registry,
                        policy=policy,
                        outcome=outcome,
                        store_url=self._store_url() if self.use_artifacts else None,
                        stats=stats,
                    )
                    for (index, name, config, key), (rows, elapsed) in zip(owned, results):
                        prepared[index] = self._computed(
                            name, config, key, fingerprints[name], rows, elapsed, store=self.use_cache
                        )
                for index, name, config, key in waiting:
                    prepared[index] = self._resolve_waiting(
                        name, config, key, fingerprints[name], policy, outcome, stats
                    )
            except BaseException:
                # Never leak fill claims on the way out: waiters in other
                # processes would stall until the stale-claim TTL.  Claims
                # already cleared by a successful put are no-ops here.
                if self.use_cache:
                    for _index, name, _config, key in owned:
                        self.cache.release_claim(name, key)
                raise
            for index, key in duplicates:
                source = prepared[cold[cold_position[key]][0]]
                prepared[index] = RunReport(
                    name=source.name,
                    rows=[dict(row) for row in source.rows],
                    config=dict(source.config),
                    cached=source.cached,
                    elapsed_seconds=source.elapsed_seconds,
                    compute_seconds=source.compute_seconds,
                    key=source.key,
                    fingerprint=source.fingerprint,
                )
        stats += self.cache.drain_stats() + self.artifacts.drain_stats()
        stats["retried"] += outcome.retries
        if (self.use_cache or self.use_artifacts) and self.cache.root is not None:
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
