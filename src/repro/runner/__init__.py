"""Experiment orchestration: registry, caches, artifact graph, parallel execution, CLI.

The runner unifies how the reproduction executes (PR 3, extended in PR 5):

* :mod:`repro.runner.registry` -- typed experiment specs with deterministic
  config canonicalization over ``repro.experiments.EXPERIMENTS``, plus the
  drivers' declared ``ARTIFACTS`` bindings;
* :mod:`repro.runner.fingerprint` -- static import-closure code fingerprints;
* :mod:`repro.runner.backends` -- the pluggable byte-level
  :class:`StoreBackend` protocol (disk + in-memory) with its claim tickets
  and LRU eviction, plus the shared env-parsing and backoff helpers;
* :mod:`repro.runner.store` -- the one content-addressed
  :class:`ContentStore` (quarantine, the first-writer-wins
  :meth:`~ContentStore.fill` / :meth:`~ContentStore.wait_for_fill` path,
  byte budget, listings) and the :class:`StoreStats` counter map; both
  stores below are configurations of it;
* :mod:`repro.runner.cache` -- the JSON result cache
  (key = experiment + canonical params + code fingerprint);
* :mod:`repro.runner.artifacts` -- the pickled store for shared
  sub-experiment intermediates (key = artifact + canonical params +
  producer fingerprint) and the persisted hit/miss statistics;
* :mod:`repro.runner.executor` -- process-parallel sweep/artifact/experiment
  fan-out with deterministic record ordering;
* :mod:`repro.runner.service` -- the cache- and artifact-aware
  :class:`ExperimentRunner` scheduling cold runs as topological DAG waves;
* :mod:`repro.runner.errors` -- the :class:`ReproError` taxonomy with
  stable ``code`` fields shared by the CLI and the HTTP service;
* :mod:`repro.runner.cli` -- the ``python -m repro`` entry point.
"""

from .artifacts import (
    ArtifactEntry,
    ArtifactStore,
    activated,
    active_store,
    artifact_key,
    load_stats,
    record_stats,
    reset_stats,
    resolve_artifact,
)
from .backends import (
    ClaimTicket,
    DiskBackend,
    MemoryBackend,
    StoreBackend,
    evict_lru,
)
from .cache import CacheEntry, ResultCache, cache_key
from .cli import CliError, main
from .errors import (
    ExecutionError,
    ParamError,
    ParamTypeError,
    ParamValueError,
    ReproError,
    UnknownExperimentError,
    UnknownParamError,
)
from .executor import execute_requests, parallel_sweep, produce_artifacts
from .fingerprint import code_fingerprint, module_closure
from .registry import ArtifactBinding, ExperimentSpec, ParamSpec, build_registry
from .service import ArtifactUnit, ExperimentRunner, Observer, RunReport
from .store import ContentStore, StoreStats, default_cache_root

__all__ = [
    "ArtifactBinding",
    "ArtifactEntry",
    "ArtifactStore",
    "ArtifactUnit",
    "CacheEntry",
    "ClaimTicket",
    "ContentStore",
    "DiskBackend",
    "MemoryBackend",
    "ResultCache",
    "StoreBackend",
    "StoreStats",
    "evict_lru",
    "activated",
    "active_store",
    "artifact_key",
    "cache_key",
    "default_cache_root",
    "load_stats",
    "main",
    "execute_requests",
    "parallel_sweep",
    "produce_artifacts",
    "code_fingerprint",
    "module_closure",
    "record_stats",
    "reset_stats",
    "resolve_artifact",
    "ExperimentSpec",
    "ParamSpec",
    "build_registry",
    "ExperimentRunner",
    "Observer",
    "RunReport",
    "CliError",
    "ExecutionError",
    "ParamError",
    "ParamTypeError",
    "ParamValueError",
    "ReproError",
    "UnknownExperimentError",
    "UnknownParamError",
]
