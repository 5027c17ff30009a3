"""Experiment orchestration: registry, caches, artifact graph, parallel execution, CLI.

The runner unifies how the reproduction executes (PR 3, extended in PR 5):

* :mod:`repro.runner.registry` -- typed experiment specs with deterministic
  config canonicalization, read from the drivers' literal declarations
  (``PARAMS``, ``OBJECT_PARAMS``, ``ARTIFACTS``) without importing them;
* :mod:`repro.runner.fingerprint` -- static import-closure code fingerprints;
* :mod:`repro.runner.backends` -- the pluggable byte-level
  :class:`StoreBackend` protocol (disk + in-memory) with its claim tickets
  and LRU eviction, plus the shared env-parsing and backoff helpers;
* :mod:`repro.runner.store` -- the one content-addressed
  :class:`ContentStore` (quarantine, the first-writer-wins batch
  :meth:`~ContentStore.fill` that claims cells, computes the won ones in
  one call and waits for the lost ones, byte budget, listings) and the
  :class:`StoreStats` counter map; both stores below are configurations
  of it;
* :mod:`repro.runner.cache` -- the JSON result cache
  (key = experiment + canonical params + code fingerprint);
* :mod:`repro.runner.artifacts` -- the pickled store for shared
  sub-experiment intermediates (key = artifact + canonical params +
  producer fingerprint) and the persisted hit/miss statistics;
* :mod:`repro.runner.executor` -- process-parallel sweep/artifact/experiment
  fan-out with deterministic record ordering, and ``open_stores``, the one
  place that lays out both stores under a cache root;
* :mod:`repro.runner.service` -- the cache- and artifact-aware
  :class:`ExperimentRunner` scheduling cold runs as topological DAG waves;
* :mod:`repro.runner.errors` -- the :class:`ReproError` taxonomy with
  stable ``code`` fields shared by the CLI and the HTTP service;
* :mod:`repro.runner.cli` -- the ``python -m repro`` entry point.

Importing this package imports none of them: each name below loads its
submodule on first access, so a command pays only for what it runs.
:func:`default_cache_root` lives here, so ``repro list`` can name the cache
root without loading the store.
"""

import importlib
import os
from pathlib import Path


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/dvafs-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dvafs-repro"


#: Submodule -> the public names it defines; each loads on first access (PEP 562).
_SUBMODULE_EXPORTS = {
    "artifacts": (
        "ArtifactEntry",
        "ArtifactStore",
        "activated",
        "active_store",
        "artifact_key",
        "load_stats",
        "record_stats",
        "reset_stats",
        "resolve_artifact",
    ),
    "backends": ("ClaimTicket", "DiskBackend", "MemoryBackend", "StoreBackend", "evict_lru"),
    "cache": ("CacheEntry", "ResultCache", "cache_key"),
    "cli": ("CliError", "main"),
    "errors": (
        "ExecutionError",
        "ParamError",
        "ParamTypeError",
        "ParamValueError",
        "ReproError",
        "UnknownExperimentError",
        "UnknownParamError",
    ),
    "executor": ("execute_requests", "parallel_sweep", "produce_artifacts"),
    "fingerprint": ("code_fingerprint", "module_closure"),
    "registry": ("ArtifactBinding", "ExperimentSpec", "ParamSpec", "build_registry"),
    "service": ("ArtifactUnit", "ExperimentRunner", "Observer", "RunReport"),
    "store": ("ContentStore", "StoreStats"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


__all__ = sorted([*_EXPORTS, "default_cache_root"])
