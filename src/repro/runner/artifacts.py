"""Content-addressed store for cross-experiment *sub-experiment* artifacts.

The result cache (PR 3) deduplicates whole experiment runs, but a cold
``run all`` still recomputes shared intermediates: table1, fig2 and fig3
each need the same multiplier characterisation, and fig6's AlexNet
precision search re-derives one layer profile after another on a single
core.  This module stores those intermediates -- multiplier
characterisations, trained networks, per-layer precision profiles,
sparsity workloads -- under content addresses mirroring the result-cache
keying::

    sha256(schema version + artifact name + canonical params + producer fingerprint)

The *producer fingerprint* is the static import-closure digest
(:func:`repro.runner.fingerprint.code_fingerprint`) of the producer's
module, so an edit to ``core/scaling.py`` invalidates exactly the
characterisation artifact and its consumers' result entries -- never
fig6's trained weights.

Two layers use the store:

* the scheduler (:mod:`repro.runner.service`) resolves each driver's
  declared ``ARTIFACTS`` into a producer/consumer DAG and fills the store
  in topological waves over worker processes before cold experiments run;
* producer modules expose *resolvers* built on :func:`resolve_artifact`:
  with a store active they load-or-compute (and therefore hit after the
  scheduler's wave); without one they compute inline, so direct driver
  calls behave exactly as before the store existed.

:class:`ArtifactStore` is the pickle configuration of the one
:class:`~repro.runner.store.ContentStore` the result cache also uses, so
concurrent fillers (workers in one run, or whole fleets sharing a store)
coordinate through the same first-writer-wins fill path:
:func:`produce_into` is an entry-building closure handed to
:meth:`~repro.runner.store.ContentStore.fill`, which computes only after
winning the fill claim and makes losers wait for the winner's entry
instead of duplicating the work.  A
``max_bytes`` budget (``$REPRO_ARTIFACTS_MAX_BYTES``; deliberately
separate from the result cache's cap, so a tight result budget cannot
thrash multi-MB trained networks) bounds the store with LRU eviction.

Entries are pickles, which is safe here for the same reason the result
cache's JSON is trusted: the store root is a local directory owned by the
user running the experiments.  This module deliberately imports nothing
from the runner package except :mod:`~repro.runner.fingerprint`,
:mod:`~repro.runner.store` and the stdlib-only
:mod:`~repro.runner.backends`, so a driver's lazy
``from ..runner.artifacts import ...`` keeps the result cache and CLI
out of its fingerprint closure.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .fingerprint import code_fingerprint
from .store import ContentStore, StoreStats, content_key

#: Bumped when the on-disk artifact layout changes; part of every key.
ARTIFACT_SCHEMA_VERSION = 1

#: Legacy snapshot file (under the shared cache root) of the counters.
#: Still read for totals; new deltas land in :data:`STATS_LOG_FILENAME`.
STATS_FILENAME = "_stats.json"

#: Append-only counter log: one JSON delta per line, written with
#: ``O_APPEND`` so concurrent recorders never lose increments (the old
#: read-modify-write snapshot dropped updates under contention).
STATS_LOG_FILENAME = "_stats.jsonl"

#: Size budget (bytes) of the artifact store; unset/0 = unbounded.
ENV_ARTIFACTS_MAX_BYTES = "REPRO_ARTIFACTS_MAX_BYTES"


def canonical_params_json(params: Mapping[str, object]) -> str:
    """Deterministic JSON form of artifact parameters (tuples as arrays)."""
    return json.dumps(
        {key: list(value) if isinstance(value, tuple) else value for key, value in params.items()},
        sort_keys=True,
        separators=(",", ":"),
    )


def artifact_key(artifact: str, params: Mapping[str, object], fingerprint: str) -> str:
    """Content address of one artifact: name + canonical params + producer code."""
    return content_key(ARTIFACT_SCHEMA_VERSION, "artifact", artifact, canonical_params_json(params), fingerprint)


def load_producer(producer: str) -> Callable[..., object]:
    """Resolve a ``"package.module:function"`` producer path to its callable."""
    module_name, separator, function_name = producer.partition(":")
    if not separator or not module_name or not function_name:
        raise ValueError(f"producer {producer!r} is not of the form 'module:function'")
    module = importlib.import_module(module_name)
    function = getattr(module, function_name, None)
    if not callable(function):
        raise TypeError(f"producer {producer!r} does not name a callable")
    return function


@dataclass
class ArtifactEntry:
    """One stored artifact: payload plus the provenance to trust it."""

    artifact: str
    params: dict[str, object]
    fingerprint: str
    payload: object
    elapsed_seconds: float
    provenance: dict[str, object] = field(default_factory=dict)

    def to_document(self) -> dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "artifact": self.artifact,
            "params": self.params,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "provenance": self.provenance,
            "payload": self.payload,
        }

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "ArtifactEntry":
        return cls(
            artifact=str(document["artifact"]),
            params=dict(document["params"]),
            fingerprint=str(document["fingerprint"]),
            payload=document["payload"],
            elapsed_seconds=float(document["elapsed_seconds"]),
            provenance=dict(document.get("provenance", {})),
        )


class ArtifactStore(ContentStore):
    """Content-addressed store of sub-experiment intermediates (pickled entries).

    See :class:`~repro.runner.store.ContentStore` for the constructor
    (``root`` defaulting to ``<cache root>/artifacts``, ``backend``,
    ``max_bytes`` defaulting to ``$REPRO_ARTIFACTS_MAX_BYTES``) and every
    operation.
    """

    KIND = "artifact"
    ENTRY = ArtifactEntry
    SCHEMA = ARTIFACT_SCHEMA_VERSION
    SUFFIX = ".pkl"
    SITE_PREFIX = "artifact"
    COUNTER_PREFIX = "artifact"
    MAX_BYTES_ENV = ENV_ARTIFACTS_MAX_BYTES
    DEFAULT_SUBDIR = "artifacts"

    def encode(self, document: dict[str, object]) -> bytes:
        return pickle.dumps(document)

    def decode(self, blob: bytes) -> object:
        return pickle.loads(blob)


# -- active store -------------------------------------------------------------------
#
# Producer-module resolvers find the store through this process-wide slot:
# the executor activates the runner's store around in-process executions,
# and workers activate the store they rebuild from its root (and URL).
# When nothing is active (direct driver calls, tests), resolvers compute
# inline.

_ACTIVE_STORE: ArtifactStore | None = None


def active_store() -> ArtifactStore | None:
    """The store resolvers should use, or ``None`` to compute inline."""
    return _ACTIVE_STORE


@contextlib.contextmanager
def activated(store: ArtifactStore | None):
    """Temporarily make ``store`` the active one (``None`` disables reuse)."""
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = store
    try:
        yield store
    finally:
        _ACTIVE_STORE = previous


def _artifact_provenance() -> dict[str, object]:
    import platform

    return {"created_unix": round(time.time(), 3), "python": platform.python_version()}


def produce_into(
    store: ArtifactStore,
    artifact: str,
    params: Mapping[str, object],
    producer: Callable[..., object],
    *,
    key: str | None = None,
    fingerprint: str | None = None,
) -> ArtifactEntry:
    """Compute one artifact (store active for nested resolvers) and persist it.

    Fills through :meth:`~repro.runner.store.ContentStore.fill`: losing the
    claim to a concurrent producer means waiting for its entry instead of
    duplicating the work.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint(producer.__module__)
    if key is None:
        key = artifact_key(artifact, params, fingerprint)

    def compute() -> ArtifactEntry:
        with activated(store):
            start = time.perf_counter()
            payload = producer(**dict(params))
            elapsed = time.perf_counter() - start
        return ArtifactEntry(
            artifact=artifact,
            params=dict(params),
            fingerprint=fingerprint,
            payload=payload,
            elapsed_seconds=elapsed,
            provenance=_artifact_provenance(),
        )

    return store.fill(artifact, key, compute)[0]


def resolve_artifact(
    artifact: str,
    params: Mapping[str, object],
    *,
    producer: Callable[..., object],
) -> object:
    """Load-or-compute one artifact through the active store.

    With no active store the producer runs inline and nothing is persisted
    -- results are bit-identical either way, because producers are
    deterministic functions of their parameters.
    """
    store = active_store()
    if store is None:
        return producer(**dict(params))
    fingerprint = code_fingerprint(producer.__module__)
    key = artifact_key(artifact, params, fingerprint)
    entry = store.get(artifact, key)
    if entry is not None:
        return entry.payload
    return produce_into(
        store, artifact, params, producer, key=key, fingerprint=fingerprint
    ).payload


# -- persisted statistics -----------------------------------------------------------


def load_stats(root: Path | str) -> StoreStats:
    """The persisted counters at ``root`` (zeros when absent/corrupt).

    Totals = the legacy ``_stats.json`` snapshot (pre-append-log caches)
    plus every delta line in ``_stats.jsonl``; torn/invalid lines are
    skipped rather than poisoning the total.
    """
    root = Path(root)
    total = StoreStats()
    try:
        document = json.loads((root / STATS_FILENAME).read_text())
    except (OSError, ValueError):
        document = None
    if isinstance(document, dict):
        total = StoreStats.from_document(document)
    try:
        log_text = (root / STATS_LOG_FILENAME).read_text()
    except OSError:
        return total
    for line in log_text.splitlines():
        try:
            delta = json.loads(line)
        except ValueError:  # torn final line from a killed writer
            continue
        if isinstance(delta, dict):
            total += StoreStats.from_document(delta)
    return total


def record_stats(root: Path | str, delta: StoreStats) -> None:
    """Append ``delta`` to the persisted counters (read totals via :func:`load_stats`).

    One compact JSON line per call, written with ``O_APPEND`` (well under
    ``PIPE_BUF``, so concurrent appends never interleave): recorders from
    many processes sharing one store root all land, where the previous
    read-modify-write snapshot silently dropped concurrent increments.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    line = json.dumps(delta.to_document(), sort_keys=True, separators=(",", ":")) + "\n"
    descriptor = os.open(
        str(root / STATS_LOG_FILENAME), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
    )
    try:
        os.write(descriptor, line.encode())
    finally:
        os.close(descriptor)


def reset_stats(root: Path | str) -> None:
    """Delete the persisted counters (the next run starts from zero)."""
    for filename in (STATS_FILENAME, STATS_LOG_FILENAME):
        try:
            (Path(root) / filename).unlink()
        except OSError:
            pass
