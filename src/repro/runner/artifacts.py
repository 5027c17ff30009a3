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
* producer modules expose *resolvers* built on the stdlib-only
  :mod:`repro.artifact_hook` (re-exported here as :func:`activated`,
  :func:`active_store` and :func:`resolve_artifact`): with a store
  installed they load-or-compute through :meth:`ArtifactStore.resolve`
  (and therefore hit after the scheduler's wave); without one they
  compute inline, so direct driver calls behave exactly as before the
  store existed.

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
user running the experiments.

Both stores' hit/miss/claim counters persist under the cache root in one
append-only :class:`~repro.runner.journal.Journal`, ``_stats.jsonl``:
:func:`record_stats` appends one delta line per run, :func:`load_stats`
sums (and past :data:`STATS_COMPACT_LINES`, compacts) the lines, and
:func:`reset_stats` deletes the log.  It is the only counter file read.
"""

from __future__ import annotations

import contextlib
import importlib
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..artifact_hook import current as active_store  # noqa: F401 - re-exported
from ..artifact_hook import installed as activated
from ..artifact_hook import resolve as resolve_artifact  # noqa: F401 - re-exported
from .fingerprint import code_fingerprint
from .journal import Journal
from .registry import canonical_params_json
from .store import ContentStore, StoreStats, content_key

#: Bumped when the on-disk artifact layout changes; part of every key.
ARTIFACT_SCHEMA_VERSION = 1

#: Append-only counter log: one JSON delta per line (a :class:`Journal`),
#: so concurrent recorders never lose increments.
STATS_LOG_FILENAME = "_stats.jsonl"

#: Lines past which :func:`load_stats` compacts the log to one total line.
STATS_COMPACT_LINES = 256

#: Size budget (bytes) of the artifact store; unset/0 = unbounded.
ENV_ARTIFACTS_MAX_BYTES = "REPRO_ARTIFACTS_MAX_BYTES"


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

    def resolve(
        self, artifact: str, params: Mapping[str, object], *, producer: Callable[..., object]
    ) -> object:
        """Load-or-compute one artifact: the stored payload, else :func:`produce_into`.

        :func:`repro.artifact_hook.resolve` calls this while the store is
        installed (:func:`activated`).
        """
        fingerprint = code_fingerprint(producer.__module__)
        key = artifact_key(artifact, params, fingerprint)
        entry = self.get(artifact, key)
        if entry is not None:
            return entry.payload
        return produce_into(self, artifact, params, producer, key=key, fingerprint=fingerprint).payload


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

    def compute(_indices: list[int]) -> list[ArtifactEntry]:
        with activated(store):
            start = time.perf_counter()
            payload = producer(**dict(params))
            elapsed = time.perf_counter() - start
        return [
            ArtifactEntry(
                artifact=artifact,
                params=dict(params),
                fingerprint=fingerprint,
                payload=payload,
                elapsed_seconds=elapsed,
                provenance=_artifact_provenance(),
            )
        ]

    return store.fill([(artifact, key)], compute)[0][0]


# -- persisted statistics -----------------------------------------------------------


def _total(documents: list[object]) -> StoreStats:
    """The sum of the counter documents among ``documents``."""
    total = StoreStats()
    for document in documents:
        if isinstance(document, dict):
            total += StoreStats.from_document(document)
    return total


def load_stats(root: Path | str) -> StoreStats:
    """The persisted counters at ``root`` (zeros when absent/corrupt).

    Totals = the sum of every delta line in ``_stats.jsonl``; torn/invalid
    lines are skipped rather than poisoning the total.  A log longer than
    :data:`STATS_COMPACT_LINES` is compacted to one total line, which
    keeps this read bounded (best effort: a read-only root stays long).
    """
    log = Journal(Path(root) / STATS_LOG_FILENAME)
    lines = log.read()
    if len(lines) > STATS_COMPACT_LINES:
        with contextlib.suppress(OSError):
            log.compact(lambda documents: [_total(documents).to_document()])
            lines = log.read()
    return _total(lines)


def record_stats(root: Path | str, delta: StoreStats) -> None:
    """Append ``delta`` as one :class:`Journal` line (read totals via :func:`load_stats`)."""
    Journal(Path(root) / STATS_LOG_FILENAME).append(delta.to_document())


def reset_stats(root: Path | str) -> None:
    """Delete the persisted counters (the next run starts from zero)."""
    with contextlib.suppress(OSError):
        (Path(root) / STATS_LOG_FILENAME).unlink()
