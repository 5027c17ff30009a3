"""Content-addressed result cache for experiment runs.

Every entry is one JSON blob under the ``(experiment, <key>.json)``
address of a :class:`~repro.runner.backends.StoreBackend` -- by default
the on-disk layout ``<root>/<experiment>/<key>.json`` -- where the key is
``sha256(experiment name + canonical params + code fingerprint)``.  The
payload carries the rows (serialised through
:meth:`repro.analysis.sweep.SweepResult.to_jsonable`, so replay is
bit-identical to a sanitised live run) plus provenance metadata: the exact
config, the fingerprint, interpreter/numpy/package versions and a creation
timestamp.

:class:`ResultCache` is the JSON configuration of the one
:class:`~repro.runner.store.ContentStore`, which owns atomic writes,
first-writer-wins fill claims, the LRU byte budget
(``--cache-max-bytes`` / ``$REPRO_CACHE_MAX_BYTES``) and quarantine of
corrupt entries to ``<root>/corrupt/<experiment>/``.  The cache root
defaults to ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/dvafs-repro``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..analysis.sweep import SweepResult
from .store import ContentStore, content_key

#: Bumped when the on-disk entry layout changes; part of every cache key.
SCHEMA_VERSION = 1

#: Size budget (bytes) of the result cache; unset/0 = unbounded.
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


def cache_key(experiment: str, canonical_params_json: str, fingerprint: str) -> str:
    """Content address of one run: experiment + canonical params + code."""
    return content_key(SCHEMA_VERSION, "experiment", experiment, canonical_params_json, fingerprint)


@dataclass
class CacheEntry:
    """One cached run: rows plus the provenance needed to trust/replay them."""

    experiment: str
    params: dict[str, object]
    fingerprint: str
    result: SweepResult
    elapsed_seconds: float
    provenance: dict[str, object] = field(default_factory=dict)

    @property
    def rows(self) -> list[dict[str, object]]:
        return self.result.records

    def to_document(self) -> dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "params": self.params,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "provenance": self.provenance,
            "result": {"records": self.result.to_jsonable()},
        }

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "CacheEntry":
        return cls(
            experiment=str(document["experiment"]),
            params=dict(document["params"]),
            fingerprint=str(document["fingerprint"]),
            result=SweepResult.from_jsonable(document["result"]["records"]),
            elapsed_seconds=float(document["elapsed_seconds"]),
            provenance=dict(document.get("provenance", {})),
        )


def run_provenance() -> dict[str, object]:
    """Environment metadata recorded next to every cached result."""
    import numpy

    from .. import __version__

    return {
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
    }


class ResultCache(ContentStore):
    """Content-addressed store of experiment results (JSON entries).

    See :class:`~repro.runner.store.ContentStore` for the constructor
    (``root``, ``backend``, ``max_bytes`` defaulting to
    ``$REPRO_CACHE_MAX_BYTES``) and every operation.
    """

    KIND = "experiment"
    ENTRY = CacheEntry
    SCHEMA = SCHEMA_VERSION
    SUFFIX = ".json"
    SITE_PREFIX = "cache"
    COUNTER_PREFIX = "result"
    MAX_BYTES_ENV = ENV_CACHE_MAX_BYTES

    def encode(self, document: dict[str, object]) -> bytes:
        return json.dumps(document, indent=1).encode()

    def decode(self, blob: bytes) -> object:
        return json.loads(blob)

    def _listing_columns(self, document: Mapping[str, object]) -> dict[str, object]:
        result = document.get("result")
        records = result.get("records", []) if isinstance(result, dict) else []
        return {"rows": len(records) if isinstance(records, list) else 0}
