"""One content-addressed store, configured twice: result cache and artifact store.

:class:`ContentStore` holds every mechanism the two stores share, once:
name checks, ``get``/``put``/``exists`` with quarantine of corrupt
entries, first-writer-wins fill claims, the LRU byte budget, listings
and counter draining.  A configuration is a handful of class attributes
plus an ``encode``/``decode`` codec pair:

* :class:`~repro.runner.cache.ResultCache` -- JSON (``indent=1``),
  ``.json`` files, fault sites ``cache.write``/``written``/``claim``/
  ``evict``, counters ``result_*``, root ``<cache root>``, budget
  ``$REPRO_CACHE_MAX_BYTES``;
* :class:`~repro.runner.artifacts.ArtifactStore` -- pickle, ``.pkl``
  files, fault sites ``artifact.*``, counters ``artifact_*``, root
  ``<cache root>/artifacts``, budget ``$REPRO_ARTIFACTS_MAX_BYTES``.

Every entry is one blob under the ``(name, <key><suffix>)`` address of a
:class:`~repro.runner.backends.StoreBackend` -- by default the on-disk
layout ``<root>/<name>/<key><suffix>``.  Corrupt entries (undecodable
bytes, wrong schema, broken document shape) are **quarantined** to
``<root>/corrupt/<name>/`` and tallied, and the read behaves as a miss;
a file that simply vanished (raced ``unlink``) stays a plain miss.

Fills go through one first-writer-wins path, the batch
:meth:`ContentStore.fill`: claim every cell, re-check the won ones,
compute those that missed in one call, put -- and, for each cell a
concurrent filler owns, :meth:`ContentStore.wait_for_fill` for its entry
(taking the claim over if the winner died).  Artifact production fills
one cell through it; a runner's cold experiment cells fill through it as
one batch.

Counters are one :class:`StoreStats` vocabulary: a ``Counter`` keyed by
the persisted flat names (``result_claims``, ``artifact_corrupt``,
``quarantined``, ...) that merges with ``+``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import pickle
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, Mapping

from ..faults import fault_point
from . import default_cache_root
from .backends import (
    CLAIM_POLL_SECONDS,
    QUARANTINE_DIRNAME,
    ClaimTicket,
    DiskBackend,
    StoreBackend,
    claim_ttl_seconds,
    claim_wait_seconds,
    env_number,
    evict_lru,
    path_component,
)

logger = logging.getLogger(__name__)

#: What decoding a corrupt blob (or building an entry from a broken
#: document) can raise -- JSON and pickle failures alike.
DECODE_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
    EOFError,
    ImportError,
    pickle.UnpicklingError,
)


def content_key(schema: int, kind: str, name: str, params_json: str, fingerprint: str) -> str:
    """``sha256`` content address over schema + name + canonical params + code."""
    blob = json.dumps(
        {"schema": schema, kind: name, "params": params_json, "fingerprint": fingerprint},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def quarantine_summary(root: Path) -> dict[str, int]:
    """Entry count and byte total of a store's quarantine sidecar."""
    quarantine = Path(root) / QUARANTINE_DIRNAME
    entries = 0
    size = 0
    if quarantine.is_dir():
        for path in quarantine.rglob("*"):
            try:
                if path.is_file():
                    entries += 1
                    size += path.stat().st_size
            except OSError:  # pragma: no cover - raced deletion
                continue
    return {"entries": entries, "bytes": size}


# -- counters -----------------------------------------------------------------------

#: Counters every store keeps under its own prefix (``result_claims``,
#: ``artifact_claims``, ...), in ``cache stats --json`` section order.
PER_STORE_COUNTERS = ("hits", "misses", "corrupt", "claims", "claim_waits", "evictions", "evicted_bytes")


class StoreStats(Counter):
    """Counters of the result cache and the artifact store.

    Keyed by the persisted flat names of :attr:`FIELDS`; merges with
    ``+`` / ``+=`` and reads as attributes (``stats.result_claims``).
    Persisted under the shared cache root as append-only delta lines
    (see :func:`repro.runner.artifacts.record_stats`).  Only names in
    :attr:`FIELDS` read as zero when absent; any other name raises
    ``KeyError``, so a misspelt or short (unprefixed) read fails loudly.
    """

    FIELDS = (
        "result_hits",
        "result_misses",
        "artifact_hits",
        "artifact_misses",
        #: Corrupt entries detected (and treated as misses) per store.
        "result_corrupt",
        "artifact_corrupt",
        #: Corrupt entries successfully moved into a ``corrupt/`` sidecar dir.
        "quarantined",
        #: Execution units re-attempted after a crash or timeout.
        "retried",
        #: Fill claims won (exactly-once computes under concurrent writers).
        "result_claims",
        "artifact_claims",
        #: Fills lost to a concurrent winner (waited instead of recomputing).
        "result_claim_waits",
        "artifact_claim_waits",
        #: Entries evicted past the store byte budgets, and the bytes freed.
        "result_evictions",
        "artifact_evictions",
        "result_evicted_bytes",
        "artifact_evicted_bytes",
        #: Fill waits that exhausted the hard deadline and computed uncached.
        "claim_wait_timeouts",
        #: Networked-store traffic: entries served by the remote tier,
        #: operations that exhausted their retries, circuit-breaker opens.
        "remote_hits",
        "remote_errors",
        "breaker_opens",
    )

    def __missing__(self, key: str) -> int:
        if key in self.FIELDS:
            return 0
        raise KeyError(key)

    def __getattr__(self, name: str) -> int:
        if name in StoreStats.FIELDS:
            return self[name]
        raise AttributeError(name)

    def __add__(self, other: Counter) -> "StoreStats":
        total = StoreStats(self)
        total += other
        return total

    def to_document(self) -> dict[str, int]:
        return {name: self[name] for name in self.FIELDS}

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "StoreStats":
        return cls({name: document[name] for name in cls.FIELDS if isinstance(document.get(name), int)})


# -- the store ----------------------------------------------------------------------


class ContentStore:
    """Content-addressed store of schema-versioned entries over a backend.

    ``backend`` defaults to :class:`~repro.runner.backends.DiskBackend` at
    ``root`` (or the configuration's default root); pass a
    :class:`~repro.runner.backends.MemoryBackend` for an ephemeral store.
    ``max_bytes`` (default: the configuration's budget variable) bounds
    the store via LRU eviction after every write; ``None``/``0`` leaves it
    unbounded.  Subclasses configure the class attributes below and the
    ``encode``/``decode`` codec.
    """

    #: The entry's name attribute (and listing column): ``experiment``/``artifact``.
    KIND: str
    #: Entry dataclass with ``to_document``/``from_document``; its schema version.
    ENTRY: type
    SCHEMA: int
    SUFFIX: str
    #: Fault-plan site prefix (``<prefix>.write``/``.written``/``.claim``/``.evict``).
    SITE_PREFIX: str
    #: :class:`StoreStats` prefix of this store's per-store counters.
    COUNTER_PREFIX: str
    #: Budget variable and default root (relative to the cache root).
    MAX_BYTES_ENV: str
    DEFAULT_SUBDIR = ""

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StoreBackend | None = None,
        max_bytes: int | None = None,
    ):
        if backend is None:
            backend = DiskBackend(Path(root) if root is not None else default_cache_root() / self.DEFAULT_SUBDIR)
        self.backend = backend
        self.root = backend.root
        if max_bytes is None:
            max_bytes = env_number(self.MAX_BYTES_ENV, None, cast=int, accept=lambda value: value > 0)
        self.max_bytes = max_bytes
        #: Tallies since the last :meth:`drain_stats`; worker threads (the
        #: service's warm probes and jobs, concurrent fillers) share them.
        self._recent = StoreStats()
        self._recent_lock = threading.Lock()

    def __reduce__(self):
        # A worker process gets a fresh store over the same backend and
        # budget; counters and locks stay behind.
        return functools.partial(type(self), backend=self.backend, max_bytes=self.max_bytes), ()

    # -- configuration hooks --------------------------------------------------------

    def encode(self, document: dict[str, object]) -> bytes:
        raise NotImplementedError

    def decode(self, blob: bytes) -> object:
        raise NotImplementedError

    def _listing_columns(self, document: Mapping[str, object]) -> dict[str, object]:
        """Store-specific ``ls`` columns between ``key`` and ``elapsed_seconds``."""
        return {}

    # -- counters -------------------------------------------------------------------

    def _tally(self, counter: str, amount: int = 1) -> None:
        if counter in PER_STORE_COUNTERS:
            counter = f"{self.COUNTER_PREFIX}_{counter}"
        with self._recent_lock:
            self._recent[counter] += amount

    def drain_stats(self) -> StoreStats:
        """Counters tallied since the last drain (prefix-keyed); resets them.

        Keys: ``<prefix>_corrupt``, ``quarantined``, ``<prefix>_claims``
        (fill claims won), ``<prefix>_claim_waits`` (fills lost to a
        concurrent winner), ``claim_wait_timeouts`` (waits that exhausted
        the deadline and degraded to local compute), ``<prefix>_evictions``
        and ``<prefix>_evicted_bytes`` -- plus, when the backend is
        networked, its drained remote counters (``remote_hits`` /
        ``remote_errors`` / ``breaker_opens``).
        """
        with self._recent_lock:
            drained, self._recent = self._recent, StoreStats()
        drain_remote = getattr(self.backend, "drain_remote_counters", None)
        if drain_remote is not None:
            drained.update(drain_remote())
        return drained

    def note_wait(self) -> None:
        """Tally one fill lost to a concurrent winner."""
        self._tally("claim_waits")

    def note_wait_timeout(self) -> None:
        """Tally one wait that exhausted its deadline and computed locally."""
        self._tally("claim_wait_timeouts")

    # -- addressing -----------------------------------------------------------------

    def _address(self, name: str, key: str) -> tuple[str, str]:
        """``(namespace, filename)`` of one entry."""
        return path_component(name, self.KIND), key + self.SUFFIX

    def _stored(self, name: str | None = None) -> Iterator[tuple[str, str]]:
        """Stored ``(namespace, filename)`` pairs of this store, sorted."""
        if name is not None:
            path_component(name, self.KIND)
        for namespace, filename in self.backend.iter(name):
            if filename.endswith(self.SUFFIX):
                yield namespace, filename

    # -- entries --------------------------------------------------------------------

    def exists(self, name: str, key: str) -> bool:
        """Cheap presence probe (no decoding, no LRU touch)."""
        return self.backend.stat(*self._address(name, key)) is not None

    def get(self, name: str, key: str):
        """The stored entry, or ``None`` on a miss.

        Corrupt entries (any readable blob that fails to decode into a
        current-schema entry) are quarantined so they stop being re-read on
        every probe and stay inspectable; the caller simply sees a miss and
        recomputes.  Reads refresh the entry's LRU stamp.
        """
        namespace, filename = self._address(name, key)
        blob = self.backend.get(namespace, filename)
        if blob is None:  # missing or unreadable: a plain miss, not corruption
            return None
        try:
            document = self.decode(blob)
            if not isinstance(document, dict) or document.get("schema") != self.SCHEMA:
                raise ValueError("not a current-schema document")
            return self.ENTRY.from_document(document)
        except DECODE_ERRORS:
            self._tally("corrupt")
            if self.backend.quarantine(namespace, filename):
                self._tally("quarantined")
            return None

    def put(self, key: str, entry) -> None:
        """Atomically persist one entry.

        The write clears any fill claim on the address (entry first, claim
        second -- waiters observing "no claim" are guaranteed the entry)
        and then enforces the store's byte budget.
        """
        name, filename = self._address(getattr(entry, self.KIND), key)
        fault_point(f"{self.SITE_PREFIX}.write", key=name)
        self.backend.put(name, filename, self.encode(entry.to_document()))
        path = self.backend.path(name, filename)
        fault_point(f"{self.SITE_PREFIX}.written", key=name, path=path)
        self._enforce_budget(name, filename)

    # -- concurrent-fill claims -----------------------------------------------------

    def claim(self, name: str, key: str) -> bool:
        """Try to win the fill claim for one content address.

        ``True`` means this process computes the entry (and its ``put``
        clears the claim); ``False`` means a concurrent filler owns it and
        the caller should wait via :meth:`wait_for_fill`.  :meth:`fill`
        runs the whole protocol; callers outside this class use it.
        """
        address = self._address(name, key)
        if not self.backend.claim(*address):
            return False
        try:
            fault_point(f"{self.SITE_PREFIX}.claim", key=name)
        except BaseException:
            # Never leak a claim: a fault/crash between winning and filling
            # would otherwise wedge every waiter until the stale-claim TTL.
            self.backend.release(*address)
            raise
        self._tally("claims")
        return True

    def claim_info(self, name: str, key: str) -> ClaimTicket | None:
        """The in-flight fill ticket for an address, if any."""
        return self.backend.claim_info(*self._address(name, key))

    def release_claim(self, name: str, key: str) -> bool:
        """Drop the claim on an address (no-op if none is held)."""
        return self.backend.release(*self._address(name, key))

    def wait_for_fill(self, name: str, key: str, *, poll_seconds: float = CLAIM_POLL_SECONDS):
        """Poll until a concurrent filler's entry lands, or the caller must compute.

        Returns the winner's entry when the fill completes.  Returns
        ``None`` when the caller should compute instead -- either it now
        *owns* the claim (the previous winner died or released without
        filling) or the wait deadline (``$REPRO_CLAIM_WAIT_SECONDS``)
        expired, in which case the duplicate fill is wasteful but
        deterministic, never corrupting.  Deadline expiries tally
        ``claim_wait_timeouts``; :meth:`ClaimTicket.is_mine` on
        :meth:`claim_info` distinguishes the two ``None`` cases.  Like any
        won claim, a takeover is re-checked before computing (:meth:`fill`
        does this).
        """
        deadline = time.monotonic() + claim_wait_seconds()
        ttl = claim_ttl_seconds()
        while True:
            entry = self.get(name, key)
            if entry is not None:
                return entry
            ticket = self.claim_info(name, key)
            if ticket is None or ticket.is_stale(ttl_seconds=ttl):
                # The writer vanished (released without filling) or died
                # mid-fill.  Entries land before claims clear, so first
                # re-check for a fill that completed between the ``get`` above
                # and the ticket read -- claiming in that window would tally a
                # spurious takeover in the claim counters.
                entry = self.get(name, key)
                if entry is not None:
                    return entry
                # Break exactly that ticket and take the claim over.
                if ticket is not None:
                    self.backend.release(*self._address(name, key), owner=ticket)
                if self.claim(name, key):
                    return None  # we own the claim: re-check, then compute
            if time.monotonic() >= deadline:
                # Hard-deadline exhaustion: degrade to computing locally
                # rather than raising or spinning forever.  The caller does
                # NOT own the claim here -- its result lands uncached (the
                # winner's entry, whenever it arrives, stays authoritative).
                self.note_wait_timeout()
                return None
            time.sleep(poll_seconds)

    def fill(self, cells: list[tuple[str, str]], compute: Callable[[list[int]], list]) -> list[tuple[object, bool]]:
        """First-writer-wins load-or-compute of ``(name, key)`` cells: ``(entry, computed)`` each.

        Every cell is claimed first.  A won claim is re-checked: a miss that
        predates another filler's put can still win a fresh claim.
        ``compute(indices)`` receives, in one call, the won cells whose
        re-check missed and returns their entries in that order, so a
        caller can fan them out as one batch.  Each lost cell tallies a
        claim wait and waits for the winner's entry (``computed`` is
        ``False``); a dead winner's claim is taken over, re-checked and the
        cell computed, while a blown wait deadline computes the cell
        *uncached*, never touching the claim some live filler still owns.
        A put that fails with ``OSError`` (a full or read-only disk)
        releases its claim and serves the entry uncached.  Any exception
        releases every owned claim that is still held.
        """
        filled: list[tuple[object, bool] | None] = [None] * len(cells)
        held: set[int] = set()  # owned claims that no put or release has cleared yet

        def missed(index: int) -> bool:
            entry = self.get(*cells[index])
            if entry is not None:
                self.release_claim(*cells[index])
                held.discard(index)
                filled[index] = entry, False
            return entry is None

        def compute_into(indices: list[int]) -> None:
            for index, entry in zip(indices, compute(indices)):
                if index in held:
                    try:
                        self.put(cells[index][1], entry)
                    except OSError as error:
                        name = cells[index][0]
                        self.release_claim(name, cells[index][1])
                        logger.warning(
                            "%s write failed for %s %s (%s); continuing uncached",
                            self.SITE_PREFIX, self.KIND, name, error,
                        )
                    held.discard(index)
                filled[index] = entry, True

        try:
            lost = []
            for index, (name, key) in enumerate(cells):
                if self.claim(name, key):
                    held.add(index)
                else:
                    self.note_wait()
                    lost.append(index)
            won = [index for index in sorted(held) if missed(index)]
            if won:
                compute_into(won)
            for index in lost:
                name, key = cells[index]
                entry = self.wait_for_fill(name, key)
                if entry is not None:
                    filled[index] = entry, False
                    continue
                # Took the claim over (dead winner), or the deadline expired
                # while someone else still owns it.
                ticket = self.claim_info(name, key)
                if ticket is not None and ticket.is_mine():
                    held.add(index)
                    if not missed(index):
                        continue
                compute_into([index])
        except BaseException:
            # Never leak a claim: waiters elsewhere would stall until the TTL.
            for index in held:
                self.release_claim(*cells[index])
            raise
        return filled

    # -- bounded store --------------------------------------------------------------

    def _enforce_budget(self, namespace: str, filename: str) -> None:
        """LRU-evict past ``max_bytes``, protecting the entry just written."""
        if not self.max_bytes:
            return

        def on_evict(evicted_namespace: str, evicted_name: str) -> None:
            fault_point(f"{self.SITE_PREFIX}.evict", key=f"{evicted_namespace}/{evicted_name}")

        evicted, freed = evict_lru(self.backend, self.max_bytes, keep={(namespace, filename)}, on_evict=on_evict)
        if evicted:
            logger.debug(
                "evicted %d entr%s (%d bytes) past the %d-byte budget",
                evicted, "y" if evicted == 1 else "ies", freed, self.max_bytes,
            )
        self._tally("evictions", evicted)
        self._tally("evicted_bytes", freed)

    # -- listings -------------------------------------------------------------------

    def ls(self, name: str | None = None) -> list[dict[str, object]]:
        """Metadata summary of stored entries.

        A pure read: no LRU touch, no quarantine -- an undecodable entry is
        listed under its namespace with empty metadata.
        """
        listing = []
        for namespace, filename in self._stored(name):
            try:
                document = self.decode(self.backend.get(namespace, filename, touch=False))
            except DECODE_ERRORS:
                document = None
            if not isinstance(document, dict):
                document = {}
            provenance = document.get("provenance")
            if not isinstance(provenance, dict):
                provenance = {}
            stamp = self.backend.stat(namespace, filename)
            listing.append(
                {
                    self.KIND: document.get(self.KIND, namespace),
                    "key": filename[: -len(self.SUFFIX)],
                    **self._listing_columns(document),
                    "elapsed_seconds": document.get("elapsed_seconds"),
                    "created_unix": provenance.get("created_unix"),
                    "size_bytes": stamp.size_bytes if stamp else 0,
                }
            )
        return listing

    def clear(self, name: str | None = None) -> int:
        """Delete stored entries (optionally of one name); returns count."""
        return sum(1 for namespace, filename in list(self._stored(name)) if self.backend.delete(namespace, filename))
