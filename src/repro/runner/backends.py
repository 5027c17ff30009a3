"""Pluggable storage backends for the content-addressed stores.

Both stores are one :class:`~repro.runner.store.ContentStore` in two
configurations (the JSON result cache and the pickled artifact store),
and the store speaks one byte-level :class:`StoreBackend` protocol:
entries are opaque blobs addressed by a ``(namespace, filename)`` pair
(namespace = experiment/artifact name, filename = ``<content key> +
suffix``).  The store keeps all semantics -- serialisation, schema
checks, corruption quarantine, counters, fault sites -- while backends
own durability, atomicity and the concurrency primitives:

* **first-writer-wins claims** -- ``claim()`` creates a per-entry claim
  ticket with ``O_CREAT | O_EXCL`` (the :mod:`repro.faults` ticket
  idiom), so exactly one of N processes cold-filling the same content
  address wins.  A claim records ``{pid, host, created_unix}`` so a dead
  winner (killed mid-fill) is detected and the claim taken over.  The
  fill protocol on top -- claim, compute, put; losers poll for the
  winner's entry -- is :meth:`~repro.runner.store.ContentStore.fill` and
  :meth:`~repro.runner.store.ContentStore.wait_for_fill`;
* **access-time sidecars** -- every read touches a per-entry ``.atime``
  sidecar, giving :func:`evict_lru` an LRU order without rewriting
  entries;
* **bounded stores** -- :func:`evict_lru` deletes least-recently-used
  entries past a byte budget, never touching in-flight fills (claimed
  entries), the entry just written, or anything under a reserved
  namespace (``corrupt/`` quarantine sidecars, ``artifacts/``,
  ``jobs/``).

Two backends ship here: :class:`DiskBackend` (the default; preserves the
exact on-disk layout the stores have always used, so existing caches
stay valid) and :class:`MemoryBackend` (lock-guarded dicts; used by
tests and the HTTP service's warm-path L1).  The networked backends of
:mod:`repro.runner.netstore` plug into the same seam.  The module also
holds the small helpers every runner layer shares: :func:`env_number`
(the one environment-variable parser), :func:`path_component` (the one
name check that keeps store addresses inside their root),
:func:`atomic_write`, the claim wait/TTL knobs, and :func:`backoff_delay`
(exponential backoff with deterministic jitter).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

#: Wait budget (seconds) of a claim loser polling for the winner's fill.
ENV_CLAIM_WAIT = "REPRO_CLAIM_WAIT_SECONDS"
DEFAULT_CLAIM_WAIT_SECONDS = 600.0

#: Age (seconds) past which a claim is considered abandoned even when its
#: owner cannot be probed (another host, unreadable ticket).
ENV_CLAIM_TTL = "REPRO_CLAIM_TTL_SECONDS"
DEFAULT_CLAIM_TTL_SECONDS = 900.0

#: Poll interval (seconds) of a fill waiter.
CLAIM_POLL_SECONDS = 0.05

#: Sidecar directory (under a store root) corrupt entries are moved into.
QUARANTINE_DIRNAME = "corrupt"

#: Directory names under a store root that iteration/eviction must never
#: touch: the corruption quarantine, the nested artifact store and the
#: service's job journal.
RESERVED_NAMESPACES = frozenset({QUARANTINE_DIRNAME, "artifacts", "jobs"})

_HOST = socket.gethostname()


def env_number(
    name: str,
    default,
    *,
    cast: Callable[[str], float] = float,
    accept: Callable[[float], bool] | None = None,
):
    """``$name`` parsed with ``cast``, else ``default``.

    Unset, empty and unparsable values give ``default``, and so do parsed
    values the ``accept`` predicate (when given) rejects -- e.g.
    ``accept=lambda value: value > 0`` for a strictly positive knob.
    """
    text = os.environ.get(name)
    if not text:
        return default
    try:
        value = cast(text)
    except ValueError:
        return default
    return value if accept is None or accept(value) else default


def path_component(name: str, kind: str) -> str:
    """``name`` when it is a single path component, else ``ValueError`` -- never traversal."""
    if Path(name).name != name or name in ("", ".", ".."):
        raise ValueError(f"invalid {kind} name {name!r}")
    return name


def atomic_write(path: Path, blob: bytes, *, durable: bool = False) -> None:
    """Replace ``path`` with ``blob`` via a temp file and ``os.replace``; ``durable`` fsyncs first."""
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name[:8]}-", suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(blob)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def backoff_delay(attempt: int, seed: str, *, base: float, cap: float) -> float:
    """Exponential backoff with deterministic sha256 jitter (seeded, not random).

    Jitter spreads simultaneous retries without sacrificing reproducible
    runs: the same ``(seed, attempt)`` always waits the same time, in
    ``[delay / 2, delay]`` for ``delay = min(cap, base * 2 ** (attempt - 1))``.
    """
    delay = min(cap, base * (2 ** max(0, attempt - 1)))
    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return delay * (0.5 + 0.5 * digest[0] / 255.0)


def claim_wait_seconds() -> float:
    """How long a claim loser waits for the winner before computing anyway."""
    return env_number(ENV_CLAIM_WAIT, DEFAULT_CLAIM_WAIT_SECONDS)


def claim_ttl_seconds() -> float:
    """Age past which any claim is treated as abandoned."""
    return env_number(ENV_CLAIM_TTL, DEFAULT_CLAIM_TTL_SECONDS)


@dataclass(frozen=True)
class EntryStat:
    """Size and last-access stamp of one stored entry."""

    size_bytes: int
    accessed_unix: float


@dataclass(frozen=True)
class ClaimTicket:
    """Provenance of one in-flight fill claim (who is computing the entry)."""

    pid: int
    host: str
    created_unix: float

    @classmethod
    def mine(cls) -> "ClaimTicket":
        """A fresh ticket naming this process."""
        return cls(pid=os.getpid(), host=_HOST, created_unix=round(time.time(), 3))

    def is_mine(self) -> bool:
        """Whether this ticket names the current process."""
        return self.pid == os.getpid() and self.host == _HOST

    def to_document(self) -> dict[str, object]:
        return {"pid": self.pid, "host": self.host, "created_unix": self.created_unix}

    @classmethod
    def from_document(cls, document: object) -> "ClaimTicket":
        """Parse a ticket document; unreadable ones come back torn (``created_unix`` 0)."""
        if not isinstance(document, dict):
            document = {}
        try:
            return cls(
                pid=int(document.get("pid", -1)),
                host=str(document.get("host", "")),
                created_unix=float(document.get("created_unix", 0.0)),
            )
        except (TypeError, ValueError):
            return cls(pid=-1, host="", created_unix=0.0)

    def is_stale(self, *, ttl_seconds: float | None = None) -> bool:
        """Whether the claiming process is provably (or presumably) gone.

        Same-host claims are probed directly (``kill -0``); claims from
        other hosts -- or unreadable tickets -- fall back to the age TTL.
        """
        ttl = ttl_seconds if ttl_seconds is not None else claim_ttl_seconds()
        if self.created_unix <= 0:  # unreadable/torn ticket: treat as abandoned
            return True
        if self.host == _HOST and self.pid > 0:
            try:
                os.kill(self.pid, 0)
            except ProcessLookupError:
                return True
            except OSError:  # pragma: no cover - e.g. EPERM: alive, not ours
                pass
            # The owner is alive; only a blown TTL (wedged fill) unseats it.
        return time.time() - self.created_unix > ttl


@runtime_checkable
class StoreBackend(Protocol):
    """Byte-level storage seam shared by the result cache and artifact store.

    Entries are opaque blobs under ``(namespace, filename)``.  ``put`` must
    be atomic (readers see the old blob, the new blob, or a miss -- never a
    torn write) and must clear any fill claim on the entry once the blob is
    visible.  ``iter`` must skip claim/atime sidecars and reserved
    namespaces.  ``root`` is the backing directory (``None`` for
    non-filesystem backends).
    """

    root: Path | None

    def get(self, namespace: str, filename: str, *, touch: bool = True) -> bytes | None: ...

    def put(self, namespace: str, filename: str, blob: bytes) -> None: ...

    def delete(self, namespace: str, filename: str) -> bool: ...

    def iter(self, namespace: str | None = None) -> Iterator[tuple[str, str]]: ...

    def stat(self, namespace: str, filename: str) -> EntryStat | None: ...

    def path(self, namespace: str, filename: str) -> Path | None: ...

    def touch(self, namespace: str, filename: str) -> None: ...

    def claim(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool: ...

    def claim_info(self, namespace: str, filename: str) -> ClaimTicket | None: ...

    def release(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool: ...

    def quarantine(self, namespace: str, filename: str) -> bool: ...


class DiskBackend:
    """The default backend: one directory per namespace, one file per entry.

    Layout is byte-for-byte the one the stores have always written
    (``<root>/<namespace>/<key>.<suffix>``, quarantine under
    ``<root>/corrupt/<namespace>/``), so existing caches remain valid.
    Two hidden sidecars ride next to each entry: ``.<filename>.atime``
    (mtime = last access, for LRU eviction) and ``.<filename>.claim``
    (the in-flight fill ticket).  Hidden files never match ``iter``.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _file(self, namespace: str, filename: str) -> Path:
        return self.root / namespace / filename

    def _sidecar(self, namespace: str, filename: str, kind: str) -> Path:
        return self.root / namespace / f".{filename}.{kind}"

    def _drop_sidecars(self, namespace: str, filename: str) -> None:
        for kind in ("atime", "claim"):
            try:
                os.unlink(self._sidecar(namespace, filename, kind))
            except OSError:
                pass

    def path(self, namespace: str, filename: str) -> Path | None:
        return self._file(namespace, filename)

    def get(self, namespace: str, filename: str, *, touch: bool = True) -> bytes | None:
        try:
            blob = self._file(namespace, filename).read_bytes()
        except OSError:
            return None
        if touch:
            self.touch(namespace, filename)
        return blob

    def touch(self, namespace: str, filename: str) -> None:
        sidecar = self._sidecar(namespace, filename, "atime")
        try:
            os.utime(sidecar)
        except OSError:
            try:
                sidecar.parent.mkdir(parents=True, exist_ok=True)
                sidecar.touch()
            except OSError:  # read-only store: LRU order degrades to mtime
                pass

    def put(self, namespace: str, filename: str, blob: bytes) -> None:
        path = self._file(namespace, filename)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, blob)
        self.touch(namespace, filename)
        # Entry first, claim second: a waiter that observes "no claim" is
        # then guaranteed to find the entry (or a writer that truly died).
        self.release(namespace, filename)

    def delete(self, namespace: str, filename: str) -> bool:
        removed = False
        try:
            os.unlink(self._file(namespace, filename))
            removed = True
        except OSError:
            pass
        self._drop_sidecars(namespace, filename)
        return removed

    def iter(self, namespace: str | None = None) -> Iterator[tuple[str, str]]:
        if namespace is not None:
            directories = [self.root / namespace]
        elif self.root.is_dir():
            directories = sorted(
                child
                for child in self.root.iterdir()
                if child.is_dir() and child.name not in RESERVED_NAMESPACES
            )
        else:
            return
        for directory in directories:
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if path.name.startswith(".") or not path.is_file():
                    continue
                yield directory.name, path.name

    def stat(self, namespace: str, filename: str) -> EntryStat | None:
        try:
            stamp = self._file(namespace, filename).stat()
        except OSError:
            return None
        accessed = stamp.st_mtime
        try:
            accessed = self._sidecar(namespace, filename, "atime").stat().st_mtime
        except OSError:
            pass
        return EntryStat(size_bytes=stamp.st_size, accessed_unix=accessed)

    def claim(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        token = self._sidecar(namespace, filename, "claim")
        try:
            token.parent.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # A store that cannot even create the ticket cannot coordinate;
            # pretend we won so work proceeds (the write degrades later).
            return True
        # ``owner`` lets a store *server* record the claiming client's
        # identity instead of its own, so staleness probing sees the real
        # owner.
        with os.fdopen(descriptor, "w") as handle:
            handle.write(json.dumps((owner or ClaimTicket.mine()).to_document()))
        return True

    def claim_info(self, namespace: str, filename: str) -> ClaimTicket | None:
        token = self._sidecar(namespace, filename, "claim")
        try:
            text = token.read_text()
        except OSError:
            return None
        try:
            ticket = ClaimTicket.from_document(json.loads(text))
        except ValueError:
            ticket = ClaimTicket.from_document(None)
        if ticket.created_unix <= 0:
            # An unreadable ticket is either *mid-write* (``claim`` makes the
            # file visible via O_EXCL before its bytes land) or truly torn by
            # a killed writer.  The two are indistinguishable from the bytes,
            # so age it by file mtime: a just-created ticket stays fresh (no
            # stolen live claims), a genuinely torn one expires via the TTL.
            try:
                ticket = ClaimTicket(
                    pid=ticket.pid, host=ticket.host, created_unix=token.stat().st_mtime
                )
            except OSError:  # raced away: report the torn ticket as-is
                pass
        return ticket

    def release(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        if owner is not None:
            current = self.claim_info(namespace, filename)
            if current != owner:  # somebody else re-claimed already
                return False
        try:
            os.unlink(self._sidecar(namespace, filename, "claim"))
        except OSError:
            return False
        return True

    def quarantine(self, namespace: str, filename: str) -> bool:
        """Move a corrupt entry under ``<root>/corrupt/``; same-fs ``os.replace``."""
        destination = self.root / QUARANTINE_DIRNAME / namespace / filename
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self._file(namespace, filename), destination)
        except OSError:  # lost the race; the entry is gone either way
            return False
        self._drop_sidecars(namespace, filename)
        return True


class MemoryBackend:
    """In-memory backend: lock-guarded dicts, monotonic-counter LRU order.

    Used by tests and as the HTTP service's warm-path L1 in front of the
    on-disk store.  ``root`` is ``None``; quarantine simply drops the
    corrupt blob (there is nothing durable to keep for forensics).
    """

    def __init__(self):
        self.root: Path | None = None
        self._lock = threading.Lock()
        self._blobs: dict[tuple[str, str], bytes] = {}
        self._accessed: dict[tuple[str, str], float] = {}
        self._claims: dict[tuple[str, str], ClaimTicket] = {}
        self._tick = 0.0

    def _touch_locked(self, address: tuple[str, str]) -> None:
        self._tick += 1.0
        self._accessed[address] = self._tick

    def path(self, namespace: str, filename: str) -> Path | None:
        return None

    def get(self, namespace: str, filename: str, *, touch: bool = True) -> bytes | None:
        with self._lock:
            blob = self._blobs.get((namespace, filename))
            if blob is not None and touch:
                self._touch_locked((namespace, filename))
            return blob

    def touch(self, namespace: str, filename: str) -> None:
        with self._lock:
            if (namespace, filename) in self._blobs:
                self._touch_locked((namespace, filename))

    def put(self, namespace: str, filename: str, blob: bytes) -> None:
        with self._lock:
            self._blobs[(namespace, filename)] = bytes(blob)
            self._touch_locked((namespace, filename))
            self._claims.pop((namespace, filename), None)

    def delete(self, namespace: str, filename: str) -> bool:
        with self._lock:
            self._accessed.pop((namespace, filename), None)
            self._claims.pop((namespace, filename), None)
            return self._blobs.pop((namespace, filename), None) is not None

    def iter(self, namespace: str | None = None) -> Iterator[tuple[str, str]]:
        with self._lock:
            addresses = sorted(self._blobs)
        for stored_namespace, filename in addresses:
            if namespace is not None and stored_namespace != namespace:
                continue
            if stored_namespace in RESERVED_NAMESPACES:
                continue
            yield stored_namespace, filename

    def stat(self, namespace: str, filename: str) -> EntryStat | None:
        with self._lock:
            blob = self._blobs.get((namespace, filename))
            if blob is None:
                return None
            return EntryStat(
                size_bytes=len(blob),
                accessed_unix=self._accessed.get((namespace, filename), 0.0),
            )

    def claim(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        with self._lock:
            if (namespace, filename) in self._claims:
                return False
            self._claims[(namespace, filename)] = owner or ClaimTicket.mine()
            return True

    def claim_info(self, namespace: str, filename: str) -> ClaimTicket | None:
        with self._lock:
            return self._claims.get((namespace, filename))

    def release(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        with self._lock:
            current = self._claims.get((namespace, filename))
            if current is None or (owner is not None and current != owner):
                return False
            del self._claims[(namespace, filename)]
            return True

    def quarantine(self, namespace: str, filename: str) -> bool:
        return self.delete(namespace, filename)


def evict_lru(
    backend: StoreBackend,
    max_bytes: int,
    *,
    keep: Iterable[tuple[str, str]] = (),
    on_evict: Callable[[str, str], None] | None = None,
) -> tuple[int, int]:
    """Delete least-recently-used entries until the store fits ``max_bytes``.

    Never evicts entries named in ``keep`` (the entry just written), entries
    with a live fill claim (in-flight refills), or anything a backend's
    ``iter`` hides (reserved namespaces -- quarantine sidecars do not count
    toward the budget and are never deleted here).  An entry larger than
    the whole budget therefore survives while protected: the store is
    bounded by ``max(max_bytes, largest single entry)``.  Returns
    ``(entries evicted, bytes freed)``; deletions are best-effort.
    """
    protected = set(keep)
    candidates: list[tuple[float, str, str, int]] = []
    total = 0
    for namespace, filename in backend.iter():
        stamp = backend.stat(namespace, filename)
        if stamp is None:  # raced away mid-scan
            continue
        total += stamp.size_bytes
        candidates.append((stamp.accessed_unix, namespace, filename, stamp.size_bytes))
    if total <= max_bytes:
        return 0, 0
    evicted = 0
    freed = 0
    for _accessed, namespace, filename, size in sorted(candidates):
        if total - freed <= max_bytes:
            break
        if (namespace, filename) in protected:
            continue
        if backend.claim_info(namespace, filename) is not None:
            continue  # an in-flight fill owns this address
        if on_evict is not None:
            on_evict(namespace, filename)
        if backend.delete(namespace, filename):
            evicted += 1
            freed += size
    return evicted, freed
