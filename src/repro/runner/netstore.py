"""Networked store backend: a shared :class:`DiskBackend` served over TCP.

The :class:`~repro.runner.backends.StoreBackend` seam was built so a
fleet of runners could share one content-addressed store; this module is
the missing transport, wrapped in the robustness envelope a new single
point of failure demands:

* **protocol** -- length-prefixed binary frames (two big-endian ``u32``
  lengths, a JSON header, an opaque blob) carrying every backend
  operation: ``get``/``put``/``stat``/``claim``/``claim_info``/
  ``release``/``delete``/``iter``/``touch``/``quarantine`` (plus
  ``ping`` for health probes);
* **server** -- :class:`StoreServer` (``python -m repro store serve``),
  a threaded TCP server over a :class:`DiskBackend` root whose requests
  are all answered by :func:`_dispatch`.  Claim semantics are
  enforced server-side: the ``O_CREAT | O_EXCL`` ticket is created on the
  server with the *client's* ``{pid, host}`` identity, so same-host
  staleness probing still works and cross-host staleness degrades to the
  ``REPRO_CLAIM_TTL_SECONDS`` TTL exactly as documented;
* **client** -- :class:`RemoteBackend`, the same protocol with one retry
  loop per operation (:meth:`RemoteBackend._call`), per-operation
  deadlines (``$REPRO_STORE_TIMEOUT_SECONDS``), bounded
  retries with the shared deterministic sha256-jittered exponential
  backoff (:func:`~repro.runner.backends.backoff_delay`) and a
  closed -> open -> half-open circuit breaker;
* **tiering** -- :class:`TieredBackend` composes the remote over a local
  :class:`DiskBackend`: writes go through local-first, reads check local
  then remote (remote hits are promoted into the local tier), and while
  the circuit is open every operation degrades to local-only.  Server
  death, hangs, torn frames and partitions therefore cost latency, never
  correctness: runs complete bit-identical to a local-only run.

Fault sites (see :mod:`repro.faults`): ``net.connect`` / ``net.send`` /
``net.recv`` fire client-side around the socket operations of each
request (key = operation name); ``net.server`` fires server-side per
request -- an ``exc`` there tears the connection like a crashed server.

Every request's namespace and filename must be a single path component
(:func:`~repro.runner.backends.path_component`), so no client can address
a file outside the server root; a rejected name is answered with an
application error, which costs no retry and never trips the breaker.

Consumers (CLI, facade, executor workers) import this module lazily, so
runs without a store URL never pay for loading the socket machinery.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import socket
import socketserver
import struct
import threading
import time
from pathlib import Path

from ..faults import FaultInjected, fault_point
from .backends import ClaimTicket, DiskBackend, EntryStat, backoff_delay, env_number, evict_lru, path_component

logger = logging.getLogger(__name__)

#: Wire-format version; servers reject frames from a different major.
PROTOCOL_VERSION = 1

#: Frame = two big-endian u32 lengths, then header bytes, then blob bytes.
_FRAME_HEADER = struct.Struct("!II")

#: Upper bounds that keep a torn/garbage length prefix from allocating
#: gigabytes: headers are small JSON, blobs are store entries.
MAX_HEADER_BYTES = 1 << 20
MAX_BLOB_BYTES = 1 << 28

#: The server's sub-store names: ``""`` mirrors the result-cache root,
#: ``"artifacts"`` the nested artifact store -- one server serves both.
ARTIFACT_SUBROOT = "artifacts"
_SUBROOTS = ("", ARTIFACT_SUBROOT)

#: Client knobs (read at :class:`RemoteBackend` construction).
ENV_STORE_TIMEOUT = "REPRO_STORE_TIMEOUT_SECONDS"
ENV_STORE_RETRIES = "REPRO_STORE_RETRIES"

DEFAULT_TIMEOUT_SECONDS = 5.0
DEFAULT_RETRIES = 2
DEFAULT_BREAKER_FAILURES = 3
DEFAULT_BREAKER_RESET_SECONDS = 10.0

#: Backoff envelope of the client's bounded retries (seconds).
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 0.5

class StoreProtocolError(RuntimeError):
    """The peer spoke, but not the protocol (torn frame, bad op, error reply)."""


class StoreUnavailableError(ConnectionError):
    """The remote store cannot be reached (timeouts/refusals/open circuit)."""


def parse_store_url(url: str) -> tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    text = url.strip()
    if "//" in text:
        scheme, _separator, rest = text.partition("//")
        if scheme not in ("tcp:", ""):
            raise ValueError(f"store url {url!r}: only tcp:// is supported")
        text = rest
    host, separator, port_text = text.rpartition(":")
    if not separator or not host or not port_text:
        raise ValueError(f"store url {url!r} is not 'tcp://host:port'")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"store url {url!r}: port {port_text!r} is not an integer") from None
    if not 0 < port < 65536:
        raise ValueError(f"store url {url!r}: port {port} out of range")
    return host, port


# -- framing ------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes; raises on EOF mid-read (a torn frame)."""
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise StoreProtocolError(f"connection closed mid-frame ({remaining} bytes short)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(sock: socket.socket, header: dict[str, object], blob: bytes = b"") -> None:
    """Send one frame: lengths, compact JSON header, blob."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    sock.sendall(_FRAME_HEADER.pack(len(header_bytes), len(blob)) + header_bytes + blob)


def read_frame(sock: socket.socket) -> tuple[dict[str, object], bytes]:
    """Receive one frame; raises :class:`StoreProtocolError` on garbage.

    A clean EOF *before* any length byte raises :class:`EOFError`, so
    callers can tell a peer that closed between frames from a torn frame.
    """
    prefix = sock.recv(_FRAME_HEADER.size)
    if not prefix:
        raise EOFError("connection closed")
    if len(prefix) < _FRAME_HEADER.size:
        prefix += _recv_exact(sock, _FRAME_HEADER.size - len(prefix))
    header_size, blob_size = _FRAME_HEADER.unpack(prefix)
    if header_size > MAX_HEADER_BYTES or blob_size > MAX_BLOB_BYTES:
        raise StoreProtocolError(
            f"frame too large (header {header_size}, blob {blob_size} bytes)"
        )
    try:
        header = json.loads(_recv_exact(sock, header_size))
    except ValueError as error:
        raise StoreProtocolError(f"undecodable frame header: {error}") from None
    if not isinstance(header, dict):
        raise StoreProtocolError("frame header is not an object")
    return header, _recv_exact(sock, blob_size)


# -- server -------------------------------------------------------------------------


def _owner(document: object) -> ClaimTicket | None:
    """The claim owner a client sent (``None``: none, i.e. the serving process)."""
    return ClaimTicket.from_document(document) if isinstance(document, dict) else None


#: The reply field of each op answered by one boolean; the client reads the same map.
_FLAG_REPLIES = {"delete": "deleted", "claim": "claimed", "release": "released", "quarantine": "quarantined"}


def _dispatch(
    server: "StoreServer", header: dict[str, object], blob: bytes
) -> tuple[dict[str, object], bytes]:
    """The reply to one request; an exception raised here is answered as an application error."""
    op = str(header.get("op", ""))
    fault_point("net.server", key=op)
    if int(header.get("v", PROTOCOL_VERSION)) != PROTOCOL_VERSION:
        return {"ok": False, "error": f"unsupported protocol version {header.get('v')}"}, b""
    sub = str(header.get("sub", ""))
    backend = server.backends.get(sub)
    if backend is None:
        return {"ok": False, "error": f"unknown subroot {sub!r}"}, b""
    if op == "ping":
        return {
            "ok": True,
            "server": {"root": str(server.root), "pid": os.getpid(), "v": PROTOCOL_VERSION},
        }, b""
    namespace = str(header.get("ns", ""))
    filename = str(header.get("fn", ""))
    # Names must stay inside the root; only ``iter`` may leave them empty.
    for kind, name in (("ns", namespace), ("fn", filename)):
        if name or op != "iter":
            path_component(name, kind)
    if op in _FLAG_REPLIES:
        # Claims are made and released with the *client's* identity, so
        # staleness probing sees the real owner, not the server process.
        owner = {"owner": _owner(header.get("owner"))} if op in ("claim", "release") else {}
        return {"ok": True, _FLAG_REPLIES[op]: getattr(backend, op)(namespace, filename, **owner)}, b""
    if op == "get":
        entry = backend.get(namespace, filename, touch=bool(header.get("touch", True)))
        return {"ok": True, "found": entry is not None}, entry or b""
    if op == "put":
        backend.put(namespace, filename, blob)
        budget = server.max_bytes
        if budget:
            evicted, freed = evict_lru(backend, budget, keep={(namespace, filename)})
            if evicted:
                logger.info("store server evicted %d entries (%d bytes)", evicted, freed)
        return {"ok": True}, b""
    if op == "stat":
        stamp = backend.stat(namespace, filename)
        if stamp is None:
            return {"ok": True, "found": False}, b""
        return {
            "ok": True,
            "found": True,
            "size": stamp.size_bytes,
            "accessed": stamp.accessed_unix,
        }, b""
    if op == "touch":
        backend.touch(namespace, filename)
        return {"ok": True}, b""
    if op == "iter":
        target = namespace or None
        entries = [[ns, fn] for ns, fn in backend.iter(target)]
        return {"ok": True, "entries": entries}, b""
    if op == "claim_info":
        ticket = backend.claim_info(namespace, filename)
        return {"ok": True, "ticket": ticket.to_document() if ticket is not None else None}, b""
    return {"ok": False, "error": f"unknown op {op!r}"}, b""


class StoreServer(socketserver.ThreadingTCPServer):
    """A threaded store server over a local :class:`DiskBackend` root.

    ``port=0`` binds an ephemeral port (read it back via :attr:`port`);
    ``max_bytes`` bounds each sub-store with LRU eviction after every
    ``put`` (claimed entries and reserved namespaces survive, exactly as
    for a local bounded store).  Usable as a context manager in tests.
    """

    allow_reuse_address = True
    daemon_threads = True
    #: Seconds a connection may sit idle between frames before the server
    #: reclaims its thread.
    idle_timeout = 300.0

    def __init__(
        self,
        root: Path | str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_bytes: int | None = None,
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.backends = {sub: DiskBackend(self.root / sub if sub else self.root) for sub in _SUBROOTS}
        self._thread: threading.Thread | None = None
        # No handler class: :meth:`finish_request` serves each connection itself.
        super().__init__((host, port), None)
        self.host, self.port = self.server_address[:2]  # the bound address (``port=0`` picks one)
        self.url = f"tcp://{self.host}:{self.port}"

    def finish_request(self, sock: socket.socket, client_address: object) -> None:
        """One connection: a loop of request frames until the client hangs up."""
        sock.settimeout(self.idle_timeout)
        while True:
            try:
                header, blob = read_frame(sock)
            except (EOFError, OSError, StoreProtocolError):
                return  # clean hang-up between frames, torn frame or dead socket: nothing to answer
            try:
                response, payload = _dispatch(self, header, blob)
            except FaultInjected:
                # An injected server fault behaves like a crashed request:
                # drop the connection so the client exercises its retries.
                return
            except Exception as error:  # application error: answer, keep going
                response, payload = {"ok": False, "error": f"{type(error).__name__}: {error}"}, b""
            try:
                write_frame(sock, response, payload)
            except OSError:
                return

    def start(self) -> "StoreServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-store-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            # ``shutdown`` waits for a serving loop; only a started server has one.
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.close()


def serve_store(
    *, host: str, port: int, root: Path | str, max_bytes: int | None = None
) -> int:
    """Blocking entry point behind ``python -m repro store serve``."""
    server = StoreServer(root, host=host, port=port, max_bytes=max_bytes)
    budget = f", max-bytes={max_bytes}" if max_bytes else ""
    print(f"repro store serving {server.root} at {server.url}{budget}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


# -- circuit breaker ----------------------------------------------------------------


class CircuitBreaker:
    """Closed -> open -> half-open breaker over consecutive op failures.

    ``failures`` consecutive failed operations open the circuit; while
    open, calls fast-fail without touching the network.  After
    ``reset_seconds`` one probe call is allowed through (half-open): a
    success closes the circuit, a failure re-opens it for another cooldown.
    ``degraded_seconds`` accumulates total open/half-open wall-clock time.
    """

    def __init__(self, *, failures: int, reset_seconds: float):
        self.failure_threshold = max(1, failures)
        self.reset_seconds = reset_seconds
        self.state = "closed"
        self.opens = 0
        self._consecutive = 0
        self._opened_at: float | None = None  # start of the current degraded span
        self._cooldown_from = 0.0  # start of the current open cooldown
        self._degraded = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether a call may proceed (True flips open -> half-open on expiry)."""
        with self._lock:
            if self.state == "open" and time.monotonic() - self._cooldown_from >= self.reset_seconds:
                self.state = "half_open"
            return self.state != "open"  # closed, or half-open: let the probe(s) through

    def record_success(self) -> None:
        with self._lock:
            if self._opened_at is not None:
                self._degraded += time.monotonic() - self._opened_at
                self._opened_at = None
            self.state = "closed"
            self._consecutive = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive += 1
            if self.state == "half_open":
                # The probe failed: stay degraded, restart the cooldown, but
                # keep the original ``_opened_at`` so degraded time is
                # continuous across probe cycles.
                self.state = "open"
                self._cooldown_from = time.monotonic()
            elif self.state == "closed" and self._consecutive >= self.failure_threshold:
                self.state = "open"
                self.opens += 1
                self._opened_at = time.monotonic()
                self._cooldown_from = self._opened_at

    def degraded_seconds(self) -> float:
        with self._lock:
            accumulated = self._degraded
            if self._opened_at is not None:
                accumulated += time.monotonic() - self._opened_at
            return accumulated


# -- client -------------------------------------------------------------------------


#: Transport-level failures that count against retries and the breaker.
#: ``FaultInjected`` is included so seeded ``net.*`` chaos plans exercise
#: exactly the retry/breaker path a real network fault would.
_TRANSPORT_ERRORS = (OSError, EOFError, StoreProtocolError, FaultInjected)


class RemoteBackend:
    """Client side of the store protocol; a full :class:`StoreBackend`.

    Every operation gets a socket deadline (``timeout``), ``retries``
    bounded retries with deterministic jittered backoff, and rides the
    instance's circuit breaker: after ``breaker_failures`` consecutive
    failed operations the circuit opens and calls fast-fail with
    :class:`StoreUnavailableError` until the cooldown expires.  ``root``
    is ``None`` -- the bytes live on the server.
    """

    def __init__(
        self,
        url: str,
        *,
        subroot: str = "",
        timeout: float | None = None,
        retries: int | None = None,
        breaker_failures: int = DEFAULT_BREAKER_FAILURES,
        breaker_reset_seconds: float = DEFAULT_BREAKER_RESET_SECONDS,
    ):
        self.url = url
        self.host, self.port = parse_store_url(url)
        self.subroot = subroot
        self.root: Path | None = None
        if timeout is None:
            timeout = env_number(ENV_STORE_TIMEOUT, DEFAULT_TIMEOUT_SECONDS, accept=lambda value: value > 0)
        if retries is None:
            retries = env_number(ENV_STORE_RETRIES, DEFAULT_RETRIES, cast=int, accept=lambda value: value >= 0)
        self.timeout = timeout
        self.retries = retries
        self.breaker = CircuitBreaker(failures=breaker_failures, reset_seconds=breaker_reset_seconds)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        #: Cumulative gauges (``/v1/metrics``), and their values at the last
        #: :meth:`drain_counters` (whose deltas the runner persists).
        self.hits_total = 0
        self.errors_total = 0
        self._drained: dict[str, int] = {}

    # -- transport ------------------------------------------------------------------

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None

    def _call(
        self,
        op: str,
        *,
        namespace: str = "",
        filename: str = "",
        blob: bytes = b"",
        **extra: object,
    ) -> tuple[dict[str, object], bytes]:
        """One operation through deadline + retries + breaker."""
        if not self.breaker.allow():
            raise StoreUnavailableError(
                f"store {self.url} unavailable: circuit open after repeated failures"
            )
        header: dict[str, object] = {
            "v": PROTOCOL_VERSION,
            "op": op,
            "sub": self.subroot,
            "ns": namespace,
            "fn": filename,
            **extra,
        }
        last_error: BaseException | None = None
        with self._lock:
            for attempt in range(1, self.retries + 2):
                try:
                    if self._sock is None:
                        fault_point("net.connect", key=op)
                        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
                    fault_point("net.send", key=op)
                    write_frame(self._sock, header, blob)
                    fault_point("net.recv", key=op)
                    response, payload = read_frame(self._sock)
                except _TRANSPORT_ERRORS as error:
                    last_error = error
                    self._drop_connection()
                    if attempt <= self.retries:
                        time.sleep(
                            backoff_delay(
                                attempt, f"{self.url}:{op}", base=_BACKOFF_BASE_SECONDS, cap=_BACKOFF_CAP_SECONDS
                            )
                        )
                    continue
                if not response.get("ok"):
                    # The server answered coherently: an application error,
                    # not a connectivity failure -- no retry, no breaker trip.
                    raise StoreProtocolError(str(response.get("error", "unknown server error")))
                self.breaker.record_success()
                return response, payload
        self.errors_total += 1
        self.breaker.record_failure()
        raise StoreUnavailableError(
            f"store {self.url} unreachable after {self.retries + 1} attempt(s): {last_error}"
        )

    def _flag(self, op: str, namespace: str, filename: str, **extra: object) -> bool:
        """One of the ops answered by one boolean (:data:`_FLAG_REPLIES`)."""
        response, _payload = self._call(op, namespace=namespace, filename=filename, **extra)
        return bool(response.get(_FLAG_REPLIES[op]))

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    # -- health / counters ------------------------------------------------------------

    @property
    def breaker_state(self) -> str:
        return self.breaker.state

    def degraded_seconds(self) -> float:
        return self.breaker.degraded_seconds()

    def ping(self) -> dict[str, object] | None:
        """Server identity on success, ``None`` when unreachable."""
        try:
            response, _payload = self._call("ping")
        except (StoreUnavailableError, StoreProtocolError):
            return None
        server = response.get("server")
        return server if isinstance(server, dict) else {}

    def health(self) -> dict[str, object]:
        """Reachability + breaker snapshot (probes the server when allowed)."""
        server = self.ping()
        return {
            "backend": "remote",
            "url": self.url,
            "reachable": server is not None,
            "breaker_state": self.breaker_state,
            "degraded_seconds": round(self.degraded_seconds(), 3),
        }

    def drain_counters(self) -> dict[str, int]:
        """Deltas since the last drain (for the persisted store counters)."""
        totals = {
            "remote_hits": self.hits_total,
            "remote_errors": self.errors_total,
            "breaker_opens": self.breaker.opens,
        }
        drained = {name: total - self._drained.get(name, 0) for name, total in totals.items()}
        self._drained = totals
        return drained

    # -- StoreBackend protocol --------------------------------------------------------

    def path(self, namespace: str, filename: str) -> Path | None:
        return None

    def get(self, namespace: str, filename: str, *, touch: bool = True) -> bytes | None:
        response, payload = self._call("get", namespace=namespace, filename=filename, touch=touch)
        if not response.get("found"):
            return None
        self.hits_total += 1
        return payload

    def put(self, namespace: str, filename: str, blob: bytes) -> None:
        self._call("put", namespace=namespace, filename=filename, blob=bytes(blob))

    def delete(self, namespace: str, filename: str) -> bool:
        return self._flag("delete", namespace, filename)

    def iter(self, namespace: str | None = None):
        response, _payload = self._call("iter", namespace=namespace or "")
        entries = response.get("entries")
        if isinstance(entries, list):
            for pair in entries:
                if isinstance(pair, list) and len(pair) == 2:
                    yield str(pair[0]), str(pair[1])

    def stat(self, namespace: str, filename: str) -> EntryStat | None:
        response, _payload = self._call("stat", namespace=namespace, filename=filename)
        if not response.get("found"):
            return None
        return EntryStat(
            size_bytes=int(response.get("size", 0)),
            accessed_unix=float(response.get("accessed", 0.0)),
        )

    def touch(self, namespace: str, filename: str) -> None:
        self._call("touch", namespace=namespace, filename=filename)

    def claim(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        return self._flag("claim", namespace, filename, owner=(owner or ClaimTicket.mine()).to_document())

    def claim_info(self, namespace: str, filename: str) -> ClaimTicket | None:
        response, _payload = self._call("claim_info", namespace=namespace, filename=filename)
        return _owner(response.get("ticket"))

    def release(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        return self._flag("release", namespace, filename, owner=owner.to_document() if owner is not None else None)

    def quarantine(self, namespace: str, filename: str) -> bool:
        return self._flag("quarantine", namespace, filename)


# -- tiered composition -------------------------------------------------------------


class TieredBackend:
    """Local :class:`DiskBackend` fronted onto a shared :class:`RemoteBackend`.

    * **reads** check local first; local misses consult the remote and
      promote hits into the local tier (the local store is a cache of the
      shared one);
    * **writes** land local-first (atomic, claim-clearing), then write
      through to the remote best-effort -- a dead server never fails a put;
    * **claims** are arbitrated remotely while the circuit is closed
      (fleet-wide exactly-once) and locally while it is open (per-host
      exactly-once; duplicated cross-host work is wasteful, never wrong);
    * **eviction scope** is the local tier only: ``iter``/``delete``
      operate locally, so a local byte budget can never prune the shared
      server (which enforces its own ``--max-bytes``).

    Every remote failure is absorbed: the operation degrades to its
    local-only behaviour and the breaker decides when to probe again.
    """

    def __init__(self, local: DiskBackend, remote: RemoteBackend):
        self.local = local
        self.remote = remote
        self.root = local.root
        self.url = remote.url

    def __reduce__(self):
        # A worker process reconnects to the same server; sockets and the
        # breaker's state stay behind.
        return functools.partial(make_store_backend, subroot=self.remote.subroot), (self.root, self.url)

    # -- degradation helper -----------------------------------------------------------

    def _remote_call(self, op: str, *args: object, **kwargs: object) -> tuple[bool, object]:
        """``(True, result)`` of one remote operation, ``(False, None)`` while degraded.

        Every remote failure is absorbed here: an open circuit (which the
        remote fast-fails without touching the network), an unreachable
        server and an incoherent one all count as degraded.
        """
        try:
            return True, getattr(self.remote, op)(*args, **kwargs)
        except (StoreUnavailableError, StoreProtocolError) as error:
            logger.debug("remote %s on %s failed (%s); using the local tier", op, self.url, error)
            return False, None

    def health(self) -> dict[str, object]:
        health = self.remote.health()
        health["backend"] = "tiered"
        health["local_root"] = str(self.root)
        return health

    def remote_status(self) -> dict[str, object]:
        """Non-probing gauges for ``/v1/metrics`` and ``cache stats``."""
        return {
            "url": self.url,
            "breaker_state": self.remote.breaker_state,
            "degraded_seconds": round(self.remote.degraded_seconds(), 3),
            "remote_hits": self.remote.hits_total,
            "remote_errors": self.remote.errors_total,
            "breaker_opens": self.remote.breaker.opens,
        }

    def drain_remote_counters(self) -> dict[str, int]:
        return self.remote.drain_counters()

    def close(self) -> None:
        self.remote.close()

    # -- StoreBackend protocol --------------------------------------------------------

    def path(self, namespace: str, filename: str) -> Path | None:
        return self.local.path(namespace, filename)

    def get(self, namespace: str, filename: str, *, touch: bool = True) -> bytes | None:
        blob = self.local.get(namespace, filename, touch=touch)
        if blob is not None:
            return blob
        _reached, blob = self._remote_call("get", namespace, filename, touch=touch)
        if blob is not None:
            # Promote into the local tier so repeat reads stay off the
            # network.  ``put`` clears any local fill claim -- correct: the
            # entry has landed, exactly the entry-then-release ordering a
            # local fill would produce.
            try:
                self.local.put(namespace, filename, blob)
            except OSError:  # full local disk: serve the remote bytes anyway
                pass
        return blob

    def put(self, namespace: str, filename: str, blob: bytes) -> None:
        self.local.put(namespace, filename, blob)
        self._remote_call("put", namespace, filename, blob)  # write-through, best effort

    def delete(self, namespace: str, filename: str) -> bool:
        # Local tier only: eviction under a local byte budget must never
        # prune the shared store (the server bounds itself).
        return self.local.delete(namespace, filename)

    def iter(self, namespace: str | None = None):
        return self.local.iter(namespace)

    def stat(self, namespace: str, filename: str) -> EntryStat | None:
        stamp = self.local.stat(namespace, filename)
        return stamp if stamp is not None else self._remote_call("stat", namespace, filename)[1]

    def touch(self, namespace: str, filename: str) -> None:
        self.local.touch(namespace, filename)

    def claim(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        reached, won = self._remote_call("claim", namespace, filename, owner=owner)
        return won if reached else self.local.claim(namespace, filename, owner=owner)

    def claim_info(self, namespace: str, filename: str) -> ClaimTicket | None:
        reached, ticket = self._remote_call("claim_info", namespace, filename)
        return ticket if reached else self.local.claim_info(namespace, filename)

    def release(self, namespace: str, filename: str, *, owner: ClaimTicket | None = None) -> bool:
        _reached, released = self._remote_call("release", namespace, filename, owner=owner)
        return self.local.release(namespace, filename, owner=owner) or bool(released)

    def quarantine(self, namespace: str, filename: str) -> bool:
        quarantined = self.local.quarantine(namespace, filename)
        # Quarantine (never silently delete) the shared copy too, so a
        # corrupt entry stops being re-promoted on every read.
        _reached, shared = self._remote_call("quarantine", namespace, filename)
        return bool(shared) or quarantined


def make_store_backend(root: Path | str, url: str, *, subroot: str = "") -> TieredBackend:
    """A tiered backend: local :class:`DiskBackend` at ``root`` over ``url``."""
    return TieredBackend(DiskBackend(Path(root)), RemoteBackend(url, subroot=subroot))
