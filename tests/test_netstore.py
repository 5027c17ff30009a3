"""Networked store suite: protocol, deadlines, retries, breaker, tiering.

The backend *contract* over the wire lives in ``test_stores.py`` (the
remote parametrization of the shared suite); this file covers what is
specific to the network: the frame format and its bounds, per-operation
deadlines, bounded retries with deterministic backoff, the circuit
breaker's closed -> open -> half-open lifecycle, and the tiered
composition that degrades to local disk when the server is gone --
including the acceptance property that a dead server costs latency,
never correctness (rows stay bit-identical to a local-only run).
"""

from __future__ import annotations

import itertools
import json
import pickle
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.faults import injected
from repro.runner.artifacts import load_stats
from repro.runner.backends import ClaimTicket, DiskBackend
from repro.runner.cache import ResultCache
from repro.runner.cli import main
from repro.runner.netstore import (
    ARTIFACT_SUBROOT,
    MAX_HEADER_BYTES,
    _FRAME_HEADER,
    CircuitBreaker,
    RemoteBackend,
    StoreProtocolError,
    StoreServer,
    StoreUnavailableError,
    TieredBackend,
    make_store_backend,
    parse_store_url,
    read_frame,
    write_frame,
)
from repro.runner.service import ExperimentRunner


def _dead_url():
    """A url nothing listens on (bind an ephemeral port, then free it)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"tcp://127.0.0.1:{port}"


@pytest.fixture()
def server(tmp_path):
    with StoreServer(tmp_path / "server") as running:
        yield running


# -- url parsing --------------------------------------------------------------------


class TestUrls:
    def test_accepted_shapes(self):
        assert parse_store_url("tcp://stores.example:8484") == ("stores.example", 8484)
        assert parse_store_url("127.0.0.1:9") == ("127.0.0.1", 9)

    @pytest.mark.parametrize(
        "bad",
        ["http://host:1", "hostonly", "host:", ":8484", "host:notaport", "host:0", "host:70000"],
    )
    def test_rejected_shapes(self, bad):
        with pytest.raises(ValueError):
            parse_store_url(bad)


# -- framing ------------------------------------------------------------------------


class TestFraming:
    def test_round_trip_header_and_blob(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, {"op": "put", "ns": "n"}, b"payload-bytes")
            header, blob = read_frame(right)
            assert header == {"op": "put", "ns": "n"}
            assert blob == b"payload-bytes"
        finally:
            left.close()
            right.close()

    def test_clean_close_raises_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                read_frame(right)
        finally:
            right.close()

    def test_torn_frame_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_FRAME_HEADER.pack(10, 0) + b"abc")  # 7 bytes short
            left.close()
            with pytest.raises(StoreProtocolError, match="mid-frame"):
                read_frame(right)
        finally:
            right.close()

    def test_oversized_lengths_are_rejected_without_allocating(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_FRAME_HEADER.pack(MAX_HEADER_BYTES + 1, 0))
            with pytest.raises(StoreProtocolError, match="too large"):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_header_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            garbage = b"\xde\xad\xbe\xef"
            left.sendall(_FRAME_HEADER.pack(len(garbage), 0) + garbage)
            with pytest.raises(StoreProtocolError, match="undecodable"):
                read_frame(right)
        finally:
            left.close()
            right.close()


# -- server + client basics ---------------------------------------------------------


class TestServerBasics:
    def test_ping_reports_server_identity(self, server):
        remote = RemoteBackend(server.url)
        identity = remote.ping()
        assert identity is not None and identity["root"] == str(server.root)
        remote.close()

    def test_application_errors_answer_without_tripping_the_breaker(self, server):
        remote = RemoteBackend(server.url, retries=0)
        with pytest.raises(StoreProtocolError, match="unknown op"):
            remote._call("frobnicate", namespace="ns", filename="f.json")
        with pytest.raises(StoreProtocolError, match="unknown subroot"):
            RemoteBackend(server.url, subroot="nope")._call("ping")
        # A coherent error reply is the server *working*: the same
        # connection keeps serving and the breaker never counts it.
        assert remote.breaker_state == "closed"
        assert remote.get("ns", "missing.json") is None
        remote.close()

    def test_touching_missing_names_leaves_nothing_on_the_server(self, server):
        remote = RemoteBackend(server.url)
        for index in range(3):
            remote.touch(f"ns{index}", f"missing{index}.json")
        assert list(remote.iter()) == []
        assert not server.root.exists() or list(server.root.iterdir()) == []
        remote.close()

    def test_traversal_names_are_rejected_over_the_wire(self, tmp_path, server):
        outside = tmp_path / "outside"
        addresses = [
            ("..", "escaped.json"),
            ("ns", "../escaped.json"),
            (str(outside), "escaped.json"),
            ("ns", str(outside / "escaped.json")),
        ]
        remote = RemoteBackend(server.url, retries=0)
        for op, extra in [("get", ()), ("put", (b"x",)), ("delete", ()), ("claim", ()), ("quarantine", ()),
                          ("stat", ()), ("touch", ()), ("release", ())]:
            for namespace, filename in addresses:
                with pytest.raises(StoreProtocolError, match="invalid"):
                    getattr(remote, op)(namespace, filename, *extra)
        with pytest.raises(StoreProtocolError, match="invalid ns"):
            list(remote.iter(".."))
        # Rejections are coherent answers: no retry, no breaker trip, and
        # the connection keeps serving legitimate names.
        assert remote.breaker_state == "closed" and remote.errors_total == 0
        remote.put("ns", "ok.json", b"fine")
        assert remote.get("ns", "ok.json") == b"fine"
        remote.close()
        assert [path.name for path in tmp_path.iterdir()] == ["server"]
        assert [path.name for path in server.root.iterdir()] == ["ns"]
        assert sorted(path.name for path in (server.root / "ns").iterdir()) == [".ok.json.atime", "ok.json"]

    def test_artifact_subroot_is_isolated_from_results(self, server):
        results = RemoteBackend(server.url)
        artifacts = RemoteBackend(server.url, subroot="artifacts")
        results.put("ns", "a.json", b"result")
        artifacts.put("ns", "a.json", b"artifact")
        assert results.get("ns", "a.json") == b"result"
        assert artifacts.get("ns", "a.json") == b"artifact"
        assert (server.root / "artifacts" / "ns" / "a.json").read_bytes() == b"artifact"
        results.close()
        artifacts.close()

    def test_server_side_byte_budget_evicts_lru(self, tmp_path):
        with StoreServer(tmp_path / "server", max_bytes=250) as server:
            remote = RemoteBackend(server.url)
            for index in range(4):
                remote.put("ns", f"{index}.json", b"x" * 100)
                time.sleep(0.01)
            survivors = [filename for _ns, filename in remote.iter()]
            assert len(survivors) == 2  # the budget pruned the two oldest
            assert "3.json" in survivors  # newest always survives
            remote.close()

    def test_closing_a_server_that_never_served_returns(self, tmp_path):
        # ``serve_store`` closes a server whose loop never ran when its
        # start-up banner fails; ``shutdown`` would wait for that loop forever.
        unstarted = StoreServer(tmp_path / "server")
        closer = threading.Thread(target=unstarted.close, daemon=True)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()


# -- deadlines, retries, breaker ----------------------------------------------------


class TestDeadlinesAndRetries:
    def test_hung_server_is_bounded_by_the_deadline(self, server):
        remote = RemoteBackend(server.url, timeout=0.3, retries=0)
        remote.put("ns", "k.json", b"blob")  # connection warm, server healthy
        with injected("net.server:hang:seconds=5:match=get"):
            start = time.monotonic()
            with pytest.raises(StoreUnavailableError):
                remote.get("ns", "k.json")
            assert time.monotonic() - start < 3.0  # deadline, not the hang
        remote.close()

    def test_transient_fault_is_absorbed_by_one_retry(self, server):
        remote = RemoteBackend(server.url, retries=1)
        remote.put("ns", "k.json", b"blob")
        with injected("net.send:exc:times=1:match=get"):
            assert remote.get("ns", "k.json") == b"blob"
        assert remote.breaker_state == "closed"  # the retry succeeded in time
        assert remote.errors_total == 0  # only exhausted retries count
        remote.close()

    def test_exhausted_retries_raise_and_count(self):
        remote = RemoteBackend(_dead_url(), timeout=0.2, retries=1, breaker_failures=5)
        with pytest.raises(StoreUnavailableError, match="after 2 attempt"):
            remote.get("ns", "k.json")
        assert remote.errors_total == 1
        assert remote.drain_counters()["remote_errors"] == 1
        assert remote.drain_counters()["remote_errors"] == 0  # drained


class TestCircuitBreaker:
    def test_lifecycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker(failures=2, reset_seconds=0.05)
        assert breaker.allow() and breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # one failure is not an outage
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 1
        assert not breaker.allow()  # fast-fail during cooldown
        time.sleep(0.06)
        assert breaker.allow() and breaker.state == "half_open"
        breaker.record_failure()  # the probe failed: re-open
        assert breaker.state == "open" and not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.opens == 1  # re-opens of one outage are one open
        assert breaker.degraded_seconds() >= 0.1  # both cooldowns counted

    def test_open_circuit_fast_fails_without_the_network(self):
        remote = RemoteBackend(_dead_url(), timeout=0.2, retries=0, breaker_failures=1)
        with pytest.raises(StoreUnavailableError):
            remote.get("ns", "k.json")  # trips the breaker open
        assert remote.breaker_state == "open"
        start = time.monotonic()
        with pytest.raises(StoreUnavailableError, match="circuit open"):
            remote.get("ns", "k.json")
        assert time.monotonic() - start < 0.05  # no connect attempt at all
        assert remote.drain_counters()["breaker_opens"] == 1

    def test_half_open_probe_recovers_when_the_server_returns(self, tmp_path):
        root = tmp_path / "server"
        with StoreServer(root) as server:
            url = server.url
            port = server.port
        remote = RemoteBackend(url, timeout=0.3, retries=0, breaker_failures=1,
                               breaker_reset_seconds=0.05)
        with pytest.raises(StoreUnavailableError):
            remote.get("ns", "k.json")
        assert remote.breaker_state == "open"
        # The server comes back on the same port; the half-open probe heals.
        with StoreServer(root, port=port):
            time.sleep(0.06)
            assert remote.get("ns", "missing.json") is None  # a served miss
            assert remote.breaker_state == "closed"
            assert remote.degraded_seconds() > 0.0
        remote.close()


# -- tiered composition -------------------------------------------------------------


class TestTiered:
    def test_put_writes_through_and_get_prefers_local(self, tmp_path, server):
        tiered = make_store_backend(tmp_path / "local", server.url)
        tiered.put("ns", "k.json", b"blob")
        assert (tmp_path / "local" / "ns" / "k.json").read_bytes() == b"blob"
        assert (server.root / "ns" / "k.json").read_bytes() == b"blob"
        assert tiered.get("ns", "k.json") == b"blob"
        tiered.close()

    def test_remote_hit_is_promoted_into_the_local_tier(self, tmp_path, server):
        DiskBackend(server.root).put("ns", "shared.json", b"fleet-bytes")
        tiered = make_store_backend(tmp_path / "local", server.url)
        assert tiered.get("ns", "shared.json") == b"fleet-bytes"
        # Promoted: the repeat read never touches the network.
        assert (tmp_path / "local" / "ns" / "shared.json").read_bytes() == b"fleet-bytes"
        assert tiered.remote_status()["remote_hits"] == 1
        tiered.close()

    def test_delete_and_iter_are_local_only(self, tmp_path, server):
        tiered = make_store_backend(tmp_path / "local", server.url)
        tiered.put("ns", "k.json", b"blob")
        assert tiered.delete("ns", "k.json") is True  # local eviction ...
        assert (server.root / "ns" / "k.json").exists()  # ... never prunes the fleet
        assert list(tiered.iter()) == []
        assert tiered.get("ns", "k.json") == b"blob"  # and re-promotes on demand
        tiered.close()

    def test_a_pickled_store_reconnects_to_the_same_server(self, tmp_path, server):
        # Worker processes receive their artifact store this way.
        from repro.runner.executor import open_stores

        _cache, store = open_stores(tmp_path / "cache", server.url)
        store.max_bytes = 12_345
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is type(store) and clone.max_bytes == 12_345
        assert clone.root == tmp_path / "cache" / "artifacts"
        assert clone.backend.url == server.url
        clone.backend.put("ns", "k.pkl", b"blob")  # the rebuilt tiers write through
        assert (server.root / "artifacts" / "ns" / "k.pkl").read_bytes() == b"blob"
        assert store.backend.get("ns", "k.pkl") == b"blob"
        store.backend.close()
        clone.backend.close()

    def test_dead_server_degrades_every_operation_to_local(self, tmp_path):
        tiered = TieredBackend(
            DiskBackend(tmp_path / "local"), RemoteBackend(_dead_url(), timeout=0.2, retries=0)
        )
        tiered.remote.breaker.failure_threshold = 1
        tiered.put("ns", "k.json", b"blob")  # write-through failure absorbed
        assert tiered.get("ns", "k.json") == b"blob"
        assert tiered.claim("ns", "other.json") is True  # local arbitration
        assert tiered.release("ns", "other.json") is True
        status = tiered.remote_status()
        assert status["breaker_state"] == "open"
        assert status["remote_errors"] >= 1 and status["breaker_opens"] == 1
        drained = tiered.drain_remote_counters()
        assert drained["remote_errors"] >= 1 and drained["breaker_opens"] == 1
        health = tiered.health()
        assert health["backend"] == "tiered" and health["reachable"] is False
        tiered.close()


# -- runners sharing one server -----------------------------------------------------


TOY_SOURCE = '''\
"""Toy experiment driver for netstore tests (milliseconds per run)."""

PARAMS = {"x": 2}


def run(*, x=2):
    return [{"x": x, "y": x * x}]


def render(rows):
    return "\\n".join(f"{row['x']} -> {row['y']}" for row in rows)
'''


def _toy_runner(spec, cache):
    return ExperimentRunner(cache=cache, registry={"toy": spec})


class TestSharedServer:
    def test_two_runners_compute_each_address_exactly_once(
        self, tmp_path, driver_spec, server
    ):
        requests = [("toy", {"x": x}) for x in range(3)]
        caches = [
            ResultCache(backend=make_store_backend(tmp_path / f"client{i}", server.url))
            for i in range(2)
        ]
        spec = driver_spec(TOY_SOURCE)  # one driver: identical addresses
        first = _toy_runner(spec, caches[0])
        second = _toy_runner(spec, caches[1])
        cold = first.run_many(list(requests))
        warm = second.run_many(list(requests))
        # The second client never recomputes: every address is a remote hit.
        assert all(report.cached is False for report in cold)
        assert all(report.cached is True for report in warm)
        assert json.dumps([r.rows for r in warm]) == json.dumps([r.rows for r in cold])
        # Exactly-once across the fleet: misses == claims + claim_waits.
        stats = [load_stats(cache.root) for cache in caches]
        misses = sum(s.result_misses for s in stats)
        assert misses == len(requests)
        assert misses == sum(s.result_claims + s.result_claim_waits for s in stats)
        assert stats[1].remote_hits == len(requests)

    def test_dead_server_run_is_bit_identical_to_local_only(
        self, tmp_path, driver_spec
    ):
        requests = [("toy", {"x": x}) for x in range(3)]
        spec = driver_spec(TOY_SOURCE)
        baseline = _toy_runner(spec, ResultCache(tmp_path / "baseline"))
        clean = baseline.run_many(list(requests))
        degraded_cache = ResultCache(
            backend=TieredBackend(
                DiskBackend(tmp_path / "degraded"), RemoteBackend(_dead_url(), timeout=0.2, retries=0)
            )
        )
        degraded = _toy_runner(spec, degraded_cache)
        rows = degraded.run_many(list(requests))
        # The acceptance property: a dead server costs latency, never
        # correctness -- the cold run completes with identical bytes.
        assert json.dumps([r.rows for r in rows]) == json.dumps([r.rows for r in clean])
        counters = load_stats(degraded_cache.root)
        assert counters.result_misses == len(requests)
        assert counters.remote_errors >= 1
        assert degraded_cache.backend.remote_status()["breaker_state"] == "open"


# -- CLI surface --------------------------------------------------------------------


class TestStoreCommand:
    def test_store_serve_wires_flags_into_the_server(self, tmp_path, monkeypatch):
        import repro.runner.netstore as netstore

        captured = {}

        def fake_serve_store(*, host, port, root, max_bytes=None):
            captured.update(host=host, port=port, root=root, max_bytes=max_bytes)
            return 0

        monkeypatch.setattr(netstore, "serve_store", fake_serve_store)
        exit_code = main(
            [
                "store", "serve",
                "--host", "127.0.0.2",
                "--port", "9009",
                "--root", str(tmp_path / "store"),
                "--max-bytes", "5000",
            ]
        )
        assert exit_code == 0
        assert captured["host"] == "127.0.0.2" and captured["port"] == 9009
        assert str(captured["root"]) == str(tmp_path / "store")
        assert captured["max_bytes"] == 5000

    def test_run_with_store_url_shares_results(self, tmp_path, capsys, server):
        common = ["--param", "samples=40", "--param", "seed=11", "--store-url", server.url]
        assert main(["run", "table1", "--cache-dir", str(tmp_path / "a"), *common]) == 0
        capsys.readouterr()
        # A second client with a cold local cache replays from the server.
        assert main(
            ["run", "table1", "--json", "--cache-dir", str(tmp_path / "b"), *common]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["table1"]["cached"] is True

    def test_cache_stats_reports_the_remote_section(self, tmp_path, capsys, server):
        common = ["--cache-dir", str(tmp_path / "a"), "--store-url", server.url]
        assert main(
            ["run", "table1", "--param", "samples=40", "--param", "seed=3", *common]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", *common]) == 0
        summary = json.loads(capsys.readouterr().out)
        remote = summary["remote"]
        assert remote["url"] == server.url
        assert remote["reachable"] is True
        assert summary["recovery"]["claim_wait_timeouts"] == 0


# -- wire bytes ---------------------------------------------------------------------

#: Every frame of one session covering each operation, as recorded from the
#: protocol-version-1 server and clients (see :func:`_wire_session`).
WIRE_PINS = json.loads((Path(__file__).resolve().parent / "golden" / "netstore_wire.json").read_text())

#: Header fields that vary per process, per machine or per second.
_VOLATILE = re.compile(rb'"(pid|host|root|created_unix|accessed)":("[^"]*"|[-+.\deE]+)')


class _WireTap:
    """A TCP relay in front of a server that records the bytes each side writes."""

    def __init__(self, url: str):
        self._target = parse_store_url(url)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"tcp://127.0.0.1:{self._listener.getsockname()[1]}"
        #: Per accepted connection: ``[client -> server bytes, server -> client bytes]``.
        self.streams: list[list[bytearray]] = []
        self._sockets: list[socket.socket] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                client, _address = self._listener.accept()
            except OSError:
                return
            upstream = socket.create_connection(self._target)
            self._sockets += [client, upstream]
            stream = [bytearray(), bytearray()]
            self.streams.append(stream)
            for source, sink, record in ((client, upstream, stream[0]), (upstream, client, stream[1])):
                threading.Thread(target=self._pump, args=(source, sink, record), daemon=True).start()

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket, record: bytearray) -> None:
        try:
            while chunk := source.recv(1 << 16):
                record += chunk  # recorded before forwarding: a reply is on record once its reader has it
                sink.sendall(chunk)
            sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        for sock in [self._listener, *self._sockets]:
            sock.close()

    def frames(self) -> list[str]:
        """``"<connection> > request"`` / ``"<connection> < reply"`` lines, volatile fields masked."""

        def split(data: bytes):
            offset = 0
            while offset < len(data):
                header_size, blob_size = _FRAME_HEADER.unpack_from(data, offset)
                start = offset + _FRAME_HEADER.size
                offset = start + header_size + blob_size
                yield data[start : start + header_size], data[start + header_size : offset]

        lines = []
        for connection, (requests, replies) in enumerate(self.streams):
            for request, reply in itertools.zip_longest(split(requests), split(replies), fillvalue=(b"", b"")):
                for arrow, (header, blob) in ((">", request), ("<", reply)):
                    header = _VOLATILE.sub(rb'"\1":"*"', header).decode()
                    lines.append(f"{connection} {arrow} {header} {blob.hex()}".rstrip())
        return lines


def _raw_request(url: str, header: dict[str, object]) -> None:
    """One request frame over a bare socket; returns once the reply's header has arrived."""
    with socket.create_connection(parse_store_url(url), timeout=5) as sock:
        write_frame(sock, header)
        header_size, _blob_size = _FRAME_HEADER.unpack(sock.recv(_FRAME_HEADER.size, socket.MSG_WAITALL))
        sock.recv(header_size, socket.MSG_WAITALL)


#: Malformed requests; the golden file pins their exact error replies.  The
#: server's own checks answer bare messages; a rejected name is a
#: ``ValueError`` raised by the backend helpers, checked before the op is
#: looked up.
RAW_ERRORS = [
    {"op": "frob", "ns": "ns", "fn": "f"},
    {"op": "frob"},
    {"v": 2, "op": "ping"},
    {"op": "ping", "sub": "nope"},
    {"v": 1, "op": "iter", "fn": "../x"},
    {"v": 1, "op": "stat", "ns": "ns", "fn": ""},
]


def _wire_session(tmp_path, url: str) -> None:
    """Every operation through the real clients, with a hit and a miss where an op has both."""
    remote = RemoteBackend(url, retries=0)
    owner = ClaimTicket(pid=4242, host="pinned-host", created_unix=1700000000.5)
    assert remote.ping() is not None
    remote.put("ns", "a.json", b"alpha")
    assert remote.get("ns", "a.json") == b"alpha"
    assert remote.get("ns", "a.json", touch=False) == b"alpha"
    assert remote.get("ns", "missing.json") is None
    assert remote.stat("ns", "a.json").size_bytes == 5
    assert remote.stat("ns", "missing.json") is None
    remote.touch("ns", "a.json")
    remote.put("other", "b.json", b"\x00\xffbeta")
    assert list(remote.iter()) == [("ns", "a.json"), ("other", "b.json")]
    assert list(remote.iter("ns")) == [("ns", "a.json")]
    assert remote.claim("ns", "c.json", owner=owner) is True
    assert remote.claim("ns", "c.json") is False
    assert remote.claim_info("ns", "c.json") == owner
    assert remote.claim_info("ns", "a.json") is None
    assert remote.release("ns", "c.json", owner=owner) is True
    assert remote.claim("ns", "d.json") is True
    assert remote.release("ns", "d.json") is True  # ``owner: null``
    assert remote.release("ns", "d.json") is False
    assert remote.delete("other", "b.json") is True
    assert remote.delete("other", "b.json") is False
    assert remote.quarantine("ns", "a.json") is True
    assert remote.quarantine("ns", "a.json") is False
    remote.close()

    shared = RemoteBackend(url, subroot=ARTIFACT_SUBROOT, retries=0)
    shared.put("art", "s.pkl", b"shared")
    shared.close()
    tiered = make_store_backend(tmp_path / "local", url, subroot=ARTIFACT_SUBROOT)
    tiered.put("art", "t.pkl", b"tiered")
    assert tiered.get("art", "t.pkl") == b"tiered"  # local hit: no frame
    assert tiered.get("art", "s.pkl") == b"shared"  # remote hit, promoted
    assert tiered.get("art", "none.pkl") is None
    assert tiered.stat("art", "u.pkl") is None
    assert tiered.claim("art", "u.pkl", owner=owner) is True
    assert tiered.claim_info("art", "u.pkl") == owner
    assert tiered.release("art", "u.pkl", owner=owner) is True
    assert tiered.quarantine("art", "t.pkl") is True
    tiered.close()


class TestWireBytes:
    def test_every_frame_matches_the_recorded_session(self, tmp_path, server):
        tap = _WireTap(server.url)
        try:
            _wire_session(tmp_path, tap.url)
            for header in RAW_ERRORS:
                _raw_request(tap.url, header)
        finally:
            tap.close()
        assert tap.frames() == WIRE_PINS
