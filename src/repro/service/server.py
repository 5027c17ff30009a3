"""HTTP/1.1 transport of the reproduction service on ``http.server``.

``ThreadingHTTPServer`` serves one thread per connection -- the model the
store server (:mod:`repro.runner.netstore`) uses too.  The handler turns
each request into a :class:`Request`, hands it to an *app* exposing
``handle(request) -> Response`` (see
:class:`repro.service.routes.ServiceApp`) and writes back JSON with an
explicit length, so HTTP/1.1 keep-alive lets a client pipeline warm-cache
hits over one connection.  Transport rejections (malformed framing,
oversized heads or bodies) carry the service's JSON error body too.

:class:`BackgroundServer` runs the server on a daemon thread for tests
and benchmarks; the blocking :func:`serve_forever` behind ``python -m
repro serve`` reuses it.
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

#: Hard caps keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Error codes of transport rejections; any other status is ``bad_request``.
_TRANSPORT_CODES = {413: "body_too_large", 431: "headers_too_large"}


@dataclass
class Request:
    """One parsed HTTP request as the routing layer sees it."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    client: str = ""
    request_id: str = ""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """One response: status + JSON-ready payload (+ extra headers)."""

    status: int
    payload: object = None
    headers: dict[str, str] = field(default_factory=dict)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    default_request_version = "HTTP/1.1"  # a malformed request line still gets a status line
    # Headers and body leave in separate writes; with Nagle on, the body waits out the client's delayed ACK.
    disable_nagle_algorithm = True

    def __getattr__(self, name: str):
        # Every method (GET, POST, DELETE, ...) goes through the app's route table.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def _dispatch(self) -> None:
        # The stdlib caps single header lines and the header count; this caps their sum.
        head_bytes = len(self.requestline) + sum(len(name) + len(value) + 4 for name, value in self.headers.items())
        if head_bytes > MAX_HEADER_BYTES:
            self.send_error(431, "request head exceeds 64 KiB")
            return
        length_text = self.headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            self.send_error(400, f"invalid Content-Length {length_text!r}")
            return
        if length > MAX_BODY_BYTES:
            self.send_error(413, "request body exceeds 8 MiB")
            return
        request = Request(
            method=self.command.upper(),
            path=unquote(urlsplit(self.path).path),
            headers={name.lower(): value for name, value in self.headers.items()},
            body=self.rfile.read(length),
            client=self.client_address[0],
        )
        self._send(self.server.app.handle(request))

    def _send(self, response: Response) -> None:
        body = json.dumps(response.payload, indent=1).encode() + b"\n" if response.payload is not None else b""
        self.send_response(response.status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """A transport rejection: the JSON error body, then the connection closes."""
        error = {"code": _TRANSPORT_CODES.get(code, "bad_request"), "message": message or self.responses[code][0]}
        self._send(Response(code, {"error": error}, headers={"connection": "close"}))

    def log_message(self, format: str, *args: object) -> None:
        """Silent: the app writes the access log."""


class _Server(ThreadingHTTPServer):
    # socketserver's default backlog of 5 resets connections in a 32-way burst.
    request_queue_size = 100

    def __init__(self, address: tuple[str, int], app):
        self.app = app
        super().__init__(address, _Handler)


class BackgroundServer:
    """The server on a daemon thread; closing it also closes the app.

    Usage::

        with BackgroundServer(app) as server:
            http.client.HTTPConnection("127.0.0.1", server.port)
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._server = _Server((host, port), app)
        self.port: int = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        self.app.close()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()


def serve_forever(app, *, host: str = "127.0.0.1", port: int = 8080) -> int:
    """Blocking server loop behind ``python -m repro serve``.

    Returns 0 on a clean shutdown (Ctrl-C, or SIGTERM from a supervisor).
    SIGTERM/SIGINT stop the accept loop, then the app is closed -- which
    drains in-flight jobs for its configured deadline and journals
    whatever could not finish as ``interrupted`` -- so an orchestrator's
    ordinary stop signal never silently loses work.
    """
    stop = threading.Event()
    previous = {signum: signal.signal(signum, lambda *_: stop.set()) for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        with BackgroundServer(app, host, port) as server:
            print(f"serving the reproduction on http://{host}:{server.port} (Ctrl-C to stop)", flush=True)
            stop.wait()
            print("shutdown signal received; draining jobs", flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
