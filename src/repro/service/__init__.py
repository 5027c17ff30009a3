"""Reproduction-as-a-service: a stdlib-only HTTP/1.1 JSON layer.

``python -m repro serve`` puts this package on top of the experiment
runner: warm-cache hits are answered synchronously from the result store
(rows bit-identical to the CLI), cold runs and sweeps become background
jobs on the existing process-pool executor.  No runtime dependency beyond
the standard library -- the transport is ``http.server``'s threaded
server; routing, models and middleware are plain functions on top.

Modules
-------
:mod:`~repro.service.server`
    The HTTP/1.1 transport: one thread per connection, keep-alive, JSON
    transport errors, the blocking ``serve_forever`` loop and a
    ``BackgroundServer`` harness for tests/benchmarks.
:mod:`~repro.service.routes`
    :class:`ServiceApp` -- the endpoint handlers behind ``/v1/...``.
:mod:`~repro.service.models`
    Request parsing/validation and response/error body builders.
:mod:`~repro.service.middleware`
    Cross-cutting request concerns: request IDs, token-bucket rate
    limiting, access logging.
:mod:`~repro.service.jobs`
    Background job manager with idempotency-key collapse and per-wave
    artifact progress.
:mod:`~repro.service.metrics`
    Thread-safe request/cache/job counters and latency histograms.
"""

from .jobs import JobManager, JobRecord
from .metrics import LatencyHistogram, ServiceMetrics
from .middleware import TokenBucket
from .models import ServiceError
from .routes import ServiceApp, build_app
from .server import BackgroundServer, Request, Response, serve_forever

__all__ = [
    "BackgroundServer",
    "JobManager",
    "JobRecord",
    "LatencyHistogram",
    "Request",
    "Response",
    "ServiceApp",
    "ServiceError",
    "ServiceMetrics",
    "TokenBucket",
    "build_app",
    "serve_forever",
]
