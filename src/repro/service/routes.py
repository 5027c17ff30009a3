"""Route table and middleware pipeline of the reproduction service.

:class:`ServiceApp` is the *app* the transport layer drives: it owns the
route table (method + path template -> handler) and runs every request
through one pipeline -- request-ID assignment, token-bucket rate
limiting (``/v1/health`` exempt so load-balancer probes always pass),
dispatch, error mapping, metrics and the access log.  Handlers are plain
functions that run on the transport's per-connection thread; they stay
tiny because validation and execution live in :mod:`repro.api`.
"""

from __future__ import annotations

import math
import re
import time
from typing import Callable

from .jobs import JobManager
from .metrics import ServiceMetrics
from .middleware import TokenBucket, log_request, make_request_id
from .models import (
    JobRequest,
    RunRequest,
    ServiceError,
    error_body,
    error_from_exception,
    experiments_response,
    run_response,
)
from .server import Request, Response
from .. import api
from ..runner.artifacts import load_stats
from ..runner.backends import MemoryBackend, env_number
from ..runner.cache import ResultCache
from ..runner.service import ExperimentRunner, RunReport

#: Byte budget of the in-memory warm-path L1 (0 disables it).
WARM_CACHE_ENV = "REPRO_WARM_CACHE_BYTES"
DEFAULT_WARM_CACHE_BYTES = 32 * 1024 * 1024


def _warm_cache_bytes() -> int:
    """``$REPRO_WARM_CACHE_BYTES`` (negative values disable the L1, like 0)."""
    return max(0, env_number(WARM_CACHE_ENV, DEFAULT_WARM_CACHE_BYTES, cast=int))


Handler = Callable[[Request, dict[str, str]], Response]


def _compile(template: str) -> re.Pattern[str]:
    """``/v1/jobs/{id}`` -> a regex capturing ``id`` (no slashes inside)."""
    pattern = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template)
    return re.compile(f"^{pattern}$")


class ServiceApp:
    """The HTTP application: routes + the per-request middleware pipeline."""

    def __init__(
        self,
        runner: ExperimentRunner,
        *,
        jobs: int = 1,
        rate_limit: float = 0.0,
        rate_burst: int | None = None,
        max_queue: int = 64,
        drain_seconds: float = 10.0,
        state_dir: str | None = None,
    ):
        self.runner = runner
        self.metrics = ServiceMetrics()
        # In-memory L1 in front of the disk store: repeated warm probes for
        # the same address skip the disk read entirely.  Entries are
        # content-addressed, so a stale L1 entry can never serve wrong rows.
        warm_bytes = _warm_cache_bytes()
        self.warm_cache: ResultCache | None = (
            ResultCache(backend=MemoryBackend(), max_bytes=warm_bytes)
            if warm_bytes > 0 and runner.use_cache
            else None
        )
        self.jobs = JobManager(runner, jobs=jobs, max_queue=max_queue, state_dir=state_dir)
        self.drain_seconds = drain_seconds
        self.metrics.job_counts = self.jobs.counts
        self.limiter = TokenBucket(rate_limit, rate_burst) if rate_limit > 0 else None
        self._routes: list[tuple[str, str, re.Pattern[str], Handler]] = [
            (method, template, _compile(template), handler)
            for method, template, handler in (
                ("GET", "/v1/health", self.get_health_live),  # legacy alias of /v1/health/live
                ("GET", "/v1/health/live", self.get_health_live),
                ("GET", "/v1/health/ready", self.get_health_ready),
                ("GET", "/v1/experiments", self.get_experiments),
                ("GET", "/v1/metrics", self.get_metrics),
                ("POST", "/v1/experiments/{name}/run", self.post_run),
                ("POST", "/v1/jobs", self.post_job),
                ("GET", "/v1/jobs", self.get_jobs),
                ("GET", "/v1/jobs/{id}", self.get_job),
                ("POST", "/v1/jobs/{id}/retry", self.post_job_retry),
            )
        ]

    # -- middleware pipeline -----------------------------------------------------

    def _match(self, request: Request) -> tuple[str, Handler, dict[str, str]]:
        """Route label (``"METHOD /template"``), handler and path params.

        The label is what metrics are recorded under -- always the
        template, never the raw path, so cardinality stays bounded.
        Raises 405 (with the allowed methods) when the path exists under
        another method, 404 when no template matches at all.
        """
        allowed: list[str] = []
        for method, template, pattern, handler in self._routes:
            found = pattern.match(request.path)
            if not found:
                continue
            if method == request.method:
                return f"{method} {template}", handler, found.groupdict()
            allowed.append(method)
        if allowed:
            raise ServiceError(
                405,
                "method_not_allowed",
                f"{request.method} not allowed on {request.path}; allowed: {', '.join(sorted(set(allowed)))}",
            )
        raise ServiceError(404, "unknown_route", f"no route for {request.method} {request.path}")

    def handle(self, request: Request) -> Response:
        """One request through the full pipeline; never raises."""
        start = time.perf_counter()
        request.request_id = make_request_id(request.header("x-request-id"))
        route = "unmatched"
        try:
            route, handler, path_params = self._match(request)
            # Bound-method equality (not identity: each attribute access
            # builds a fresh method object) keeps the health probes exempt.
            if self.limiter is not None and handler not in (self.get_health_live, self.get_health_ready):
                retry_after = self.limiter.check(request.client)
                if retry_after > 0:
                    raise ServiceError(
                        429,
                        "rate_limited",
                        f"request rate exceeds {self.limiter.rate:g}/s per client; retry later",
                        retry_after=retry_after,
                    )
            response = handler(request, path_params)
        except BaseException as error:
            failure = error_from_exception(error)
            response = Response(failure.status, error_body(failure, request.request_id))
            if failure.retry_after is not None:
                response.headers["retry-after"] = str(max(1, math.ceil(failure.retry_after)))
        response.headers.setdefault("x-request-id", request.request_id)
        elapsed = time.perf_counter() - start
        self.metrics.record_request(route, response.status, elapsed)
        log_request(request.request_id, request.client, request.method, request.path, response.status, elapsed)
        return response

    # -- handlers ----------------------------------------------------------------

    def get_health_live(self, request: Request, _params: dict[str, str]) -> Response:
        """Liveness: the process is up and accepting requests.  Nothing else."""
        return Response(200, {"status": "ok", "request_id": request.request_id})

    def get_health_ready(self, request: Request, _params: dict[str, str]) -> Response:
        """Readiness: liveness plus store-backend reachability.

        A tiered store with its circuit open (or an unreachable server)
        reports ``degraded`` -- still HTTP 200, because a degraded service
        keeps answering from the local tier; degraded is not dead.  Plain
        local backends are always ``ready``.
        """
        body: dict[str, object] = {"status": "ready", "request_id": request.request_id}
        probe = getattr(self.runner.cache.backend, "health", None)
        if probe is not None:
            health = probe()  # talks TCP when the breaker allows
            body["store_backend"] = health
            if not health.get("reachable") or health.get("breaker_state") != "closed":
                body["status"] = "degraded"
        return Response(200, body)

    def get_experiments(self, request: Request, _params: dict[str, str]) -> Response:
        return Response(200, experiments_response(api.list_experiments(runner=self.runner)))

    def get_metrics(self, _request: Request, _params: dict[str, str]) -> Response:
        snapshot = self.metrics.snapshot()
        root = self.runner.cache.root
        if root is not None:
            # Persisted store counters (hits/claims/evictions across *all*
            # processes sharing the store), distinct from the per-service
            # request counters above.
            snapshot["stores"] = {"root": str(root), **load_stats(root).to_document()}
        status = getattr(self.runner.cache.backend, "remote_status", None)
        if status is not None:
            # Live networked-store gauges (no TCP probe): breaker state,
            # degraded wall-clock, cumulative remote traffic.
            snapshot["store_backend"] = status()
        return Response(200, snapshot)

    def _warm_lookup(self, name: str, params: dict[str, object] | None) -> tuple[RunReport | None, bool]:
        """``(cached report or None, served from the in-memory L1?)``.

        Probes the L1 first, falls back to the disk store (populating the
        L1 on a hit) and raises the same validation errors as
        :meth:`ExperimentRunner.lookup`.
        """
        if self.warm_cache is None:
            return self.runner.lookup(name, params), False
        config, key, _fingerprint = self.runner.address(name, params)
        start = time.perf_counter()
        entry = self.warm_cache.get(name, key)
        from_memory = entry is not None
        if entry is None:
            entry = self.runner.cache.get(name, key)
            if entry is not None:
                try:
                    self.warm_cache.put(key, entry)
                except Exception:  # best effort: L1 population never fails a probe
                    pass
        if entry is None:
            return None, False
        return RunReport.replayed(name, config, key, entry, start), from_memory

    def post_run(self, request: Request, path_params: dict[str, str]) -> Response:
        """Warm hits answer synchronously; cold configs become jobs."""
        name = path_params["name"]
        body = RunRequest.from_body(request.body)
        report, from_memory = self._warm_lookup(name, body.params)
        self.metrics.record_cache(hit=report is not None, warm=from_memory)
        if report is not None:
            return Response(200, run_response(report, request.request_id))
        record, _created = self.jobs.submit(
            kind="run",
            experiments=[name],
            params=body.params,
            request_id=request.request_id,
            idempotency_key=request.header("idempotency-key"),
        )
        return Response(
            202,
            {"job": record.to_jsonable(), "request_id": request.request_id},
            headers={"location": f"/v1/jobs/{record.id}"},
        )

    def post_job(self, request: Request, _params: dict[str, str]) -> Response:
        body = JobRequest.from_body(request.body)
        if body.grid is not None:
            # Validate before queueing so schema errors are a synchronous 400.
            api.validate_sweep(body.experiment, body.grid, body.params, runner=self.runner)
            experiments = [body.experiment]
            kind = "sweep"
        else:
            experiments = api.validate_targets(
                None if body.experiment == "all" else [body.experiment], body.params, runner=self.runner
            )
            kind = "run"
        record, created = self.jobs.submit(
            kind=kind,
            experiments=experiments,
            params=body.params,
            grid=body.grid,
            jobs=body.jobs,
            request_id=request.request_id,
            idempotency_key=request.header("idempotency-key"),
        )
        return Response(
            202 if created else 200,
            {"job": record.to_jsonable(), "created": created, "request_id": request.request_id},
            headers={"location": f"/v1/jobs/{record.id}"},
        )

    def get_jobs(self, _request: Request, _params: dict[str, str]) -> Response:
        return Response(200, {"jobs": self.jobs.listing()})

    def get_job(self, _request: Request, path_params: dict[str, str]) -> Response:
        return Response(200, self.jobs.get(path_params["id"]).to_jsonable())

    def post_job_retry(self, request: Request, path_params: dict[str, str]) -> Response:
        """Re-queue an interrupted/failed job (202) under its original id."""
        record = self.jobs.resubmit(path_params["id"], request_id=request.request_id)
        return Response(
            202,
            {"job": record.to_jsonable(), "request_id": request.request_id},
            headers={"location": f"/v1/jobs/{record.id}"},
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.jobs.close(drain_seconds=self.drain_seconds)


def build_app(
    runner: ExperimentRunner | None = None,
    *,
    jobs: int = 1,
    rate_limit: float = 0.0,
    rate_burst: int | None = None,
    max_queue: int = 64,
    drain_seconds: float = 10.0,
    state_dir: str | None = None,
) -> ServiceApp:
    """The app ``repro.api.serve`` (and the test harness) boots."""
    return ServiceApp(
        runner if runner is not None else api.make_runner(),
        jobs=jobs,
        rate_limit=rate_limit,
        rate_burst=rate_burst,
        max_queue=max_queue,
        drain_seconds=drain_seconds,
        state_dir=state_dir,
    )
