"""Background jobs: cold runs and sweeps off the request path.

Warm-cache hits are answered synchronously by the run endpoint; anything
that must actually compute becomes a job here.  Jobs execute on a
single job thread (compute stays serialised service-side -- concurrency
*within* a job comes from the runner's existing process-pool executor via
its ``jobs=N`` fan-out) and report per-wave artifact progress through the
runner's observer hook.

Idempotency keys collapse duplicate submissions: re-submitting the same
key returns the original job (so network-level retries of a ``POST``
cannot double-compute), while the same key with a *different* payload is
a conflict.

Durability and overload (PR 7):

* with a ``state_dir``, every job state transition is journaled to disk
  (fsynced append to ``journal.jsonl``, compacted to one line per job on
  startup), so ``GET /v1/jobs`` survives a service restart.  Jobs that
  were queued or running when the process died come back ``interrupted``
  and can be re-run via ``POST /v1/jobs/{id}/retry``.  Journaled records
  never include report/sweep payloads -- results live in the result
  cache, so a re-run of a finished config is a warm hit;
* the queue is bounded: submissions past ``max_queue`` are shed with a
  503 and the stable ``overloaded`` error code plus a ``Retry-After``
  hint, instead of accepting unbounded memory growth;
* :meth:`JobManager.close` drains in-flight jobs for a bounded deadline
  and marks whatever is still unfinished ``interrupted`` (journaled), so
  SIGTERM never silently loses a job.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .models import ServiceError
from .. import api
from ..faults import fault_point
from ..runner.journal import Journal
from ..runner.service import ExperimentRunner

logger = logging.getLogger(__name__)

#: Job lifecycle states, in order (``interrupted`` = the service died or
#: shut down while the job was queued/running; re-runnable via retry).
QUEUED, RUNNING, DONE, FAILED, INTERRUPTED = (
    "queued",
    "running",
    "done",
    "failed",
    "interrupted",
)


@dataclass
class JobRecord:
    """One submitted job and everything ``GET /v1/jobs/{id}`` reports."""

    id: str
    kind: str  # "run" | "sweep"
    experiments: list[str]
    params: dict[str, object]
    grid: dict[str, list[object]] | None
    jobs: int
    request_id: str
    idempotency_key: str | None
    state: str = QUEUED
    created_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    error: dict[str, object] | None = None
    progress: dict[str, object] = field(default_factory=dict)
    reports: list[dict[str, object]] | None = None
    sweep: dict[str, object] | None = None

    def to_jsonable(self) -> dict[str, object]:
        document: dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "experiments": list(self.experiments),
            "params": dict(self.params),
            "state": self.state,
            "jobs": self.jobs,
            "request_id": self.request_id,
            "created_unix": round(self.created_unix, 3),
            "started_unix": round(self.started_unix, 3) if self.started_unix else None,
            "finished_unix": round(self.finished_unix, 3) if self.finished_unix else None,
            "progress": dict(self.progress),
            "error": dict(self.error) if self.error else None,
        }
        if self.grid is not None:
            document["grid"] = dict(self.grid)
        if self.reports is not None:
            document["reports"] = self.reports
        if self.sweep is not None:
            document["sweep"] = self.sweep
        return document

    def to_journal(self) -> dict[str, object]:
        """The journaled form: full record minus report/sweep payloads.

        Results are reproducible from the result cache, so persisting them
        twice would only bloat the journal; a restarted service reports
        finished jobs without their reports.
        """
        document = self.to_jsonable()
        document.pop("reports", None)
        document.pop("sweep", None)
        document["idempotency_key"] = self.idempotency_key
        return document

    @classmethod
    def from_journal(cls, document: dict[str, object]) -> "JobRecord":
        """Rebuild a record from its journaled form (payloads stay absent)."""
        return cls(
            id=str(document["id"]),
            kind=str(document["kind"]),
            experiments=[str(name) for name in document["experiments"]],
            params=dict(document.get("params") or {}),
            grid=dict(document["grid"]) if document.get("grid") is not None else None,
            jobs=int(document.get("jobs") or 1),
            request_id=str(document.get("request_id") or ""),
            idempotency_key=document.get("idempotency_key"),
            state=str(document.get("state") or QUEUED),
            created_unix=float(document.get("created_unix") or 0.0),
            started_unix=document.get("started_unix"),
            finished_unix=document.get("finished_unix"),
            error=dict(document["error"]) if document.get("error") else None,
            progress=dict(document.get("progress") or {}),
        )


class JobManager:
    """Submission, idempotency collapse and execution of background jobs."""

    def __init__(
        self,
        runner: ExperimentRunner,
        *,
        jobs: int = 1,
        max_queue: int = 64,
        state_dir: Path | str | None = None,
    ):
        self.runner = runner
        self.default_jobs = max(1, jobs)
        self.max_queue = max(1, max_queue)
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._by_key: dict[str, tuple[str, str]] = {}  # idempotency key -> (job id, payload digest)
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-job")
        self._in_flight = 0
        self._journal = Journal(Path(state_dir) / "journal.jsonl") if state_dir is not None else None
        if self._journal is not None:
            self._restore(Path(state_dir) / "snapshot.json")

    @staticmethod
    def _interrupt(record: JobRecord, message: str) -> None:
        """Mark an unfinished record ``interrupted`` (re-runnable via retry)."""
        record.state = INTERRUPTED
        record.finished_unix = record.finished_unix or time.time()
        record.error = {"code": "interrupted", "message": message}
        record.progress["phase"] = "interrupted"

    def _restore(self, snapshot: Path) -> None:
        """Replay the journal (last record per id wins): unfinished -> interrupted.

        A ``snapshot.json`` left by an older service is read first, then
        removed once the compacted journal holds its records.
        """
        try:
            documents = json.loads(snapshot.read_text())
        except (OSError, ValueError):
            documents = []
        for document in [*(documents if isinstance(documents, list) else []), *self._journal.read()]:
            try:
                record = JobRecord.from_journal(document)
            except (KeyError, TypeError, ValueError):
                logger.warning("skipping malformed journaled job record")
                continue
            if record.id not in self._records:
                self._order.append(record.id)
            self._records[record.id] = record
        for record in self._records.values():
            if record.state in (QUEUED, RUNNING):
                self._interrupt(record, "the service stopped while this job was in flight; retry to re-run")
            if record.idempotency_key is not None:
                digest = self._payload_digest(record.kind, record.experiments, record.params, record.grid)
                self._by_key[record.idempotency_key] = (record.id, digest)
        try:
            self._journal.compact(lambda _lines: [self._records[job_id].to_journal() for job_id in self._order])
            snapshot.unlink(missing_ok=True)
        except OSError as error:
            logger.warning("job journal compaction failed (%s)", error)

    def _journal_append(self, record: JobRecord) -> None:
        """Persist one state transition (no-op without a state dir)."""
        if self._journal is not None:
            try:
                self._journal.append(record.to_journal(), durable=True)
            except OSError as error:
                logger.warning("job journal append failed (%s); record kept in memory", error)

    # -- submission -------------------------------------------------------------

    @staticmethod
    def _payload_digest(kind: str, experiments: list[str], params: dict[str, object], grid) -> str:
        payload = {"kind": kind, "experiments": experiments, "params": params, "grid": grid}
        return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()

    def submit(
        self,
        *,
        kind: str,
        experiments: list[str],
        params: dict[str, object],
        grid: dict[str, list[object]] | None = None,
        jobs: int | None = None,
        request_id: str = "",
        idempotency_key: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Queue a job; returns ``(record, created)``.

        ``created`` is ``False`` when an idempotency key collapsed the
        submission onto an existing job.  The same key with a different
        payload is a 409 conflict -- silently returning a job that computes
        something else would be worse than failing.
        """
        digest = self._payload_digest(kind, experiments, params, grid)
        with self._lock:
            if idempotency_key is not None:
                existing = self._by_key.get(idempotency_key)
                if existing is not None:
                    job_id, known_digest = existing
                    if known_digest != digest:
                        raise ServiceError(
                            409,
                            "idempotency_conflict",
                            f"idempotency key {idempotency_key!r} was already used with a different payload",
                        )
                    return self._records[job_id], False
            self._check_capacity()
            record = JobRecord(
                id=f"job-{uuid.uuid4().hex[:12]}",
                kind=kind,
                experiments=list(experiments),
                params=dict(params),
                grid=dict(grid) if grid is not None else None,
                jobs=min(self.default_jobs, jobs) if jobs else self.default_jobs,
                request_id=request_id,
                idempotency_key=idempotency_key,
            )
            self._records[record.id] = record
            self._order.append(record.id)
            if idempotency_key is not None:
                self._by_key[idempotency_key] = (record.id, digest)
            self._in_flight += 1
            self._journal_append(record)
        self._pool.submit(self._execute, record.id)
        return record, True

    def _check_capacity(self) -> None:
        """Shed load once the queue is full (called with the lock held)."""
        if self._in_flight < self.max_queue:
            return
        # One in-flight job is actively computing; everything else waits
        # behind it, so "queue length x a nominal per-job minute" is an
        # honest first-order hint for when capacity frees up.
        raise ServiceError(
            503,
            "overloaded",
            f"job queue is full ({self._in_flight} in flight, limit {self.max_queue}); retry later",
            retry_after=min(300.0, 5.0 * self._in_flight),
        )

    def resubmit(self, job_id: str, *, request_id: str = "") -> JobRecord:
        """Re-queue an ``interrupted``/``failed`` job for a fresh run.

        The original record is reset in place (same id, same payload), so a
        client that discovered the interruption via ``GET /v1/jobs`` can
        retry without re-posting the payload.  Finished configs replay
        from the result cache, so retrying a job whose work actually
        completed before the crash is a warm no-op.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServiceError(404, "unknown_job", f"no job {job_id!r}")
            if record.state not in (INTERRUPTED, FAILED):
                raise ServiceError(
                    409,
                    "not_retryable",
                    f"job {job_id!r} is {record.state}; only interrupted/failed jobs can be retried",
                )
            self._check_capacity()
            record.state = QUEUED
            record.started_unix = None
            record.finished_unix = None
            record.error = None
            record.progress = {}
            record.reports = None
            record.sweep = None
            if request_id:
                record.request_id = request_id
            self._in_flight += 1
            self._journal_append(record)
        self._pool.submit(self._execute, record.id)
        return record

    # -- queries ----------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(404, "unknown_job", f"no job {job_id!r}")
        return record

    def listing(self) -> list[dict[str, object]]:
        """Submission-order summaries (no report payloads)."""
        with self._lock:
            records = [self._records[job_id] for job_id in self._order]
        return [
            {
                "id": record.id,
                "kind": record.kind,
                "experiments": record.experiments,
                "state": record.state,
                "created_unix": round(record.created_unix, 3),
            }
            for record in records
        ]

    def counts(self) -> dict[str, int]:
        with self._lock:
            by_state = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, INTERRUPTED)}
            for record in self._records.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            by_state["in_flight"] = self._in_flight
            return by_state

    # -- execution ---------------------------------------------------------------

    def _observer(self, job_id: str):
        """Bridge runner progress events into the job record, thread-safely."""

        def observe(event: dict[str, object]) -> None:
            with self._lock:
                record = self._records[job_id]
                kind = event.get("event")
                if kind == "planned":
                    record.progress.update(
                        phase="planned",
                        cached=event["cached"],
                        cold=event["cold"],
                        waves=[],
                    )
                elif kind == "artifact_wave":
                    record.progress["phase"] = "artifacts"
                    record.progress.setdefault("waves", []).append(
                        {
                            "level": event["level"],
                            "units": event["units"],
                            "missing": event["missing"],
                            "artifacts": event["artifacts"],
                            "done": False,
                        }
                    )
                elif kind == "artifact_wave_done":
                    for wave in record.progress.get("waves", []):
                        if wave["level"] == event["level"]:
                            wave["done"] = True
                elif kind == "executing":
                    record.progress["phase"] = "executing"
                    record.progress["experiments"] = event["experiments"]
                elif kind == "executed":
                    record.progress["phase"] = "finalizing"

        return observe

    def _execute(self, job_id: str) -> None:
        record = self.get(job_id)
        with self._lock:
            if record.state != QUEUED:  # cancelled/interrupted while queued
                return
            record.state = RUNNING
            record.started_unix = time.time()
            self._journal_append(record)
        try:
            fault_point("service.job", key=job_id)
            if record.kind == "sweep":
                outcome = api.sweep(
                    record.experiments[0],
                    record.grid or {},
                    record.params,
                    runner=self.runner,
                    jobs=record.jobs,
                    observer=self._observer(job_id),
                )
                with self._lock:
                    record.sweep = outcome.to_jsonable()
                    record.reports = [report.to_jsonable() for report in outcome.reports]
            else:
                reports = api.run_all(
                    record.experiments,
                    record.params or None,
                    runner=self.runner,
                    jobs=record.jobs,
                    observer=self._observer(job_id),
                )
                with self._lock:
                    record.reports = [report.to_jsonable() for report in reports]
            with self._lock:
                record.state = DONE
                record.progress["phase"] = "done"
        except BaseException as error:  # jobs must never take the worker thread down
            code = getattr(error, "code", "execution_error")
            with self._lock:
                record.state = FAILED
                record.error = {"code": code, "message": str(error)}
                record.progress["phase"] = "failed"
        finally:
            with self._lock:
                record.finished_unix = time.time()
                self._in_flight -= 1
                self._journal_append(record)
                self._drained.notify_all()

    def close(self, *, wait: bool = True, drain_seconds: float = 10.0) -> int:
        """Drain in-flight jobs, then shut the worker thread down.

        Waits up to ``drain_seconds`` (``wait=False`` skips the wait) for
        in-flight jobs to finish; whatever is still queued or running at
        the deadline is marked ``interrupted`` (and journaled) so a client
        polling ``GET /v1/jobs`` sees an honest terminal state and can
        retry.  Returns the number of jobs interrupted.
        """
        if wait and drain_seconds > 0:
            deadline = time.monotonic() + drain_seconds
            with self._drained:
                while self._in_flight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._drained.wait(timeout=remaining):
                        break
        interrupted = 0
        with self._lock:
            for record in self._records.values():
                if record.state in (QUEUED, RUNNING):
                    self._interrupt(record, "the service shut down before this job finished; retry to re-run")
                    interrupted += 1
                    self._journal_append(record)
        # cancel_futures drops still-queued work; a genuinely hung running
        # job cannot be force-killed (it is a thread), so we do not block
        # on it -- its record already says interrupted.
        self._pool.shutdown(wait=False, cancel_futures=True)
        return interrupted
