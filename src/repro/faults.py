"""Deterministic fault injection for the execution and serving layers.

The north-star system has to *prove* its failure handling, not wait for
production to exercise it: every recovery path (worker crash, hung unit,
corrupt store entry, disk-full write, overloaded service) is driven on
demand by injecting the fault at a named **injection site** and asserting
the documented recovery.  This module is that harness.

Activation
----------
Faults are specified as text -- via the ``REPRO_FAULTS`` environment
variable (so worker processes forked/spawned by the executor inherit the
plan) or the :func:`injected` context manager (which sets the same
variable around a scope)::

    REPRO_FAULTS="executor.unit:kill:match=fig4:times=1"
    REPRO_FAULTS="cache.write:disk_full;executor.unit:hang:seconds=30:match=table1"

Each ``;``-separated clause is ``site:kind[:option=value ...]`` where
``kind`` is one of:

``exc``
    raise :class:`FaultInjected` at the site;
``kill``
    ``SIGKILL`` the current process (a worker dying mid-unit).  In the
    main process the kill degrades to :class:`FaultInjected` so a
    misconfigured plan can never take the orchestrator/test runner down;
``hang``
    sleep ``seconds`` (default 60) -- exercises wall-clock timeouts;
``slow``
    sleep ``seconds`` (default 0.1) and continue -- latency injection;
``disk_full``
    raise ``OSError(ENOSPC)`` -- a full disk at a store write;
``corrupt``
    overwrite/truncate the bytes of the file the site is about to trust
    (sites that manage an on-disk entry pass its path).

Options: ``times=N`` fires at most N times (default 1), ``at=N`` fires
only on the N-th invocation of the site in this process (1-based),
``match=SUBSTRING`` fires only when the site's key (experiment name,
artifact name, job id ...) contains the substring, ``seconds=S`` the
sleep for ``hang``/``slow``.

Determinism
-----------
A plan is deterministic by construction: it fires on named sites filtered
by ``match``/``at``, never on randomness.  ``times`` budgets are enforced
per *process* by default; point ``REPRO_FAULTS_STATE`` at a directory and
the budget becomes global across every process sharing it (claimed via
``O_CREAT|O_EXCL`` ticket files), which is what "kill exactly one worker
mid-wave, then let the retry succeed" needs.

Sites
-----
``executor.pool`` (pool spawn), ``executor.unit`` (experiment worker
body, key = experiment name), ``executor.artifact`` (artifact producer
body, key = artifact name), ``cache.write`` / ``cache.written`` (result-cache put, before/after the
atomic replace; ``cache.written`` carries the entry path for
``corrupt``), ``artifact.write`` / ``artifact.written`` (artifact-store
put), ``cache.claim`` / ``artifact.claim`` (fired just after winning a
first-writer-wins fill claim, key = experiment/artifact name -- ``kill``
here is the claim winner dying mid-fill; losers must take over),
``cache.evict`` / ``artifact.evict`` (fired per entry before LRU
eviction deletes it, key = ``namespace/filename``), ``service.job``
(job thread, key = job id), ``net.connect`` / ``net.send`` / ``net.recv``
(client side of the networked store, around the socket operations of one
request; key = protocol op name -- an ``exc``/``hang`` here behaves like
a partition/black-holed server and must be absorbed by the client's
retries, breaker and tiered degradation), ``net.server`` (store server,
per request before dispatch; key = op name -- an ``exc`` tears the
connection like a crashed server).

With ``REPRO_FAULTS`` unset every :func:`fault_point` is a cheap no-op.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variables the plan travels through (workers inherit them).
ENV_SPEC = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"

#: Every fault kind a clause may name.
KINDS = ("exc", "kill", "hang", "slow", "disk_full", "corrupt")

_DEFAULT_SECONDS = {"hang": 60.0, "slow": 0.1}


class FaultInjected(RuntimeError):
    """The exception raised by ``exc`` faults (and main-process ``kill``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of a fault plan."""

    site: str
    kind: str
    times: int = 1
    at: int | None = None
    seconds: float | None = None
    match: str | None = None

    def clause(self) -> str:
        """The textual clause this spec round-trips to."""
        parts = [self.site, self.kind]
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.at is not None:
            parts.append(f"at={self.at}")
        if self.seconds is not None:
            parts.append(f"seconds={self.seconds:g}")
        if self.match is not None:
            parts.append(f"match={self.match}")
        return ":".join(parts)


def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value; raises ``ValueError`` on bad syntax."""
    specs: list[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or not parts[0]:
            raise ValueError(f"fault clause {clause!r} is not 'site:kind[:option=value]'")
        site, kind = parts[0], parts[1]
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; known: {', '.join(KINDS)}")
        options: dict[str, str] = {}
        for part in parts[2:]:
            name, separator, value = part.partition("=")
            if not separator or not name:
                raise ValueError(f"fault option {part!r} is not 'name=value'")
            options[name] = value
        try:
            spec = FaultSpec(
                site=site,
                kind=kind,
                times=int(options.pop("times", 1)),
                at=int(options.pop("at")) if "at" in options else None,
                seconds=float(options.pop("seconds")) if "seconds" in options else None,
                match=options.pop("match", None),
            )
        except ValueError as error:
            raise ValueError(f"fault clause {clause!r}: {error}") from None
        if options:
            raise ValueError(
                f"fault clause {clause!r} has unknown option(s) {sorted(options)};"
                " accepted: times, at, seconds, match"
            )
        if spec.times < 1:
            raise ValueError(f"fault clause {clause!r}: times must be >= 1")
        specs.append(spec)
    return tuple(specs)


def corrupt_file(path: Path | str) -> None:
    """Bytes-level corruption: garbage header + truncation to half size.

    Defeats both JSON and pickle parsers while leaving the file present,
    which is exactly the shape store quarantine has to handle (a missing
    file is a plain miss, not corruption).
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.write(b"\xde\xad\xbe\xef")
            handle.truncate(max(4, size // 2))
    except OSError:
        pass  # the entry raced away; nothing left to corrupt


def _perform(spec: FaultSpec) -> None:
    if spec.kind == "exc":
        raise FaultInjected(f"injected fault at {spec.site}")
    if spec.kind == "kill":
        import multiprocessing  # here, so importing the harness stays cheap for every command

        if multiprocessing.current_process().name == "MainProcess":
            # Killing the orchestrating process would take the harness (or
            # the test runner) down with it; degrade to an exception.
            raise FaultInjected(f"injected kill at {spec.site} (main process; raised instead)")
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.kind in ("hang", "slow"):
        time.sleep(spec.seconds if spec.seconds is not None else _DEFAULT_SECONDS[spec.kind])
        return
    if spec.kind == "disk_full":
        raise OSError(errno.ENOSPC, f"injected disk-full at {spec.site}")


class FaultPlan:
    """Parsed specs plus the per-process / shared firing state."""

    def __init__(self, specs: tuple[FaultSpec, ...], state_dir: Path | str | None = None):
        self.specs = specs
        self.state_dir = Path(state_dir) if state_dir else None
        self._seen: dict[str, int] = {}  # site -> invocation count (this process)
        self._fired: dict[int, int] = {}  # spec index -> times fired (this process)

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        """One ticket from the spec's ``times`` budget, or ``False`` when spent.

        With a state directory the budget is shared across processes:
        ticket files are claimed with ``O_CREAT | O_EXCL``, so exactly one
        process wins each ticket no matter how many race for it.
        """
        if self.state_dir is not None:
            try:
                self.state_dir.mkdir(parents=True, exist_ok=True)
            except OSError:
                return False
            for ticket in range(spec.times):
                token = self.state_dir / f"fault-{index}-{ticket}.fired"
                try:
                    descriptor = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                except OSError:
                    return False
                os.write(descriptor, f"{os.getpid()} {spec.clause()}\n".encode())
                os.close(descriptor)
                return True
            return False
        fired = self._fired.get(index, 0)
        if fired >= spec.times:
            return False
        self._fired[index] = fired + 1
        return True

    def fire(self, site: str, key: str | None = None, path: Path | str | None = None) -> None:
        """Run every matching spec's action for one site invocation."""
        count = self._seen[site] = self._seen.get(site, 0) + 1
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.match is not None and (key is None or spec.match not in key):
                continue
            if spec.at is not None and count != spec.at:
                continue
            if not self._claim(index, spec):
                continue
            if spec.kind == "corrupt":
                if path is not None:
                    corrupt_file(path)
                continue
            _perform(spec)


_PLAN: FaultPlan | None = None
_PLAN_SOURCE: tuple[str, str] | None = None


def active_plan() -> FaultPlan | None:
    """The plan ``REPRO_FAULTS`` describes, re-parsed whenever the env changes."""
    global _PLAN, _PLAN_SOURCE
    source = (os.environ.get(ENV_SPEC, ""), os.environ.get(ENV_STATE, ""))
    if source != _PLAN_SOURCE:
        _PLAN = FaultPlan(parse_faults(source[0]), source[1] or None) if source[0] else None
        _PLAN_SOURCE = source
    return _PLAN


def fault_point(site: str, key: object = None, path: Path | str | None = None) -> None:
    """Declare an injection site; a no-op unless an active plan matches it."""
    plan = active_plan()
    if plan is not None:
        plan.fire(site, str(key) if key is not None else None, path)


@contextlib.contextmanager
def injected(spec: str, *, state_dir: Path | str | None = None):
    """Activate ``spec`` for this scope -- and, via the env, for child workers.

    ``state_dir`` (when given) makes ``times`` budgets global across the
    processes sharing it; tests point it at a temp directory so "kill one
    worker, exactly once" stays exactly once through the retry.
    """
    previous = {name: os.environ.get(name) for name in (ENV_SPEC, ENV_STATE)}
    os.environ[ENV_SPEC] = spec
    if state_dir is not None:
        os.environ[ENV_STATE] = str(state_dir)
    else:
        os.environ.pop(ENV_STATE, None)
    try:
        yield active_plan()
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
