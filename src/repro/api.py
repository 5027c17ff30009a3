"""Stable public API facade of the reproduction.

Everything a front end needs lives here, exactly once: the ``python -m
repro`` CLI and the HTTP service (:mod:`repro.service`) are both thin
renderers over these functions, so parameter validation, config
canonicalisation and the error taxonomy cannot diverge between entry
points.  Runs validate their targets and shared params through
:func:`validate_targets`, sweeps through :func:`validate_sweep`, and an
unknown parameter name is rejected on every path by
:meth:`~repro.runner.registry.ExperimentSpec.param`.  The CLI keeps only
its own flag-combination checks (usage errors, exit code 2).

Functions
---------
:func:`list_experiments`
    Registry listing with each driver's ``PARAMS`` schema.
:func:`validate_targets` / :func:`validate_sweep`
    The validation a run / a sweep goes through before it executes.
:func:`run` / :func:`run_all`
    Cache-aware execution of one / several experiments.
:func:`sweep`
    Cartesian grid over one experiment's parameters.
:func:`serve`
    The blocking HTTP server behind ``python -m repro serve``.

Errors
------
All failures raise :class:`ReproError` subclasses with stable ``code``
fields: :class:`ParamError` (and its :class:`UnknownParamError` /
:class:`ParamTypeError` / :class:`ParamValueError` refinements),
:class:`UnknownExperimentError` and :class:`ExecutionError`.  The CLI maps
them to exit codes (validation 3, execution 4); the HTTP layer maps them
to status codes (400/404/500) with the ``code`` echoed in the JSON error
body.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .analysis.sweep import SweepResult, sweep_grid
from .runner.errors import (
    ExecutionError,
    ParamError,
    ParamTypeError,
    ParamValueError,
    ReproError,
    UnitTimeoutError,
    UnknownExperimentError,
    UnknownParamError,
    WorkerCrashError,
)
from .runner.executor import DEFAULT_POLICY, ExecutionPolicy, open_stores
from .runner.registry import ExperimentSpec
from .runner.service import ExperimentRunner, Observer, RunReport

__all__ = [
    "DEFAULT_POLICY",
    "ExecutionError",
    "ExperimentRunner",
    "ParamError",
    "ParamTypeError",
    "ParamValueError",
    "ReproError",
    "RunReport",
    "SweepReport",
    "UnitTimeoutError",
    "UnknownExperimentError",
    "UnknownParamError",
    "WorkerCrashError",
    "list_experiments",
    "make_runner",
    "parse_param",
    "run",
    "run_all",
    "serve",
    "sweep",
    "validate_grid",
    "validate_params",
    "validate_sweep",
    "validate_targets",
]


def make_runner(
    *,
    cache_dir: str | None = None,
    use_cache: bool = True,
    cache_max_bytes: int | None = None,
    store_url: str | None = None,
    runner: ExperimentRunner | None = None,
) -> ExperimentRunner:
    """The runner a facade call should use (an explicit one wins).

    ``cache_max_bytes`` bounds the result cache with LRU eviction
    (default ``$REPRO_CACHE_MAX_BYTES``, else unbounded).  ``store_url``
    (default ``$REPRO_STORE_URL``) tiers both stores onto a shared
    networked store server: writes go through the local disk first, reads
    fall back to the remote, and the runner degrades to local-only while
    the server is unreachable.  The networked backend is imported lazily
    so local-only runners never construct (or fingerprint) it.
    """
    if runner is not None:
        return runner
    if store_url is None:
        store_url = os.environ.get("REPRO_STORE_URL") or None
    cache, artifacts = open_stores(cache_dir, store_url)
    if cache_max_bytes is not None:
        cache.max_bytes = cache_max_bytes
    return ExperimentRunner(cache=cache, use_cache=use_cache, artifacts=artifacts)


def list_experiments(*, runner: ExperimentRunner | None = None) -> list[dict[str, object]]:
    """Schema listing of every registered experiment, registry order.

    Each entry is :meth:`repro.runner.registry.ExperimentSpec.schema`:
    ``{"name", "params": {name: {"type", "default"}}, "artifacts"}``.
    """
    runner = runner if runner is not None else make_runner(use_cache=False)
    return [spec.schema() for spec in runner.registry.values()]


def validate_params(
    name: str, params: Mapping[str, object] | None, *, runner: ExperimentRunner | None = None
) -> dict[str, object]:
    """Validate/coerce overrides against ``name``'s schema; canonical config.

    Raises :class:`UnknownExperimentError` or a :class:`ParamError`
    subclass.  This is the one validation path; the CLI and every HTTP
    endpoint call it (directly or through :func:`run`/:func:`sweep`).
    """
    runner = runner if runner is not None else make_runner(use_cache=False)
    return runner.spec(name).canonical_config(params or {})


def parse_param(spec: ExperimentSpec, key: str, text: str) -> object:
    """One textual (CLI/query-string) parameter value, schema-typed.

    Raises :class:`UnknownParamError` for undeclared names and
    :class:`ParamValueError` for unparsable text.
    """
    return spec.param(key).parse(text)


def validate_grid(
    name: str, grid: Mapping[str, Sequence[object]], *, runner: ExperimentRunner | None = None
) -> dict[str, list[object]]:
    """Validate/coerce a sweep grid against ``name``'s schema.

    Tuple-typed parameters cannot be swept (a grid axis of sequences is
    ambiguous with the sequence-of-values encoding); empty axes are
    rejected.  Values are coerced item-wise through the same ``ParamSpec``
    the single-run path uses.
    """
    runner = runner if runner is not None else make_runner(use_cache=False)
    spec = runner.spec(name)
    validated: dict[str, list[object]] = {}
    for key, values in grid.items():
        if spec.param(key).type is tuple:
            raise ParamTypeError(
                f"tuple-typed parameter {key!r} cannot be grid-swept",
                param=key,
                expected="a scalar-typed parameter",
            )
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise ParamTypeError(
                f"grid axis {key!r} must be a list of values, got {values!r}",
                param=key,
                expected="list of values",
            )
        coerced = [spec.params[key].coerce(value) for value in values]
        if not coerced:
            raise ParamValueError(
                f"grid axis {key!r} names no values", param=key, expected="at least one value"
            )
        validated[key] = coerced
    return validated


def validate_sweep(
    name: str,
    grid: Mapping[str, Sequence[object]],
    params: Mapping[str, object] | None = None,
    *,
    runner: ExperimentRunner | None = None,
) -> tuple[dict[str, list[object]], dict[str, object]]:
    """``(validated grid, fixed params)`` of a sweep, or the error it would raise.

    The grid as :func:`validate_grid` coerces it; the fixed params must
    pass :func:`validate_params` and name no grid axis.
    """
    runner = runner if runner is not None else make_runner(use_cache=False)
    validated_grid = validate_grid(name, grid, runner=runner)
    fixed = dict(params or {})
    overlap = set(validated_grid) & set(fixed)
    if overlap:
        raise ParamError(
            f"parameter(s) {sorted(overlap)} appear in both the grid and the fixed params",
            param=sorted(overlap)[0],
            expected="each parameter either swept or fixed, not both",
        )
    validate_params(name, fixed, runner=runner)
    return validated_grid, fixed


def _policy(timeout: float | None, retries: int | None) -> ExecutionPolicy:
    """The execution policy a facade call resolves to; invalid values raise :class:`ParamValueError`."""
    return DEFAULT_POLICY.with_overrides(timeout=timeout, retries=retries)


def _execute(
    runner: ExperimentRunner,
    requests,
    *,
    jobs: int,
    observer: Observer | None,
    policy: ExecutionPolicy,
):
    """One guarded execution path: driver failures become ``ExecutionError``."""
    try:
        return runner.run_many(requests, jobs=jobs, observer=observer, policy=policy)
    except ReproError:
        raise
    except Exception as error:
        names = ", ".join(sorted({name for name, _config in requests}))
        raise ExecutionError(f"experiment execution failed ({names}): {error}") from error


def validate_targets(
    names: Sequence[str] | None,
    params: Mapping[str, object] | None = None,
    *,
    runner: ExperimentRunner | None = None,
) -> list[str]:
    """The experiments a run names (default: every registered one), validated.

    ``params`` apply to every target, so they are only accepted together
    with exactly one target; each target's params pass
    :func:`validate_params`.  :func:`run_all` and the HTTP job endpoint
    both validate through here.
    """
    runner = runner if runner is not None else make_runner(use_cache=False)
    targets = list(names) if names is not None else list(runner.registry)
    if params and len(targets) != 1:
        raise ParamError(
            "shared params require exactly one experiment target",
            expected="a single experiment name",
        )
    for target in targets:
        validate_params(target, params, runner=runner)
    return targets


def run(name: str, params: Mapping[str, object] | None = None, **options: object) -> RunReport:
    """Run one experiment (cache-aware): :func:`run_all` of ``[name]``, same keyword options."""
    return run_all([name], params, **options)[0]


def run_all(
    names: Sequence[str] | None = None,
    params: Mapping[str, object] | None = None,
    *,
    runner: ExperimentRunner | None = None,
    cache_dir: str | None = None,
    use_cache: bool = True,
    jobs: int = 1,
    observer: Observer | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[RunReport]:
    """Run several experiments (default: every registered one), request order.

    ``params`` (when given) applies to every named experiment, so it is
    only accepted together with an explicit single-name list -- the CLI
    enforces the same rule for ``--param``.  ``timeout`` / ``retries``
    tune the parallel executor's per-unit wall-clock budget and retry
    count; both only apply when ``jobs > 1`` spawns worker processes, but
    a non-positive timeout or a negative retry count is rejected on every
    call (:class:`ParamValueError`).
    """
    runner = make_runner(cache_dir=cache_dir, use_cache=use_cache, runner=runner)
    targets = validate_targets(names, params, runner=runner)
    requests = [(target, dict(params or {})) for target in targets]
    return _execute(runner, requests, jobs=jobs, observer=observer, policy=_policy(timeout, retries))


@dataclass
class SweepReport:
    """Outcome of a parameter sweep run through the facade.

    ``records`` are the grid-order rows, each tagged with its grid
    assignment (assignment keys win nothing -- row values win on
    collisions).
    """

    experiment: str
    grid: dict[str, list[object]]
    fixed: dict[str, object]
    assignments: list[dict[str, object]] = field(default_factory=list)
    reports: list[RunReport] = field(default_factory=list)

    @property
    def records(self) -> list[dict[str, object]]:
        return [
            {**assignment, **row}
            for assignment, report in zip(self.assignments, self.reports)
            for row in report.rows
        ]

    @property
    def result(self) -> SweepResult:
        return SweepResult(records=self.records)

    @property
    def cached_cells(self) -> int:
        return sum(1 for report in self.reports if report.cached)

    def to_jsonable(self) -> dict[str, object]:
        return {
            "experiment": self.experiment,
            "grid": self.grid,
            "fixed": self.fixed,
            "cells": len(self.assignments),
            "cached_cells": self.cached_cells,
            "records": self.records,
        }


def sweep(
    name: str,
    grid: Mapping[str, Sequence[object]],
    params: Mapping[str, object] | None = None,
    *,
    runner: ExperimentRunner | None = None,
    cache_dir: str | None = None,
    use_cache: bool = True,
    jobs: int = 1,
    observer: Observer | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> SweepReport:
    """Cartesian grid over one experiment's parameters, each cell cache-aware."""
    runner = make_runner(cache_dir=cache_dir, use_cache=use_cache, runner=runner)
    validated_grid, fixed = validate_sweep(name, grid, params, runner=runner)
    assignments = sweep_grid(validated_grid)
    reports = _execute(
        runner,
        [(name, {**fixed, **assignment}) for assignment in assignments],
        jobs=jobs,
        observer=observer,
        policy=_policy(timeout, retries),
    )
    return SweepReport(
        experiment=name,
        grid=validated_grid,
        fixed=fixed,
        assignments=assignments,
        reports=reports,
    )


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    rate_limit: float = 0.0,
    rate_burst: int | None = None,
    max_queue: int = 64,
    drain_seconds: float = 10.0,
    state_dir: str | None = None,
    store_url: str | None = None,
) -> int:
    """Serve the reproduction over HTTP (blocks until interrupted).

    ``rate_limit`` is requests/second per client (0 disables limiting);
    ``rate_burst`` the token-bucket capacity (defaults to ``2 * rate``).
    ``max_queue`` bounds queued + running jobs (excess submissions are shed
    with 503/``overloaded``), ``drain_seconds`` is how long shutdown waits
    for in-flight jobs, and ``state_dir`` is where job records are
    journaled so they survive a restart (default ``<cache root>/jobs``).
    ``store_url`` (default ``$REPRO_STORE_URL``) tiers the service's
    stores onto a shared networked store server.  The service layer is
    imported lazily so library users never pay for it.
    """
    from .service import build_app, serve_forever

    runner = make_runner(
        cache_dir=cache_dir, cache_max_bytes=cache_max_bytes, store_url=store_url
    )
    app = build_app(
        runner=runner,
        jobs=jobs,
        rate_limit=rate_limit,
        rate_burst=rate_burst,
        max_queue=max_queue,
        drain_seconds=drain_seconds,
        state_dir=state_dir if state_dir is not None else str(runner.cache.root / "jobs"),
    )
    return serve_forever(app, host=host, port=port)
