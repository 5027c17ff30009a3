"""``python -m repro`` -- the unified reproduction command line.

Subcommands
-----------
``run``     execute experiments (cache-aware, ``--jobs N`` fans cold runs
            out over processes); export rows as JSON/CSV, write a timing
            summary with ``--timing-json``
``report``  print the driver-formatted tables (from cache when warm)
``sweep``   Cartesian grid over one experiment's parameters, each cell a
            cache-aware run; rows are tagged with their grid coordinates
``serve``   the HTTP/JSON service over the same runner (``repro.api.serve``)
``cache``   ``ls`` / ``clear`` / ``stats`` over the content-addressed result
            cache and artifact store (``clear`` resets the hit/miss counters)
``store``   ``serve`` a store root over TCP so a fleet of runners can share
            one cache (clients connect via ``--store-url``/``$REPRO_STORE_URL``)
``list``    show registered experiments and their parameter schemas

The CLI is a thin renderer over :mod:`repro.api`, so validation and the
error taxonomy are shared with the HTTP service.  Exit codes are stable:
2 for usage errors (argparse included), 3 for parameter/experiment
validation failures, 4 for execution failures.

This replaces the per-driver ``if __name__ == "__main__"`` entry points;
``python -m repro.experiments.fig4`` still works and routes here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from ..analysis.reporting import format_table, to_csv
from .errors import ExecutionError, ParamError, ReproError, UnknownExperimentError

if TYPE_CHECKING:
    from .artifacts import ArtifactStore
    from .cache import ResultCache
    from .registry import ExperimentSpec
    from .service import ExperimentRunner, RunReport
    from .store import ContentStore

# The stores and the runner service are imported inside the handlers that
# use them, so a command loads only what it runs.

#: Stable exit codes (usage errors / validation failures / execution failures).
USAGE_EXIT, VALIDATION_EXIT, EXECUTION_EXIT = 2, 3, 4


class CliError(SystemExit):
    """A clean CLI failure: carries the message *and* a stable exit code.

    Subclasses :class:`SystemExit` so ``pytest.raises(SystemExit,
    match=...)`` keeps matching the message text, while ``__main__``
    prints it and exits with :attr:`code`.
    """

    def __init__(self, message: str, *, code: int = USAGE_EXIT):
        super().__init__(code)
        self.message = message

    def __str__(self) -> str:
        return self.message


def _api():
    """The facade, imported late: it brings the runner service and the executor."""
    from .. import api

    return api


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or ~/.cache/dvafs-repro)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "result-cache size budget in bytes; least-recently-used entries are "
            "evicted past it (default: $REPRO_CACHE_MAX_BYTES, else unbounded; "
            "the artifact store has its own $REPRO_ARTIFACTS_MAX_BYTES budget)"
        ),
    )
    parser.add_argument(
        "--store-url",
        metavar="URL",
        default=None,
        help=(
            "shared networked store server (tcp://host:port; default: $REPRO_STORE_URL); "
            "both stores tier onto it write-through and degrade to local disk when it "
            "is unreachable"
        ),
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        metavar="EXPERIMENT",
        help="experiment names, or 'all' (default)",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes for cold runs")
    parser.add_argument("--no-cache", action="store_true", help="always recompute; do not read or write the cache")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override (repeatable; single experiment target only)",
    )
    _add_policy_arguments(parser)
    _add_cache_arguments(parser)


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget for parallel workers (default: unbounded)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per unit after a worker crash/timeout (default: 2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures through the cached experiment runner.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute experiments and export their rows")
    _add_run_arguments(run_parser)
    output_format = run_parser.add_mutually_exclusive_group()
    output_format.add_argument("--json", action="store_true", help="emit run reports as JSON")
    output_format.add_argument("--csv", action="store_true", help="emit rows as CSV")
    run_parser.add_argument("--out", metavar="DIR", default=None, help="write one rows file per experiment into DIR")
    run_parser.add_argument(
        "--timing-json", metavar="PATH", default=None, help="write per-experiment timing/cache summary JSON"
    )

    report_parser = subparsers.add_parser("report", help="print the formatted tables")
    _add_run_arguments(report_parser)

    sweep_parser = subparsers.add_parser("sweep", help="grid-sweep one experiment's parameters")
    sweep_parser.add_argument("experiment", metavar="EXPERIMENT")
    sweep_parser.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="swept parameter values (repeatable; grid = Cartesian product)",
    )
    sweep_parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE", help="fixed override")
    sweep_parser.add_argument("--jobs", type=int, default=1, metavar="N")
    sweep_parser.add_argument("--no-cache", action="store_true")
    _add_policy_arguments(sweep_parser)
    sweep_format = sweep_parser.add_mutually_exclusive_group()
    sweep_format.add_argument("--json", action="store_true")
    sweep_format.add_argument("--csv", action="store_true")
    sweep_parser.add_argument("--out", metavar="PATH", default=None, help="write sweep records to PATH")
    _add_cache_arguments(sweep_parser)

    serve_parser = subparsers.add_parser("serve", help="serve the reproduction over HTTP (JSON API)")
    serve_parser.add_argument("--host", default="127.0.0.1", metavar="HOST", help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080, metavar="PORT", help="bind port (default 8080)")
    serve_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes available to background jobs"
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="R",
        help="requests/second allowed per client (0 = unlimited)",
    )
    serve_parser.add_argument(
        "--rate-burst", type=int, default=None, metavar="N", help="rate-limiter burst capacity (default 2*R)"
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="max queued+running jobs before submissions are shed with 503 (default 64)",
    )
    serve_parser.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        metavar="S",
        help="how long shutdown waits for in-flight jobs (default 10)",
    )
    serve_parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="job-journal directory (default: <cache root>/jobs)",
    )
    _add_cache_arguments(serve_parser)

    cache_parser = subparsers.add_parser("cache", help="inspect/clear the result cache and artifact store")
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_subparsers.add_parser("ls", help="list cached entries")
    _add_cache_arguments(cache_ls)
    cache_clear = cache_subparsers.add_parser(
        "clear", help="delete cached entries (and reset the hit/miss counters)"
    )
    cache_clear.add_argument("--experiment", default=None, metavar="EXPERIMENT", help="only this experiment's entries")
    _add_cache_arguments(cache_clear)
    cache_stats = cache_subparsers.add_parser(
        "stats", help="entry counts, bytes and hit/miss counters since the last clear"
    )
    cache_stats.add_argument("--json", action="store_true", help="emit the summary as JSON")
    _add_cache_arguments(cache_stats)

    store_parser = subparsers.add_parser(
        "store", help="the shared networked store (server side of --store-url)"
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    store_serve = store_subparsers.add_parser(
        "serve", help="serve a store root over TCP for a fleet of runners"
    )
    store_serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST", help="bind address (default 127.0.0.1)"
    )
    store_serve.add_argument(
        "--port", type=int, default=8484, metavar="PORT", help="bind port (default 8484; 0 = ephemeral)"
    )
    store_serve.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="store root directory to serve (default: <cache root>/store)",
    )
    store_serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget per served store; LRU entries are evicted past it (default: unbounded)",
    )

    subparsers.add_parser("list", help="list experiments and their parameters")
    return parser


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    # Delegates to the facade so --store-url / $REPRO_STORE_URL tiering is
    # wired exactly the way library users and the HTTP service get it.
    return _api().make_runner(
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
        store_url=getattr(args, "store_url", None),
    )


def _parse_pairs(pairs: list[str], *, what: str) -> dict[str, str]:
    parsed: dict[str, str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise CliError(f"error: {what} {pair!r} is not KEY=VALUE")
        parsed[key] = value
    return parsed


def _typed_overrides(spec: ExperimentSpec, pairs: list[str]) -> dict[str, object]:
    parse_param = _api().parse_param
    return {
        key: parse_param(spec, key, text)
        for key, text in _parse_pairs(pairs, what="--param").items()
    }


def _collect_reports(runner: ExperimentRunner, args: argparse.Namespace) -> list[RunReport]:
    targets = list(runner.registry) if args.targets in (["all"], []) else args.targets
    if args.param and len(targets) != 1:
        raise CliError("error: --param requires exactly one experiment target")
    if getattr(args, "csv", False) and not args.out and len(targets) != 1:
        raise CliError("error: --csv to stdout requires exactly one experiment (or use --out DIR)")
    overrides = _typed_overrides(runner.spec(targets[0]), args.param) if args.param else {}
    return _api().run_all(
        targets,
        overrides or None,
        runner=runner,
        jobs=args.jobs,
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", None),
    )


def _write_timing_json(path: str, reports: list[RunReport], *, jobs: int, total_seconds: float) -> None:
    summary = {
        "total_seconds": round(total_seconds, 4),
        "jobs": jobs,
        "experiments": {
            report.name: {
                "elapsed_seconds": round(report.elapsed_seconds, 4),
                "compute_seconds": round(report.compute_seconds, 4),
                "cached": report.cached,
                "rows": len(report.rows),
                "key": report.key,
                "fingerprint": report.fingerprint,
            }
            for report in reports
        },
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(summary, indent=1))


def _command_run(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    start = time.perf_counter()
    reports = _collect_reports(runner, args)
    total_seconds = time.perf_counter() - start
    if args.timing_json:
        _write_timing_json(args.timing_json, reports, jobs=args.jobs, total_seconds=total_seconds)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        extension = "csv" if args.csv else "json"
        for report in reports:
            payload = to_csv(report.rows) if args.csv else report.result.to_json(indent=1)
            (out_dir / f"{report.name}.{extension}").write_text(payload)
    elif args.json:
        # The same document the HTTP service serves for a warm hit, so the
        # two entry points can be diffed byte-for-byte (rows and all).
        print(json.dumps({report.name: report.to_jsonable() for report in reports}, indent=1))
    elif args.csv:
        sys.stdout.write(to_csv(reports[0].rows))  # single target enforced up front
    summary_rows = [
        {
            "experiment": report.name,
            "rows": len(report.rows),
            "cached": report.cached,
            "elapsed_s": round(report.elapsed_seconds, 3),
            "key": (report.key or "-")[:12],
        }
        for report in reports
    ]
    summary_title = f"run summary ({total_seconds:.2f}s wall, jobs={args.jobs})"
    print(format_table(summary_rows, title=summary_title), file=sys.stderr)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    reports = _collect_reports(runner, args)
    print("\n".join(runner.render(report) for report in reports))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    api = _api()
    runner = _make_runner(args)
    spec = runner.spec(args.experiment)
    grid = {
        key: [api.parse_param(spec, key, part) for part in text.split(",") if part.strip()]
        for key, text in _parse_pairs(args.grid, what="--grid").items()
    }
    fixed = _typed_overrides(spec, args.param)
    outcome = api.sweep(
        spec.name,
        grid,
        fixed,
        runner=runner,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
    )
    records = outcome.records
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(to_csv(records) if args.csv else outcome.result.to_json(indent=1))
    elif args.csv:
        sys.stdout.write(to_csv(records))
    elif args.json:
        print(json.dumps(outcome.to_jsonable(), indent=1))
    else:
        print(format_table(records, title=f"sweep {spec.name}: {' x '.join(grid)}"))
    print(
        f"{len(outcome.assignments)} grid cells ({outcome.cached_cells} cached), {len(records)} records",
        file=sys.stderr,
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    return _api().serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_queue=args.max_queue,
        drain_seconds=args.drain_seconds,
        state_dir=args.state_dir,
        store_url=args.store_url,
    )


def _command_store(args: argparse.Namespace) -> int:
    from .netstore import serve_store
    from . import default_cache_root

    root = Path(args.root) if args.root else default_cache_root() / "store"
    return serve_store(host=args.host, port=args.port, root=root, max_bytes=args.max_bytes)


def _cache_stats_summary(
    cache: ResultCache, store: ArtifactStore, *, store_url: str | None = None
) -> dict[str, object]:
    """Entry counts, bytes, hit/miss counters and corruption/recovery tallies."""
    from .artifacts import load_stats
    from .store import PER_STORE_COUNTERS, quarantine_summary

    counters = load_stats(cache.root)

    def section(content: ContentStore) -> dict[str, object]:
        entries = content.ls()
        return {
            "entries": len(entries),
            "bytes": sum(int(entry["size_bytes"] or 0) for entry in entries),
            **{name: counters[f"{content.COUNTER_PREFIX}_{name}"] for name in PER_STORE_COUNTERS},
            "quarantine": quarantine_summary(content.root),
        }

    remote: dict[str, object] = {
        "hits": counters.remote_hits,
        "errors": counters.remote_errors,
        "breaker_opens": counters.breaker_opens,
    }
    if store_url:
        # Live probe of the shared store (lazy import: local-only commands
        # never load the networked backend).
        from .netstore import RemoteBackend

        probe = RemoteBackend(store_url, retries=0)
        remote["url"] = store_url
        remote["reachable"] = probe.ping() is not None
        probe.close()
    return {
        "cache_root": str(cache.root),
        "results": section(cache),
        "artifacts": section(store),
        "recovery": {
            "quarantined": counters.quarantined,
            "retried": counters.retried,
            "claim_wait_timeouts": counters.claim_wait_timeouts,
        },
        "remote": remote,
    }


def _command_cache(args: argparse.Namespace) -> int:
    from .artifacts import reset_stats
    from .executor import open_stores

    cache, store = open_stores(args.cache_dir)
    if args.cache_command == "ls":
        listing = cache.ls()
        artifact_listing = store.ls()
        if not listing and not artifact_listing:
            print(f"(cache empty at {cache.root})")
            return 0
        if listing:
            print(format_table(listing, title=f"result cache at {cache.root}"))
        if artifact_listing:
            print(format_table(artifact_listing, title=f"artifact store at {store.root}"))
        return 0
    if args.cache_command == "stats":
        summary = _cache_stats_summary(cache, store, store_url=getattr(args, "store_url", None))
        if args.json:
            print(json.dumps(summary, indent=1))
            return 0
        rows = [
            {
                "store": name,
                "entries": section["entries"],
                "bytes": section["bytes"],
                "hits": section["hits"],
                "misses": section["misses"],
                "claims": section["claims"],
                "waits": section["claim_waits"],
                "evicted": section["evictions"],
                "corrupt": section["corrupt"],
                "quarantined": section["quarantine"]["entries"],
            }
            for name, section in (("results", summary["results"]), ("artifacts", summary["artifacts"]))
        ]
        print(format_table(rows, title=f"cache stats at {cache.root} (counters since last clear)"))
        recovery = summary["recovery"]
        print(
            f"recovery: {recovery['retried']} unit retr{'y' if recovery['retried'] == 1 else 'ies'}, "
            f"{recovery['quarantined']} quarantined entr{'y' if recovery['quarantined'] == 1 else 'ies'}, "
            f"{recovery['claim_wait_timeouts']} claim-wait timeout(s)",
            file=sys.stderr,
        )
        remote = summary["remote"]
        print(
            f"remote store: {remote['hits']} hit(s), {remote['errors']} error(s), "
            f"{remote['breaker_opens']} breaker open(s)"
            + (
                f", {remote['url']} {'reachable' if remote.get('reachable') else 'UNREACHABLE'}"
                if "url" in remote
                else ""
            ),
            file=sys.stderr,
        )
        return 0
    try:
        removed = cache.clear(args.experiment)
    except ValueError as error:
        raise CliError(f"error: {error}", code=VALIDATION_EXIT)
    removed_artifacts = 0
    if args.experiment is None:
        # A full clear also empties the artifact store (artifacts are shared
        # across experiments, so a per-experiment clear keeps them), drops
        # both quarantine sidecars and resets the hit/miss counters.
        removed_artifacts = store.clear()
        for root in (cache.root, store.root):
            shutil.rmtree(root / "corrupt", ignore_errors=True)
        reset_stats(cache.root)
    print(
        f"removed {removed} cached result(s) and {removed_artifacts} artifact(s) from {cache.root}"
    )
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    from .registry import build_registry
    from . import default_cache_root

    rows = []
    for name, spec in build_registry().items():
        parameters = ", ".join(
            f"{pname}={spec.params[pname].default!r}" for pname in sorted(spec.params)
        )
        rows.append({"experiment": name, "parameters": parameters or "(none)"})
    print(format_table(rows, title=f"registered experiments (cache root: {default_cache_root()})"))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "report": _command_report,
        "sweep": _command_sweep,
        "serve": _command_serve,
        "cache": _command_cache,
        "store": _command_store,
        "list": _command_list,
    }
    try:
        return handlers[args.command](args)
    except CliError:
        raise
    except (ParamError, UnknownExperimentError) as error:
        raise CliError(f"error: {error}", code=VALIDATION_EXIT) from error
    except ExecutionError as error:
        raise CliError(f"error: {error}", code=EXECUTION_EXIT) from error
    except ReproError as error:  # taxonomy catch-all: treat as execution failure
        raise CliError(f"error: {error}", code=EXECUTION_EXIT) from error


if __name__ == "__main__":  # pragma: no cover
    try:
        raise SystemExit(main())
    except CliError as error:
        print(error, file=sys.stderr)
        raise
