"""Whole-process benchmark of the DVAFS reproduction.

Times what a user of ``python -m repro`` actually waits for -- whole CLI
processes and a long-lived ``repro serve`` -- on four workloads, checks every
output against reference documents, and prints one JSON result line::

    python3 perfbench/run.py --workload warm_all --seed 1 --seconds 40 --trace 0

``--trace 1`` runs the per-layer suite instead (see ``layers.py``).  The
metric names and units are declared in ``BENCHMARK.json`` at the checkout
root; ``perfbench/README.md`` explains every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import harness
from harness import (
    EXPERIMENTS,
    WORK,
    BenchmarkError,
    Child,
    Outcome,
    State,
    canonical,
    digest,
    high_percentile,
    read_reports,
    repro_argv,
    restore,
    run_child,
    scrubbed_env,
)

#: Set-up samples per run (``repro list`` processes, or server starts); their
#: median is ``setup_s``.
SETUP_SAMPLES = 9
#: Fewest measured invocations a CLI workload makes, however long each takes.
MIN_INVOCATIONS = 3
#: Closed-loop clients of ``warm_http`` (one per CPU of the reference box).
HTTP_CONNECTIONS = 2


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit, as ``BENCHMARK.json`` declares them."""
    document = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return (
        {metric["name"]: metric["unit"] for metric in document["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in document["per_layer"]},
    )


# -- CLI workloads ---------------------------------------------------------------------


def cli_metrics(setups: list[float], children: list[Child]) -> dict[str, float]:
    """End-to-end metrics of a CLI workload: one operation is one process.

    A run makes a few dozen processes at most: too few for any tail
    percentile with ten samples beyond it, so ``req_p99_ms`` repeats the
    median rather than switch percentiles as the process count changes.
    """
    wall = statistics.median(child.wall_s for child in children)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(child.cpu_s for child in children),
        "peak_rss_mb": statistics.median(child.peak_rss_mb for child in children),
        "req_p50_ms": wall * 1e3,
        "req_p99_ms": wall * 1e3,
        "throughput_rps": 1.0 / wall,
    }


def cli_loop(
    seconds: float,
    *,
    run_dir: Path,
    store: Path,
    prepare: Callable[[], None],
    argv: list[str],
    check: Callable[[Child], bool],
    setup_argv: list[str] | None = None,
) -> tuple[list[Child], int, list[float]]:
    """Invoke ``argv`` on freshly prepared store state until ``seconds`` pass.

    Returns the children, how many failed, and the set-up samples.
    Preparing (emptying or restoring the store) and checking happen outside
    each child's timed span.  A non-zero exit or a failed check fails the
    invocation.  Set-up probes (``repro list``: interpreter, ``import
    repro``, registry) are spread evenly over the window, so set-up and
    workload are sampled under the same machine conditions.
    """
    env = scrubbed_env(run_dir, store)
    setup_argv = setup_argv if setup_argv is not None else repro_argv("list")
    children: list[Child] = []
    setups: list[float] = []
    failed = 0

    def probe_setup() -> None:
        child = run_child(setup_argv, env=env, cwd=run_dir, name=f"setup{len(setups)}")
        if child.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {child.stderr.read_text()[-2000:]}")
        setups.append(child.wall_s)

    start = time.perf_counter()
    while len(children) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        prepare()
        child = run_child(argv, env=env, cwd=run_dir, name=f"op{len(children)}")
        children.append(child)
        try:
            ok = child.returncode == 0 and check(child)
        except (ValueError, KeyError, TypeError):  # unparsable or malformed output
            ok = False
        failed += not ok
        share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        while len(setups) < SETUP_SAMPLES * min(1.0, share):
            probe_setup()
    while len(setups) < SETUP_SAMPLES:
        probe_setup()
    return children, failed, setups


def _empty(store: Path) -> Callable[[], None]:
    return lambda: shutil.rmtree(store, ignore_errors=True)


def run_cold_all(state: State, run_dir: Path, seed: int, seconds: float) -> Outcome:
    """First-time reproduction: ``run all --json --jobs 1`` on an empty store."""
    store = run_dir / "store"

    def check(child: Child) -> bool:
        reports = read_reports(child.stdout)
        return sorted(reports) == sorted(EXPERIMENTS) and all(
            reports[name]["cached"] is False and digest(reports[name]) == state.digests[name]
            for name in EXPERIMENTS
        )

    children, failed, setups = cli_loop(
        seconds, run_dir=run_dir, store=store, prepare=_empty(store),
        argv=repro_argv("run", "all", "--json", "--jobs", "1", "--cache-dir", str(store)),
        check=check,
    )
    return Outcome(len(children), failed, cli_metrics(setups, children),
                   [f"{len(children)} cold `run all` processes"])


def run_warm_all(state: State, run_dir: Path, seed: int, seconds: float) -> Outcome:
    """Daily re-run: ``run all --json`` on a restored, already-filled store."""
    store = run_dir / "store"

    children, failed, setups = cli_loop(
        seconds, run_dir=run_dir, store=store,
        prepare=lambda: restore(state.snapshot, store),
        argv=repro_argv("run", "all", "--json", "--cache-dir", str(store)),
        check=lambda child: harness.warm_reports_ok(child.stdout, state),
    )
    return Outcome(len(children), failed, cli_metrics(setups, children),
                   [f"{len(children)} warm `run all` processes, "
                    f"{state.stats_log_lines}-line stats history restored before each"])


def sweep_store_matches(store: Path, cells: list[list[str]]) -> bool:
    """Every cell landed at its expected key with its config and rows."""
    for key, config, rows in cells:
        path = store / "table2" / f"{key}.json"
        if not path.is_file():
            return False
        document = json.loads(path.read_text())
        if canonical(document["params"]) != config or canonical(document["result"]["records"]) != rows:
            return False
    return True


def run_sweep_fill(state: State, run_dir: Path, seed: int, seconds: float) -> Outcome:
    """Many small writes: a 128-cell ``sweep table2`` over seeds on an empty store."""
    store = run_dir / "store"
    seeds = harness.sweep_seeds(seed)
    reference = harness.reference_child(
        ["sweep", *map(str, seeds)], env=scrubbed_env(run_dir, run_dir / "scratch"), cwd=run_dir
    )

    def check(child: Child) -> bool:
        document = json.loads(child.stdout.read_text())
        return (
            document["cells"] == len(seeds)
            and document["cached_cells"] == 0
            and canonical(document["records"]) == reference["records"]
            and sweep_store_matches(store, reference["cells"])
        )

    grid = "seed=" + ",".join(str(value) for value in seeds)
    children, failed, setups = cli_loop(
        seconds, run_dir=run_dir, store=store, prepare=_empty(store),
        argv=repro_argv("sweep", "table2", "--grid", grid, "--json", "--cache-dir", str(store)),
        check=check,
    )
    return Outcome(len(children), failed, cli_metrics(setups, children),
                   [f"{len(children)} `sweep table2` processes of {len(seeds)} cells"])


# -- HTTP workload ---------------------------------------------------------------------


def run_warm_http(state: State, run_dir: Path, seed: int, seconds: float) -> Outcome:
    """Warm hits over HTTP: a closed loop of keep-alive clients per server.

    ``SETUP_SAMPLES`` servers start one after another on the same restored
    store, and every start is a set-up sample.  Every other server (the
    first and last included) then serves an equal share of the window,
    after a short untimed warm-up in which lazy set-up and the in-memory L1
    fill happen.  Each metric is the median over the measured servers, so
    one server caught by a burst of machine noise does not move it.
    """
    store = run_dir / "store"
    restore(state.snapshot, store)
    env = scrubbed_env(run_dir, store)
    measured = range(0, SETUP_SAMPLES, 2)
    setups: list[float] = []
    replies: list[harness.Reply] = []
    per_server: dict[str, list[float]] = {name: [] for name in (
        "wall_s", "cpu_s", "peak_rss_mb", "req_p50_ms", "req_p99_ms", "throughput_rps")}
    timed = 0
    percentiles = set()
    for index in range(SETUP_SAMPLES):
        with harness.Server(env=env, store=store, cwd=run_dir, name=f"serve{index}") as server:
            setups.append(server.setup_s)
            if index not in measured:
                continue
            warmup = harness.closed_loop(server.port, seed + 1, connections=1, seconds=0.2)
            cpu_start = server.cpu_s()
            load = harness.closed_loop(
                server.port, seed, connections=HTTP_CONNECTIONS, seconds=seconds / len(measured)
            )
            server_cpu = server.cpu_s() - cpu_start
        replies += warmup.replies + load.replies
        timed += len(load.replies)
        latencies = [reply.latency_s for reply in load.replies]
        percentile, tail = high_percentile(latencies)
        percentiles.add(f"p{percentile:g}")
        per_server["wall_s"].append(statistics.median(load.round_s))
        per_server["cpu_s"].append(server_cpu / len(load.round_s))
        per_server["peak_rss_mb"].append(server.peak_rss_mb)
        per_server["req_p50_ms"].append(statistics.median(latencies) * 1e3)
        per_server["req_p99_ms"].append(tail * 1e3)
        per_server["throughput_rps"].append(len(load.replies) / load.window_s)
    failed = harness.check_replies(replies, state.warm)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({name: statistics.median(values) for name, values in per_server.items()})
    return Outcome(len(replies), failed, metrics, [
        f"{timed} timed requests, {HTTP_CONNECTIONS} keep-alive connections to each of "
        f"{len(measured)} measured servers ({SETUP_SAMPLES} started)",
        f"req_p99_ms is the median of each server's {'/'.join(sorted(percentiles))}",
    ])


WORKLOADS: dict[str, Callable[[State, Path, int, float], Outcome]] = {
    "cold_all": run_cold_all,
    "warm_all": run_warm_all,
    "sweep_fill": run_sweep_fill,
    "warm_http": run_warm_http,
}


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (sweep grid, request order)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = run the traced per-layer suite instead of the end-to-end measurement")
    return parser


def report(args: argparse.Namespace, outcome: Outcome, units: dict[str, str]) -> dict[str, object]:
    """Print the human summary, write the stamped result file, return the result line."""
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    stamp = harness.provenance()
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} operations, {outcome.failed} failed (failed_frac {failed_frac:g})")
    for note in outcome.notes:
        print(f"#   {note}")
    for name, unit in units.items():
        print(f"#   {name:<40} {outcome.metrics[name]:>14.6g} {unit}")
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"#   benchmark process peak RSS {own_rss_mb:.1f} MB (a child's peak_rss_mb cannot read below it)")
    print(f"# provenance: {json.dumps(stamp, sort_keys=True)}")
    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "failed_frac": failed_frac, "notes": outcome.notes, "provenance": stamp}, indent=1)
    )
    return result


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        harness.require_source()
        end_to_end, per_layer = declared_metrics()
    except (BenchmarkError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        state = harness.ensure_state()
        if args.trace:
            import layers

            outcome, units = layers.traced_run(state, run_dir, args.workload, args.seed), per_layer
        else:
            outcome, units = WORKLOADS[args.workload](state, run_dir, args.seed, args.seconds), end_to_end
        result = report(args, outcome, units)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
