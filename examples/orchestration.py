"""Orchestration quickstart: cached runs and process-parallel sweeps.

Shows the PR 3 experiment runner from Python (the same machinery behind
``python -m repro``): a cold run lands in the content-addressed result
cache, the replay is bit-identical and orders of magnitude faster, and a
sweep fans its cold cells out over worker processes, caches each cell and
returns the records in grid order.

Run with:  python examples/orchestration.py
"""

import json
import tempfile

from repro import api
from repro.analysis import format_table
from repro.runner import ExperimentRunner, ResultCache


def main() -> None:
    # 1. A cache-aware runner (isolated cache root for the demo; by default
    #    the cache lives at $REPRO_CACHE_DIR or ~/.cache/dvafs-repro).
    runner = ExperimentRunner(cache=ResultCache(tempfile.mkdtemp(prefix="repro-demo-")))

    cold = runner.run("table2", input_length=24, taps=5)
    warm = runner.run("table2", input_length=24, taps=5)
    assert warm.cached and json.dumps(warm.rows) == json.dumps(cold.rows)
    print(
        f"table2: cold {cold.elapsed_seconds * 1e3:.1f} ms -> warm replay "
        f"(bit-identical, key {warm.key[:12]}...)\n"
    )

    # 2. Rendering works identically from live or cached rows.
    print(runner.render(warm))

    # 3. A cached sweep: each grid cell is one content-addressed request, the
    #    cold cells fan out over 2 worker processes, and the records arrive in
    #    grid order no matter which worker finishes first.  A second sweep
    #    replays every cell from the cache.
    grid = {"samples": [100, 200], "seed": [1, 2]}
    sweep = api.sweep("table1", grid, runner=runner, jobs=2)
    again = api.sweep("table1", grid, runner=runner)
    assert again.cached_cells == len(again.assignments) and again.records == sweep.records
    rows = [record for record in sweep.records if record["precision"] == 8]
    print(format_table(rows, title="Table I 8b scaling factors per sampling (cold cells over 2 worker processes)"))

    # 4. Provenance of everything computed so far.
    print(format_table(runner.cache.ls(), title="result cache contents"))


if __name__ == "__main__":
    main()
