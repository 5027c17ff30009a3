"""Reference outputs: the drivers called directly, with no runner and no store.

The cached, artifact-backed and HTTP paths must all reproduce these bit for
bit.  The benchmark runs this file as a child process, so that its own
process never imports numpy or grows to the drivers' working set (a child's
kernel-reported peak RSS can never read below its parent's)::

    python perfbench/reference.py direct            # default configs of all 8
    python perfbench/reference.py sweep 17 4 99     # table2 cells for seeds 17, 4, 99

Both print one JSON document on stdout.  ``src/`` must be importable
(``PYTHONPATH=src``) and ``REPRO_CACHE_DIR`` should point at a scratch
directory; nothing is written there.
"""

from __future__ import annotations

import json
import sys

from harness import canonical


def direct_rows() -> dict[str, str]:
    """Experiment -> canonical rows of its default config."""
    from repro.analysis.sweep import SweepResult
    from repro.runner.artifacts import activated
    from repro.runner.registry import build_registry

    rows = {}
    with activated(None):
        for name, spec in build_registry().items():
            records = spec.execute(spec.canonical_config())
            rows[name] = canonical(SweepResult(records=records).to_jsonable())
    return rows


def sweep_reference(seeds: list[int]) -> dict[str, object]:
    """What ``sweep table2 --grid seed=...`` must print and store.

    ``records`` is the canonical grid-order record list; ``cells`` holds one
    ``[cache key, canonical config, canonical rows]`` per seed, keys computed
    through the runner's own addressing.
    """
    from repro.analysis.sweep import SweepResult
    from repro.runner.artifacts import activated
    from repro.runner.cache import ResultCache
    from repro.runner.service import ExperimentRunner

    runner = ExperimentRunner(cache=ResultCache(), use_cache=False)
    spec = runner.spec("table2")
    records: list[dict[str, object]] = []
    cells = []
    with activated(None):
        for value in seeds:
            config, key, _fingerprint = runner.address("table2", {"seed": value})
            rows = json.loads(canonical(SweepResult(records=spec.execute(config)).to_jsonable()))
            records.extend({"seed": value, **row} for row in rows)
            cells.append([key, canonical(config), canonical(rows)])
    return {"records": canonical(records), "cells": cells}


def main(argv: list[str]) -> int:
    if argv[:1] == ["direct"]:
        document: object = direct_rows()
    elif argv[:1] == ["sweep"] and len(argv) > 1:
        document = sweep_reference([int(value) for value in argv[1:]])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
