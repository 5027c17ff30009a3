"""Self-tests of the benchmark harness (no ``repro`` import, no timing).

Run with ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import run  # noqa: E402
from harness import EXPERIMENTS, Reply, canonical, digest, normalise  # noqa: E402


def _report(**changes: object) -> dict[str, object]:
    document: dict[str, object] = {
        "experiment": "table1",
        "config": {"samples": 300, "seed": 2017},
        "rows": [{"precision": 4, "k0": 7.83}, {"precision": 8, "k0": 3.1}],
        "cached": True,
        "elapsed_seconds": 0.00042,
        "compute_seconds": 0.0011,
        "key": "ab" * 32,
        "fingerprint": "cd" * 32,
    }
    document.update(changes)
    return document


def test_normalise_drops_only_elapsed_seconds():
    document = _report()
    normalised = normalise(document)
    assert set(document) - set(normalised) == {"elapsed_seconds"}
    assert all(normalised[name] == document[name] for name in normalised)
    assert canonical(normalise(_report(elapsed_seconds=9.0))) == canonical(normalised)
    for field, value in (("compute_seconds", 2.0), ("cached", False), ("rows", []), ("key", "ef" * 32)):
        assert canonical(normalise(_report(**{field: value}))) != canonical(normalised)


def test_digest_covers_rows_key_and_config_only():
    base = digest(_report())
    assert digest(_report(elapsed_seconds=1.0, compute_seconds=5.0, cached=False)) == base
    assert digest(_report(rows=[{"precision": 4, "k0": 7.830000001}])) != base
    assert digest(_report(key="00" * 32)) != base
    assert digest(_report(config={"samples": 301, "seed": 2017})) != base


def test_high_percentile_keeps_ten_samples_beyond():
    assert harness.high_percentile([float(i) for i in range(1, 3001)]) == (99.0, 2970.0)
    assert harness.high_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    # 999 samples: p99 (rank 990) has only 9 beyond, so p95 is the highest.
    assert harness.high_percentile([float(i) for i in range(1, 1000)]) == (95.0, 950.0)
    assert harness.high_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    # 99 samples: p90 (rank 90) has 9 beyond; the ladder steps straight to p50.
    assert harness.high_percentile([float(i) for i in range(1, 100)]) == (50.0, 50.0)
    assert harness.high_percentile([float(i) for i in range(1, 26)]) == (50.0, 13.0)
    # Too few samples for any ladder percentile: the median.
    assert harness.high_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_restore_is_byte_identical(tmp_path):
    snapshot = tmp_path / "snapshot"
    (snapshot / "table1").mkdir(parents=True)
    (snapshot / "artifacts" / "lenet_state").mkdir(parents=True)
    (snapshot / "table1" / "k.json").write_text(json.dumps({"rows": [1, 2]}))
    (snapshot / "table1" / ".k.json.atime").write_bytes(b"")
    (snapshot / "artifacts" / "lenet_state" / "k.pkl").write_bytes(bytes(range(256)) * 3)
    (snapshot / "_stats.jsonl").write_text('{"result_hits":8}\n' * 1000)
    os.utime(snapshot / "table1" / ".k.json.atime", (1_000_000, 1_000_000))
    target = tmp_path / "store"
    harness.restore(snapshot, target)
    # Dirty the copy the way a run does, then restore again over it.
    (target / "_stats.jsonl").write_text("extra\n", encoding="utf-8")
    (target / "table2").mkdir()
    (target / "table2" / "new.json").write_text("{}")
    harness.restore(snapshot, target)
    assert _tree_bytes(target) == _tree_bytes(snapshot)
    assert (target / "table1" / ".k.json.atime").stat().st_mtime == 1_000_000


def _reference() -> dict[str, str]:
    return {name: canonical(normalise(_report(experiment=name))) for name in EXPERIMENTS}


def _body(**changes: object) -> bytes:
    return json.dumps({**_report(**changes), "request_id": "r-1"}).encode()


def test_http_failures_are_counted():
    replies = [
        Reply("table1", 200, 0.003, _body(elapsed_seconds=0.5)),  # fine: only timing differs
        Reply("table1", 500, 0.003, b'{"error": {}}'),  # non-200
        Reply("table1", 202, 0.003, b'{"job": {}}'),  # answered cold: became a job
        Reply("table1", 200, 0.003, _body(cached=False)),  # answered cold
        Reply("table1", 200, 0.003, _body(rows=[{"precision": 4, "k0": 0.0}])),  # digest mismatch
        Reply("table1", 200, 0.003, b"not json"),
        Reply("table1", 0, 0.003, b""),  # connection error
    ]
    assert harness.check_replies(replies, _reference()) == 6


def test_stable_body_zeroes_only_per_request_values():
    def served(**changes: object) -> bytes:
        request_id = changes.pop("request_id", "r-1")
        return json.dumps({**_report(**changes), "request_id": request_id}, indent=1).encode()

    first = harness.stable_body(served())
    assert harness.stable_body(served(elapsed_seconds=3.5, request_id="r-2")) == first
    assert harness.stable_body(served(compute_seconds=3.5)) != first
    assert harness.stable_body(served(rows=[{"precision": 4, "elapsed_seconds": 1.0}])) != harness.stable_body(
        served(rows=[{"precision": 4, "elapsed_seconds": 2.0}])
    )
    assert harness.check_replies([Reply("table1", 200, 0.003, first)], _reference()) == 0


def test_cli_failures_are_counted(tmp_path):
    store = tmp_path / "store"

    def loop(code: str, check) -> tuple[int, int]:
        children, failed, setups = run.cli_loop(
            0.0, run_dir=tmp_path, store=store, prepare=lambda: None,
            argv=[sys.executable, "-c", code], check=check, setup_argv=[sys.executable, "-c", "pass"],
        )
        assert len(setups) == run.SETUP_SAMPLES
        return len(children), failed

    assert loop("print('{}')", lambda child: True) == (run.MIN_INVOCATIONS, 0)
    assert loop("raise SystemExit(4)", lambda child: True) == (run.MIN_INVOCATIONS, run.MIN_INVOCATIONS)
    # An injected digest mismatch: the process succeeds, its output does not.
    assert loop("print('{}')", lambda child: False) == (run.MIN_INVOCATIONS, run.MIN_INVOCATIONS)
    # Output that cannot even be parsed is a failure, not a crash.
    assert loop("print('x')", lambda child: bool(json.loads(child.stdout.read_text()))) == (
        run.MIN_INVOCATIONS, run.MIN_INVOCATIONS,
    )


def test_seed_fixes_sweep_grid_and_request_order():
    grid = harness.sweep_seeds(7)
    assert grid == harness.sweep_seeds(7)
    assert len(grid) == len(set(grid)) == harness.SWEEP_CELLS
    assert grid != harness.sweep_seeds(8)

    def rounds(seed: int, connection: int) -> list[tuple[str, ...]]:
        orders = harness.request_orders(seed, connection)
        return [next(orders) for _ in range(20)]

    assert rounds(7, 0) == rounds(7, 0)
    assert rounds(7, 0) != rounds(7, 1)
    assert rounds(7, 0) != rounds(8, 0)
    assert all(sorted(order) == sorted(EXPERIMENTS) for order in rounds(7, 0))
