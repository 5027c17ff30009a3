"""The one content store behind the result cache and the artifact store.

Covered here:

* byte compatibility with persisted caches: key hex, the exact JSON entry
  bytes, pickled artifact entries and the ``_stats.jsonl`` line layout;
* the :class:`~repro.runner.store.StoreStats` counter map (``+``,
  attribute reads, prefix-keyed drains);
* experiment-time artifact counters reaching the persisted stats (a
  resolver that quarantines a corrupt artifact mid-experiment);
* ``cache ls`` being a pure read: no LRU touch, no quarantine;
* every environment knob's accepted range through the one parser.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading

import pytest

from repro.analysis.sweep import SweepResult
from repro.runner.artifacts import ArtifactEntry, ArtifactStore, StoreStats, artifact_key, load_stats, record_stats
from repro.runner.backends import claim_ttl_seconds, claim_wait_seconds
from repro.runner.cache import CacheEntry, ResultCache, cache_key
from repro.runner.cli import main
from repro.runner.executor import ExecutionPolicy
from repro.runner.service import ExperimentRunner

RESULT_KEY = "ad367e945b6cbc393d4ce0acbf1f314ee7d856ca735f492dbf72d3028fb99181"

RESULT_BYTES = (
    b'{\n "schema": 1,\n "experiment": "table1",\n "params": {\n  "samples": 40,\n  "seed": 11\n },\n'
    b' "fingerprint": "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",\n'
    b' "elapsed_seconds": 0.125,\n "provenance": {\n  "created_unix": 1700000000.0,\n'
    b'  "python": "3.11.7",\n  "numpy": "1.26.4",\n  "repro": "1.0.0"\n },\n'
    b' "result": {\n  "records": [\n   {\n    "bits": 4,\n    "k0": 7.83,\n    "mode": "dvafs"\n   },\n'
    b'   {\n    "bits": 16,\n    "k0": 1.0,\n    "mode": "das"\n   }\n  ]\n }\n}'
)

STATS_LINE = (
    b'{"artifact_claim_waits":0,"artifact_claims":1,"artifact_corrupt":0,"artifact_evicted_bytes":0,'
    b'"artifact_evictions":0,"artifact_hits":0,"artifact_misses":0,"breaker_opens":0,'
    b'"claim_wait_timeouts":0,"quarantined":1,"remote_errors":0,"remote_hits":0,'
    b'"result_claim_waits":0,"result_claims":0,"result_corrupt":0,"result_evicted_bytes":0,'
    b'"result_evictions":0,"result_hits":2,"result_misses":0,"retried":0}\n'
)


class TestPersistedLayout:
    """Golden values: caches persisted by earlier versions must stay valid."""

    def test_key_hex(self):
        assert cache_key("table1", '{"samples":40,"seed":11}', "f" * 64) == RESULT_KEY
        params = {"samples": 40, "seed": 11, "modes": ("das", "dvafs")}
        assert (
            artifact_key("multiplier_characterization", params, "a" * 64)
            == "73439ae6b8e67363ca9129a34b4ab53b404ec3a41e59fce7f49246cf3a9e66a3"
        )

    def test_result_entry_bytes(self, tmp_path):
        entry = CacheEntry(
            experiment="table1",
            params={"samples": 40, "seed": 11},
            fingerprint="f" * 64,
            result=SweepResult(
                records=[{"bits": 4, "k0": 7.83, "mode": "dvafs"}, {"bits": 16, "k0": 1.0, "mode": "das"}]
            ),
            elapsed_seconds=0.125,
            provenance={"created_unix": 1700000000.0, "python": "3.11.7", "numpy": "1.26.4", "repro": "1.0.0"},
        )
        path = ResultCache(tmp_path).put(RESULT_KEY, entry)
        assert path == tmp_path / "table1" / f"{RESULT_KEY}.json"
        assert path.read_bytes() == RESULT_BYTES
        # ... and bytes written by an earlier version read back as that entry.
        replayed = ResultCache(tmp_path).get("table1", RESULT_KEY)
        assert replayed is not None and replayed.rows == entry.rows
        assert replayed.provenance == entry.provenance

    def test_pickled_artifact_entry_reads_back(self, tmp_path):
        key = "b" * 64
        document = {
            "schema": 1,
            "artifact": "lenet_state",
            "params": {"seed": 5},
            "fingerprint": "c" * 64,
            "elapsed_seconds": 0.5,
            "provenance": {"created_unix": 1700000000.0, "python": "3.11.7"},
            "payload": {"weights": [1.0, -2.5], "epochs": 3},
        }
        path = tmp_path / "lenet_state" / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(document))
        expected = ArtifactEntry(
            artifact="lenet_state",
            params={"seed": 5},
            fingerprint="c" * 64,
            payload={"weights": [1.0, -2.5], "epochs": 3},
            elapsed_seconds=0.5,
            provenance={"created_unix": 1700000000.0, "python": "3.11.7"},
        )
        assert ArtifactStore(tmp_path).get("lenet_state", key) == expected
        # A fresh put writes the same pickled document at the same address.
        ArtifactStore(tmp_path / "rewritten").put(key, expected)
        assert pickle.loads((tmp_path / "rewritten" / "lenet_state" / f"{key}.pkl").read_bytes()) == document

    def test_stats_log_line(self, tmp_path):
        record_stats(tmp_path, StoreStats(result_hits=2, artifact_claims=1, quarantined=1))
        assert (tmp_path / "_stats.jsonl").read_bytes() == STATS_LINE

    def test_cache_stats_json_layout(self, tmp_path, capsys):
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary) == ["cache_root", "results", "artifacts", "recovery", "remote"]
        section = ["entries", "bytes", "hits", "misses", "corrupt", "claims", "claim_waits", "evictions"]
        section += ["evicted_bytes", "quarantine"]
        assert list(summary["results"]) == section
        assert list(summary["artifacts"]) == section
        assert list(summary["recovery"]) == ["quarantined", "retried", "claim_wait_timeouts"]


class TestStoreStats:
    def test_merges_with_plus_and_reads_as_attributes(self):
        total = StoreStats(result_hits=2) + StoreStats(result_hits=1, quarantined=1)
        assert isinstance(total, StoreStats)
        assert total.result_hits == 3 and total.quarantined == 1 and total.retried == 0
        assert list(total.to_document()) == list(StoreStats.FIELDS)
        with pytest.raises(AttributeError):
            _ = total.no_such_counter

    def test_drains_are_prefix_keyed(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        store = ArtifactStore(tmp_path / "artifacts")
        assert cache.claim("toy", "0" * 64) and store.claim("toy", "1" * 64)
        drained = cache.drain_stats() + store.drain_stats()
        assert drained.result_claims == 1 and drained.artifact_claims == 1
        assert drained["result_evictions"] == 0  # absent counters read as zero ...
        with pytest.raises(KeyError):
            drained["claims"]  # ... but short or misspelt names fail loudly
        assert cache.drain_stats().result_claims == 0  # draining resets

    def test_concurrent_tallies_are_never_lost(self, tmp_path):
        cache = ResultCache(tmp_path)
        drained = StoreStats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [cache.note_wait() for _ in range(2_000)]) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                drained += cache.drain_stats()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        drained += cache.drain_stats()
        assert drained.result_claim_waits == 16_000


class TestExperimentTimeCounters:
    """Artifact-store work done while experiments execute reaches the stats."""

    def _corrupt_characterization(self, artifacts_root):
        (path,) = (artifacts_root / "multiplier_characterization").glob("*.pkl")
        path.write_bytes(b"garbage")

    def test_cli_rerun_reports_the_quarantined_artifact(self, tmp_path, capsys):
        run = ["run", "table1", "--param", "samples=40", "--cache-dir", str(tmp_path)]
        assert main(run) == 0
        self._corrupt_characterization(tmp_path / "artifacts")
        assert main(["cache", "clear", "--experiment", "table1", "--cache-dir", str(tmp_path)]) == 0
        assert main(run) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["artifacts"]["quarantine"]["entries"] == 1
        assert summary["artifacts"]["corrupt"] == 1
        assert summary["recovery"]["quarantined"] == 1
        # The resolver re-produced the artifact under a won claim.
        assert summary["artifacts"]["claims"] == 2

    def test_worker_drains_fold_into_the_parent(self, tmp_path):
        requests = [("table1", {"samples": 40, "seed": 11}), ("fig2", {"samples": 40, "seed": 11})]
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        runner.run_many(requests, jobs=1)
        self._corrupt_characterization(tmp_path / "artifacts")
        runner.cache.clear()
        runner.run_many(requests, jobs=2, policy=ExecutionPolicy(oversubscribe=True))
        counters = load_stats(tmp_path)
        assert counters.artifact_corrupt >= 1
        assert counters.quarantined >= 1


class TestListingIsAPureRead:
    def test_cache_ls_touches_no_atime_and_quarantines_nothing(self, tmp_path, capsys):
        assert main(["run", "table1", "--param", "samples=40", "--cache-dir", str(tmp_path)]) == 0
        garbage = tmp_path / "artifacts" / "broken" / f"{'0' * 64}.pkl"
        garbage.parent.mkdir()
        garbage.write_bytes(b"garbage")
        sidecars = sorted(tmp_path.rglob(".*.atime"))
        assert {path.parent.name for path in sidecars} == {"table1", "multiplier_characterization"}
        for path in sidecars:
            os.utime(path, (1_000_000.0, 1_000_000.0))
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert all(path.stat().st_mtime == 1_000_000.0 for path in sidecars)
        assert garbage.exists() and "broken" in output
        assert not (tmp_path / "artifacts" / "corrupt").exists()


def _remote():
    from repro.runner.netstore import RemoteBackend

    return RemoteBackend("tcp://127.0.0.1:9")  # never contacted: only the knobs are read


def _warm_cache_bytes(_tmp_path):
    from repro.service.routes import _warm_cache_bytes

    return _warm_cache_bytes()


#: Every numeric environment knob: how it is read, then its value for
#: unset / garbage / ``0`` / ``-3`` / a valid setting (``7`` or ``2.5``).
ENV_KNOBS = [
    ("REPRO_CLAIM_WAIT_SECONDS", lambda tmp: claim_wait_seconds(), "2.5", (600.0, 600.0, 0.0, -3.0, 2.5)),
    ("REPRO_CLAIM_TTL_SECONDS", lambda tmp: claim_ttl_seconds(), "2.5", (900.0, 900.0, 0.0, -3.0, 2.5)),
    ("REPRO_CACHE_MAX_BYTES", lambda tmp: ResultCache(tmp).max_bytes, "7", (None, None, None, None, 7)),
    ("REPRO_ARTIFACTS_MAX_BYTES", lambda tmp: ArtifactStore(tmp).max_bytes, "7", (None, None, None, None, 7)),
    ("REPRO_STORE_TIMEOUT_SECONDS", lambda tmp: _remote().timeout, "2.5", (5.0, 5.0, 5.0, 5.0, 2.5)),
    ("REPRO_STORE_RETRIES", lambda tmp: _remote().retries, "7", (2, 2, 0, 2, 7)),
    ("REPRO_WARM_CACHE_BYTES", _warm_cache_bytes, "7", (32 * 1024 * 1024, 32 * 1024 * 1024, 0, 0, 7)),
]


@pytest.mark.parametrize(
    ("variable", "read", "setting", "expected"),
    [
        pytest.param(variable, read, setting, value, id=f"{variable}-{case}")
        for variable, read, valid, values in ENV_KNOBS
        for case, setting, value in zip(
            ("unset", "garbage", "zero", "negative", "valid"), (None, "garbage", "0", "-3", valid), values
        )
    ],
)
def test_env_knob_accepted_range(variable, read, setting, expected, tmp_path, monkeypatch):
    monkeypatch.delenv(variable, raising=False)
    if setting is not None:
        monkeypatch.setenv(variable, setting)
    value = read(tmp_path)
    assert value == expected and type(value) is type(expected)


def test_package_metadata_and_provenance_share_one_version():
    """pyproject's version is the one ``repro.__version__`` and every cached
    entry's provenance record.  A regex, not ``tomllib``: Python 3.10 has none."""
    import re
    from pathlib import Path

    import repro
    from repro.runner.cache import run_provenance

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = pyproject.partition("[project]")[2].partition("\n[")[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == repro.__version__ == run_provenance()["repro"]
