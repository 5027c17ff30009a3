"""Chaos suite: deterministic fault injection against every recovery layer.

The ``repro.faults`` harness drives the failures production would
eventually produce -- worker kills, hung units, corrupt store entries,
full disks, dying services -- at named injection sites, and this suite
asserts the *documented* recovery for each: the executor retries onto a
fresh pool (bit-identically), the stores quarantine instead of crashing
or silently deleting, and the service journals jobs across restarts,
sheds load with 503s and drains on SIGTERM.

Worker-process tests run with ``ExecutionPolicy(oversubscribe=True)``:
CI boxes can be single-core, where the CPU clamp would silently route
everything through the serial in-process path (which cannot crash or
hang a worker).  ``times`` budgets are shared across processes through a
state directory, so "kill exactly one worker" stays exactly one kill
through the retry that must then succeed.
"""

from __future__ import annotations

import errno
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest

from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    corrupt_file,
    fault_point,
    injected,
    parse_faults,
)
from repro.runner.artifacts import load_stats
from repro.runner.cache import ResultCache
from repro.runner.errors import (
    ExecutionError,
    ReproError,
    UnitTimeoutError,
    WorkerCrashError,
)
from repro.runner.executor import ExecutionOutcome, ExecutionPolicy, parallel_sweep
from repro.runner.journal import Journal
from repro.runner.registry import ExperimentSpec
from repro.runner.service import ExperimentRunner
from repro.service import BackgroundServer, build_app
from repro.service.jobs import JobManager, JobRecord
from repro.service.middleware import TokenBucket
from repro.service.models import ServiceError

SMALL = {"input_length": 24, "taps": 5, "simd_widths": (8,)}

TOY_SOURCE = '''\
"""Toy experiment driver for chaos tests (milliseconds per run)."""

import time

PARAMS = {"x": 2, "boom": False, "delay": 0.0}


def run(*, x=2, boom=False, delay=0.0):
    if delay:
        time.sleep(delay)
    if boom:
        raise RuntimeError("toy experiment exploded")
    return [{"x": x, "y": x * x}]


def render(rows):
    return "\\n".join(f"{row['x']} -> {row['y']}" for row in rows)
'''


def _toy_runner(tmp_path, monkeypatch):
    module_dir = tmp_path / "modules"
    module_dir.mkdir(exist_ok=True)
    module_name = f"chaostoy_{uuid.uuid4().hex[:8]}"
    (module_dir / f"{module_name}.py").write_text(TOY_SOURCE)
    monkeypatch.syspath_prepend(str(module_dir))
    module = importlib.import_module(module_name)
    spec = ExperimentSpec.from_module("toy", module)
    return ExperimentRunner(cache=ResultCache(tmp_path / "cache"), registry={"toy": spec})


@pytest.fixture()
def toy_runner(tmp_path, monkeypatch):
    return _toy_runner(tmp_path, monkeypatch)


def _grid_cell(*, x):
    """Module-level so ProcessPoolExecutor can pickle it."""
    return {"y": 2 * x, "parity": x % 2}


def _wait_for(predicate, *, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


# -- plan parsing -------------------------------------------------------------------


class TestPlanParsing:
    def test_clauses_round_trip(self):
        text = "executor.unit:kill:match=fig4;cache.write:disk_full:times=3;s:hang:seconds=2.5:at=2"
        specs = parse_faults(text)
        assert [spec.kind for spec in specs] == ["kill", "disk_full", "hang"]
        assert specs[0] == FaultSpec(site="executor.unit", kind="kill", match="fig4")
        assert specs[1].times == 3
        assert specs[2].seconds == 2.5 and specs[2].at == 2
        # clause() emits text that re-parses to the identical spec.
        assert parse_faults(";".join(spec.clause() for spec in specs)) == specs

    def test_blank_clauses_are_skipped(self):
        assert parse_faults("") == ()
        assert parse_faults(" ; ;; ") == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "justasite",
            "site:explode",
            "site:exc:times",
            "site:exc:frequency=often",
            "site:exc:times=0",
            "site:exc:times=many",
            "site:hang:seconds=soon",
        ],
    )
    def test_malformed_clauses_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)


# -- fault actions ------------------------------------------------------------------


class TestFaultActions:
    def test_unset_env_is_a_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        fault_point("anything.at.all", key="whatever")

    def test_exc_fires_within_its_times_budget(self):
        with injected("boomsite:exc:times=2"):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    fault_point("boomsite")
            fault_point("boomsite")  # budget spent: no-op
            fault_point("othersite")  # different site: never fires

    def test_at_option_targets_one_invocation(self):
        with injected("site:exc:at=3:times=10"):
            fault_point("site")
            fault_point("site")
            with pytest.raises(FaultInjected):
                fault_point("site")
            fault_point("site")  # at=3 only matches the third call

    def test_match_option_filters_on_key(self):
        with injected("executor.unit:exc:match=fig4:times=10"):
            fault_point("executor.unit", key="table2")
            fault_point("executor.unit")  # no key at all
            with pytest.raises(FaultInjected):
                fault_point("executor.unit", key="fig4")

    def test_slow_injects_latency_then_continues(self):
        with injected("site:slow:seconds=0.05"):
            start = time.monotonic()
            fault_point("site")
            assert time.monotonic() - start >= 0.04

    def test_disk_full_raises_enospc(self):
        with injected("cache.write:disk_full"):
            with pytest.raises(OSError) as excinfo:
                fault_point("cache.write", key="toy")
            assert excinfo.value.errno == errno.ENOSPC

    def test_corrupt_mangles_the_sites_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"schema": 1, "payload": list(range(100))}))
        with injected("cache.written:corrupt"):
            fault_point("cache.written", key="toy", path=path)
        blob = path.read_bytes()
        assert blob.startswith(b"\xde\xad\xbe\xef")
        with pytest.raises(ValueError):
            json.loads(blob)

    def test_corrupt_tolerates_a_vanished_file(self, tmp_path):
        corrupt_file(tmp_path / "never-existed.json")  # must not raise

    def test_kill_in_main_process_degrades_to_exception(self):
        # A misconfigured plan must never SIGKILL the orchestrator/test
        # runner itself; in the main process the kill becomes FaultInjected.
        with injected("site:kill"):
            with pytest.raises(FaultInjected, match="main process"):
                fault_point("site")

    def test_state_dir_makes_times_budget_global(self, tmp_path):
        # Two plans sharing a state directory model two processes racing
        # for the same budget: exactly one wins the single ticket.
        specs = parse_faults("site:exc")
        plan_a = FaultPlan(specs, state_dir=tmp_path)
        plan_b = FaultPlan(specs, state_dir=tmp_path)
        with pytest.raises(FaultInjected):
            plan_a.fire("site")
        plan_b.fire("site")  # ticket already claimed: no-op
        plan_a.fire("site")
        assert len(list(tmp_path.glob("fault-*.fired"))) == 1

    def test_injected_restores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "old.site:exc")
        monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
        with injected("site:slow:seconds=0", state_dir="/tmp/somewhere"):
            assert os.environ["REPRO_FAULTS"] == "site:slow:seconds=0"
            assert os.environ["REPRO_FAULTS_STATE"] == "/tmp/somewhere"
        assert os.environ["REPRO_FAULTS"] == "old.site:exc"
        assert "REPRO_FAULTS_STATE" not in os.environ


# -- executor recovery --------------------------------------------------------------


CHAOS_GRID = {"x": [1, 2, 3, 4]}


class TestExecutorRecovery:
    def _clean_records(self):
        return parallel_sweep(CHAOS_GRID, _grid_cell, jobs=1).records

    def test_killed_worker_is_retried_bit_identically(self, tmp_path):
        outcome = ExecutionOutcome()
        policy = ExecutionPolicy(oversubscribe=True, retries=3)
        with injected("executor.sweep:kill:match=x=3", state_dir=tmp_path / "state"):
            result = parallel_sweep(
                CHAOS_GRID, _grid_cell, jobs=2, policy=policy, outcome=outcome
            )
        assert json.dumps(result.records) == json.dumps(self._clean_records())
        assert outcome.crashes >= 1
        assert outcome.retries >= 1
        assert outcome.respawns >= 1
        assert outcome.degraded is False

    def test_hung_unit_times_out_and_retry_succeeds(self, tmp_path):
        outcome = ExecutionOutcome()
        policy = ExecutionPolicy(oversubscribe=True, timeout=1.0, retries=3)
        with injected(
            "executor.sweep:hang:seconds=30:match=x=2", state_dir=tmp_path / "state"
        ):
            result = parallel_sweep(
                CHAOS_GRID, _grid_cell, jobs=2, policy=policy, outcome=outcome
            )
        assert json.dumps(result.records) == json.dumps(self._clean_records())
        assert outcome.timeouts >= 1
        assert outcome.retries >= 1

    def test_persistent_crash_surfaces_worker_crash_error(self):
        # No state dir: every freshly-forked worker re-fires the kill, so
        # the retry budget must run out -- and the failure must surface as
        # the typed taxonomy error, never a raw BrokenProcessPool.
        policy = ExecutionPolicy(oversubscribe=True, retries=1, pool_respawns=5)
        with injected("executor.sweep:kill:times=100"):
            with pytest.raises(WorkerCrashError) as excinfo:
                parallel_sweep(CHAOS_GRID, _grid_cell, jobs=2, policy=policy)
        assert excinfo.value.code == "worker_crashed"
        assert isinstance(excinfo.value, ExecutionError)
        assert isinstance(excinfo.value, ReproError)

    def test_persistent_hang_surfaces_unit_timeout_error(self):
        policy = ExecutionPolicy(
            oversubscribe=True, timeout=0.4, retries=1, pool_respawns=5
        )
        with injected("executor.sweep:hang:seconds=30:times=100:match=x=1"):
            with pytest.raises(UnitTimeoutError) as excinfo:
                parallel_sweep(CHAOS_GRID, _grid_cell, jobs=2, policy=policy)
        assert excinfo.value.code == "unit_timeout"
        assert isinstance(excinfo.value, ExecutionError)

    def test_unspawnable_pool_degrades_to_serial(self):
        outcome = ExecutionOutcome()
        policy = ExecutionPolicy(oversubscribe=True)
        with injected("executor.pool:exc:times=100"):
            result = parallel_sweep(
                CHAOS_GRID, _grid_cell, jobs=2, policy=policy, outcome=outcome
            )
        assert outcome.degraded is True
        assert json.dumps(result.records) == json.dumps(self._clean_records())

    def test_driver_exceptions_are_not_retried(self):
        # A deterministic driver bug re-raised N times is N times the
        # wasted compute: only crashes/timeouts are retryable.
        outcome = ExecutionOutcome()
        policy = ExecutionPolicy(oversubscribe=True, retries=3)
        with injected("executor.sweep:exc:match=x=4:times=100"):
            with pytest.raises(FaultInjected):
                parallel_sweep(CHAOS_GRID, _grid_cell, jobs=2, policy=policy, outcome=outcome)
        assert outcome.retries == 0

    def test_capstone_cold_run_with_midwave_kill_is_bit_identical(self, tmp_path):
        # The PR's headline guarantee: a cold multi-experiment run that
        # loses a worker mid-wave completes -- and its rows are
        # byte-identical to an undisturbed cold run.
        requests = [("fig4", dict(SMALL)), ("table2", dict(SMALL))]
        clean = ExperimentRunner(cache=ResultCache(tmp_path / "clean")).run_many(
            requests, jobs=2
        )
        policy = ExecutionPolicy(oversubscribe=True, retries=3)
        chaos_runner = ExperimentRunner(cache=ResultCache(tmp_path / "chaos"))
        with injected("executor.unit:kill:match=fig4", state_dir=tmp_path / "state"):
            recovered = chaos_runner.run_many(requests, jobs=2, policy=policy)
        assert [report.name for report in recovered] == [report.name for report in clean]
        assert json.dumps([r.rows for r in recovered]) == json.dumps([r.rows for r in clean])
        # The recovery was observed and accounted for in the persisted stats.
        assert load_stats(chaos_runner.cache.root).retried >= 1
        # ... and the recovered cache replays warm, like any clean run.
        warm = chaos_runner.run_many(requests, jobs=1)
        assert all(report.cached for report in warm)


# -- store corruption recovery ------------------------------------------------------


class TestStoreRecovery:
    def test_raced_quarantine_counts_corruption_without_quarantine(
        self, tmp_path, monkeypatch
    ):
        # The quarantine move itself can lose a race (another process
        # unlinked/moved the entry first): the corruption is still tallied,
        # but not as quarantined, and the read stays a plain miss.
        cache = ResultCache(tmp_path)
        path = tmp_path / "toy" / "deadbeef.json"
        path.parent.mkdir(parents=True)
        path.write_text("{definitely not json")

        def racing_replace(source, destination):
            raise OSError(errno.ENOENT, "raced away")

        monkeypatch.setattr(os, "replace", racing_replace)
        assert cache.get("toy", "deadbeef") is None
        drained = cache.drain_stats()
        assert drained["result_corrupt"] == 1 and drained["quarantined"] == 0

    def test_disk_full_cache_write_degrades_to_uncached_success(self, toy_runner):
        with injected("cache.write:disk_full:times=100"):
            (report,) = toy_runner.run_many([("toy", {"x": 5})])
        assert report.rows == [{"x": 5, "y": 25}]
        assert report.cached is False
        assert toy_runner.cache.ls() == []  # nothing was persisted ...
        (again,) = toy_runner.run_many([("toy", {"x": 5})])  # ... and reruns recompute
        assert again.cached is False

    def test_corrupted_entry_is_quarantined_and_recomputed(self, toy_runner):
        # Fault fires right after the atomic replace, corrupting the bytes
        # the next read will trust -- the end-to-end cache.written:corrupt
        # -> quarantine -> recompute path.
        with injected("cache.written:corrupt"):
            (cold,) = toy_runner.run_many([("toy", {"x": 6})])
        (recovered,) = toy_runner.run_many([("toy", {"x": 6})])
        assert recovered.cached is False  # the corrupt entry was not trusted
        assert json.dumps(recovered.rows) == json.dumps(cold.rows)
        root = toy_runner.cache.root
        quarantined = list((root / "corrupt" / "toy").glob("*.json"))
        assert len(quarantined) == 1
        stats = load_stats(root)
        assert stats.result_corrupt >= 1
        assert stats.quarantined >= 1
        # After recovery the rewritten entry serves warm hits again.
        (warm,) = toy_runner.run_many([("toy", {"x": 6})])
        assert warm.cached is True


# -- concurrent-fill claim recovery -------------------------------------------------


def _claim_and_die(root, key):
    """Child-process victim: win the fill claim, then get SIGKILLed by the fault.

    The plan is set in the child only (the parent must stay fault-free),
    and a child process is a *real* kill target -- in the main process the
    kill degrades to an exception, which is exactly not what this test
    needs.
    """
    os.environ["REPRO_FAULTS"] = "cache.claim:kill"
    ResultCache(root).claim("toy", key)
    raise AssertionError("the claim fault should have killed this process")


class TestClaimRecovery:
    def test_winner_killed_mid_fill_leaves_a_stale_claim_losers_take_over(
        self, toy_runner, tmp_path, monkeypatch
    ):
        # A clean reference run in a separate cache (what the rows must match).
        clean_runner = ExperimentRunner(
            cache=ResultCache(tmp_path / "clean_cache"), registry=toy_runner.registry
        )
        (clean,) = clean_runner.run_many([("toy", {"x": 9})])

        _config, key, _fingerprint = toy_runner.address("toy", {"x": 9})
        victim = multiprocessing.get_context("fork").Process(
            target=_claim_and_die, args=(toy_runner.cache.root, key)
        )
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL  # died inside the claim, for real
        ticket = toy_runner.cache.claim_info("toy", key)
        assert ticket is not None and ticket.is_stale()  # dead pid, this host

        # A loser arriving now loses the claim race against the corpse,
        # detects the stale ticket, takes the fill over and computes --
        # byte-identical to the undisturbed run.
        (recovered,) = toy_runner.run_many([("toy", {"x": 9})])
        assert recovered.cached is False
        assert json.dumps(recovered.rows) == json.dumps(clean.rows)
        assert toy_runner.cache.claim_info("toy", key) is None  # fill cleared it
        stats = load_stats(toy_runner.cache.root)
        assert stats.result_claim_waits >= 1  # the takeover was accounted
        # ... and the recovered entry replays warm, like any clean fill.
        (warm,) = toy_runner.run_many([("toy", {"x": 9})])
        assert warm.cached is True
        assert json.dumps(warm.rows) == json.dumps(clean.rows)

    def test_exc_at_the_claim_site_never_leaks_the_claim(self, toy_runner):
        _config, key, _fingerprint = toy_runner.address("toy", {"x": 8})
        with injected("cache.claim:exc"):
            with pytest.raises(FaultInjected):
                toy_runner.cache.claim("toy", key)
        assert toy_runner.cache.claim_info("toy", key) is None  # released on the way out
        (report,) = toy_runner.run_many([("toy", {"x": 8})])  # clean rerun fills
        assert report.rows == [{"x": 8, "y": 64}]

    def test_artifact_claim_exc_releases_and_reruns_compute(self, tmp_path):
        from repro.runner.artifacts import ArtifactStore, produce_into

        store = ArtifactStore(tmp_path)
        with injected("artifact.claim:exc"):
            with pytest.raises(FaultInjected):
                produce_into(store, "demo", {"x": 2}, lambda *, x: {"value": x})
        key_claims = [
            ticket for namespace, filename in store.backend.iter()
            if (ticket := store.backend.claim_info(namespace, filename)) is not None
        ]
        assert key_claims == []  # no wedged addresses anywhere
        entry = produce_into(store, "demo", {"x": 2}, lambda *, x: {"value": x})
        assert entry.payload == {"value": 2}

    def test_evict_fault_site_fires_per_evicted_entry(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        from repro.analysis.sweep import SweepResult
        from repro.runner.cache import CacheEntry, cache_key

        def entry(i):
            return CacheEntry(
                experiment="toy", params={}, fingerprint="f" * 64,
                result=SweepResult(records=[{"i": i}]), elapsed_seconds=0.0,
            )

        cache.put(cache_key("toy", "{1}", "f" * 64), entry(1))
        with injected("cache.evict:exc:match=toy"):
            with pytest.raises(FaultInjected):
                cache.put(cache_key("toy", "{2}", "f" * 64), entry(2))


# -- service durability -------------------------------------------------------------


def _wait_for_state(manager, job_id, *states, timeout=30.0):
    _wait_for(
        lambda: manager.get(job_id).state in states,
        timeout=timeout,
        message=f"job {job_id} to reach {states}",
    )
    return manager.get(job_id)


class TestJobDurability:
    def test_journal_survives_restart_and_marks_interrupted(self, toy_runner, tmp_path):
        state_dir = tmp_path / "jobs"
        manager = JobManager(toy_runner, state_dir=state_dir)
        finished, _created = manager.submit(
            kind="run", experiments=["toy"], params={"x": 3}
        )
        _wait_for_state(manager, finished.id, "done")

        # A crash mid-job leaves a 'running' record as the journal's last
        # word for that id; append one directly to model the dead process.
        orphan = JobRecord(
            id="job-orphan000000",
            kind="run",
            experiments=["toy"],
            params={"x": 7},
            grid=None,
            jobs=1,
            request_id="req-original",
            idempotency_key="orphan-key",
            state="running",
        )
        Journal(state_dir / "journal.jsonl").append(orphan.to_journal())
        manager._pool.shutdown(wait=False)

        restarted = JobManager(toy_runner, state_dir=state_dir)
        states = {record["id"]: record["state"] for record in restarted.listing()}
        assert states[finished.id] == "done"
        assert states[orphan.id] == "interrupted"
        record = restarted.get(orphan.id)
        assert record.error["code"] == "interrupted"
        assert record.progress["phase"] == "interrupted"

        # The idempotency key registered before the crash still collapses
        # duplicate submissions after the restart.
        same, created = restarted.submit(
            kind="run",
            experiments=["toy"],
            params={"x": 7},
            idempotency_key="orphan-key",
        )
        assert created is False and same.id == orphan.id
        with pytest.raises(ServiceError) as excinfo:
            restarted.submit(
                kind="run",
                experiments=["toy"],
                params={"x": 8},
                idempotency_key="orphan-key",
            )
        assert excinfo.value.code == "idempotency_conflict"

        # Retry actually re-runs the interrupted job to completion.
        restarted.resubmit(orphan.id)
        record = _wait_for_state(restarted, orphan.id, "done")
        assert record.reports[0]["rows"] == [{"x": 7, "y": 49}]
        restarted.close(wait=True, drain_seconds=10)

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        journal = Journal(tmp_path / "jobs" / "journal.jsonl")
        record = JobRecord(
            id="job-whole0000000",
            kind="run",
            experiments=["toy"],
            params={},
            grid=None,
            jobs=1,
            request_id="",
            idempotency_key=None,
            state="done",
        )
        journal.append(record.to_journal())
        with open(journal.path, "a") as handle:
            handle.write('{"id": "job-torn", "state": "runn')  # crash mid-append
        documents = journal.read()
        assert [doc["id"] for doc in documents] == ["job-whole0000000"]

    def test_leftover_snapshot_is_folded_in_then_removed(self, toy_runner, tmp_path):
        # Services before the shared journal compacted into snapshot.json;
        # its records must survive the first restart and the file must go.
        def record(job_id, state, created):
            return JobRecord(
                id=job_id,
                kind="run",
                experiments=["toy"],
                params={},
                grid=None,
                jobs=1,
                request_id="",
                idempotency_key=None,
                state=state,
                created_unix=created,
            )

        state_dir = tmp_path / "jobs"
        state_dir.mkdir()
        snapshot = state_dir / "snapshot.json"
        snapshot.write_text(
            json.dumps([record("job-snapshotonly", "done", 1.0).to_journal(),
                        record("job-superseded00", "running", 2.0).to_journal()])
        )
        Journal(state_dir / "journal.jsonl").append(record("job-superseded00", "failed", 2.0).to_journal())

        manager = JobManager(toy_runner, state_dir=state_dir)
        expected = {"job-snapshotonly": "done", "job-superseded00": "failed"}
        assert {job["id"]: job["state"] for job in manager.listing()} == expected
        assert not snapshot.exists()
        assert len((state_dir / "journal.jsonl").read_text().splitlines()) == 2  # one line per job
        manager.close(wait=True, drain_seconds=10)

        restarted = JobManager(toy_runner, state_dir=state_dir)
        assert {job["id"]: job["state"] for job in restarted.listing()} == expected
        restarted.close(wait=True, drain_seconds=10)

    def test_resubmit_rejects_unknown_and_unretryable_jobs(self, toy_runner, tmp_path):
        manager = JobManager(toy_runner, state_dir=tmp_path / "jobs")
        record, _created = manager.submit(kind="run", experiments=["toy"], params={"x": 2})
        _wait_for_state(manager, record.id, "done")
        with pytest.raises(ServiceError) as excinfo:
            manager.resubmit(record.id)
        assert excinfo.value.status == 409 and excinfo.value.code == "not_retryable"
        with pytest.raises(ServiceError) as excinfo:
            manager.resubmit("job-doesnotexist")
        assert excinfo.value.status == 404
        manager.close(wait=True, drain_seconds=10)

    def test_bounded_queue_sheds_with_overloaded(self, toy_runner):
        manager = JobManager(toy_runner, max_queue=1)
        slow, _created = manager.submit(
            kind="run", experiments=["toy"], params={"delay": 1.5}
        )
        with pytest.raises(ServiceError) as excinfo:
            manager.submit(kind="run", experiments=["toy"], params={"x": 9})
        assert excinfo.value.status == 503
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after and excinfo.value.retry_after > 0
        _wait_for_state(manager, slow.id, "done")
        accepted, created = manager.submit(kind="run", experiments=["toy"], params={"x": 9})
        assert created is True  # capacity freed: submissions flow again
        _wait_for_state(manager, accepted.id, "done")
        manager.close(wait=True, drain_seconds=10)

    def test_close_deadline_marks_leftovers_interrupted(self, toy_runner, tmp_path):
        manager = JobManager(toy_runner, state_dir=tmp_path / "jobs")
        record, _created = manager.submit(
            kind="run", experiments=["toy"], params={"delay": 2.0}
        )
        _wait_for_state(manager, record.id, "running")
        interrupted = manager.close(wait=True, drain_seconds=0.2)
        assert interrupted == 1
        assert manager.get(record.id).state == "interrupted"
        assert manager.get(record.id).error["code"] == "interrupted"

    def test_http_overload_returns_503_with_retry_after(self, toy_runner):
        import http.client

        with BackgroundServer(build_app(toy_runner, max_queue=1)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

            def post_job(params):
                conn.request(
                    "POST", "/v1/jobs", body=json.dumps({"experiment": "toy", "params": params})
                )
                response = conn.getresponse()
                return response, json.loads(response.read())

            response, first = post_job({"delay": 1.5})
            assert response.status == 202
            response, shed = post_job({"x": 4})
            assert response.status == 503
            assert shed["error"]["code"] == "overloaded"
            assert int(response.getheader("retry-after")) >= 1
            # The shed request is visible in the metrics snapshot.
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            metrics = json.loads(response.read())
            assert metrics["requests"]["shed"] == 1
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                conn.request("GET", f"/v1/jobs/{first['job']['id']}")
                response = conn.getresponse()
                if json.loads(response.read())["state"] == "done":
                    break
                time.sleep(0.05)
            conn.close()


# -- rate limiter bucket hygiene ----------------------------------------------------


class TestRateLimiterHygiene:
    def _limiter(self, **kwargs):
        clock = {"now": 0.0}
        defaults = dict(
            rate=1.0, burst=2, clock=lambda: clock["now"], max_clients=3, max_idle_seconds=10.0
        )
        defaults.update(kwargs)
        return TokenBucket(**defaults), clock

    def test_one_shot_burst_cannot_evict_a_limited_client(self):
        limiter, _clock = self._limiter()
        assert limiter.check("limited") == 0.0
        assert limiter.check("limited") == 0.0
        assert limiter.check("limited") > 0  # drained: actively limited
        # A scan of fresh one-shot clients overflows the table; the
        # eviction victim must be a (nearly) full scan bucket, never the
        # drained one -- otherwise the scan resets the limit.
        for scanner in ("scan-a", "scan-b", "scan-c", "scan-d"):
            assert limiter.check(scanner) == 0.0
        assert "limited" in limiter._buckets
        assert limiter.check("limited") > 0  # the drained state survived

    def test_idle_buckets_are_swept_to_bound_memory(self):
        limiter, clock = self._limiter(max_clients=1000)
        for index in range(10):
            limiter.check(f"one-shot-{index}")
        clock["now"] = 100.0  # far past max_idle_seconds
        for _ in range(TokenBucket.SWEEP_EVERY):
            limiter.check("active")
        assert set(limiter._buckets) == {"active"}

    def test_idle_bucket_resets_on_revisit(self):
        # With a very slow refill, only the idle reset (not refill) can
        # explain a fresh allowance after the idle window.
        limiter, clock = self._limiter(rate=0.01, burst=2, max_idle_seconds=10.0)
        assert limiter.check("client") == 0.0
        assert limiter.check("client") == 0.0
        assert limiter.check("client") > 0
        clock["now"] = 11.0  # 0.11 tokens of refill -- still denied without reset
        assert limiter.check("client") == 0.0

    def test_fresh_traffic_is_still_limited_after_sweeps(self):
        limiter, clock = self._limiter()
        clock["now"] = 50.0
        assert limiter.check("client") == 0.0
        assert limiter.check("client") == 0.0
        assert limiter.check("client") > 0


# -- process-level drain ------------------------------------------------------------


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines: list[str] = []
        ready = threading.Event()

        def pump():
            for line in process.stdout:
                lines.append(line)
                if "serving the reproduction" in line:
                    ready.set()

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            assert ready.wait(timeout=30), f"server never came up: {lines}"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        reader.join(timeout=10)
        assert any("shutdown signal received; draining jobs" in line for line in lines)
