"""Concurrent multi-tenant store suite: backends, fill claims, eviction.

Covers the :class:`~repro.runner.backends.StoreBackend` seam both stores
share -- the disk and in-memory backends must satisfy the same contract
-- plus the concurrency machinery layered on top: first-writer-wins fill
claims (exactly-once compute under many concurrent writers, stale-claim
takeover when a winner dies), LRU eviction under a byte budget (in-flight
fills, quarantine sidecars and the freshest entry are never evicted) and
the append-only stats log that concurrent recorders cannot clobber.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import tempfile
import threading
import time
import uuid

import pytest

from repro.analysis.sweep import SweepResult
from repro.runner.artifacts import (
    ArtifactStore,
    StoreStats,
    load_stats,
    produce_into,
    record_stats,
    reset_stats,
)
from repro.runner.backends import (
    ClaimTicket,
    DiskBackend,
    MemoryBackend,
    evict_lru,
)
from repro.runner.cache import CacheEntry, ResultCache, cache_key
from repro.runner import artifacts as artifacts_module
from repro.runner.cli import main
from repro.runner.registry import ExperimentSpec
from repro.runner.service import ExperimentRunner


def _backend(kind, tmp_path):
    return DiskBackend(tmp_path / "store") if kind == "disk" else MemoryBackend()


@pytest.fixture(params=["disk", "memory", "remote"])
def backend(request, tmp_path):
    """One StoreBackend implementation per param: on-disk, in-memory, networked."""
    if request.param != "remote":
        yield _backend(request.param, tmp_path)
        return
    from repro.runner.netstore import RemoteBackend, StoreServer

    with StoreServer(tmp_path / "server") as server:
        remote = RemoteBackend(server.url)
        try:
            yield remote
        finally:
            remote.close()


def _result_entry(experiment="toy", rows=None, pad=0):
    payload = rows if rows is not None else [{"a": 1}]
    provenance = {"pad": "x" * pad} if pad else {}
    return CacheEntry(
        experiment=experiment,
        params={},
        fingerprint="f" * 64,
        result=SweepResult(records=payload),
        elapsed_seconds=0.0,
        provenance=provenance,
    )


# -- the backend contract (every implementation, including over the wire) -----------


class TestBackendContract:
    def test_put_get_delete_round_trip(self, backend):
        assert backend.get("ns", "a.json") is None
        backend.put("ns", "a.json", b"payload")
        assert backend.get("ns", "a.json") == b"payload"
        stat = backend.stat("ns", "a.json")
        assert stat is not None and stat.size_bytes == len(b"payload")
        assert backend.delete("ns", "a.json") is True
        assert backend.get("ns", "a.json") is None
        assert backend.delete("ns", "a.json") is False  # already gone

    def test_iter_is_sorted_and_skips_reserved_namespaces(self, backend):
        backend.put("beta", "2.json", b"b")
        backend.put("alpha", "1.json", b"a")
        backend.put("corrupt", "poisoned.json", b"x")
        backend.put("artifacts", "nested.pkl", b"x")
        backend.put("jobs", "journal.json", b"x")
        assert list(backend.iter()) == [("alpha", "1.json"), ("beta", "2.json")]
        assert list(backend.iter("alpha")) == [("alpha", "1.json")]

    def test_access_stamps_order_entries_and_get_refreshes(self, backend):
        backend.put("ns", "old.json", b"1")
        time.sleep(0.01)
        backend.put("ns", "new.json", b"2")
        time.sleep(0.01)
        backend.get("ns", "old.json")  # refresh: now newer than "new"
        assert (
            backend.stat("ns", "old.json").accessed_unix
            > backend.stat("ns", "new.json").accessed_unix
        )
        # touch=False reads (listings) must not refresh the LRU stamp.
        before = backend.stat("ns", "new.json").accessed_unix
        backend.get("ns", "new.json", touch=False)
        assert backend.stat("ns", "new.json").accessed_unix == before

    def test_claim_is_first_writer_wins_and_put_releases(self, backend):
        assert backend.claim("ns", "k.json") is True
        assert backend.claim("ns", "k.json") is False  # second claimer loses
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and ticket.pid == os.getpid()
        assert not ticket.is_stale()  # we are demonstrably alive
        backend.put("ns", "k.json", b"filled")  # the fill clears the claim
        assert backend.claim_info("ns", "k.json") is None
        assert backend.claim("ns", "k.json") is True  # reclaimable afterwards
        assert backend.release("ns", "k.json") is True

    def test_release_with_owner_refuses_foreign_tickets(self, backend):
        assert backend.claim("ns", "k.json")
        stranger = ClaimTicket(pid=1, host="elsewhere", created_unix=123.0)
        assert backend.release("ns", "k.json", owner=stranger) is False
        assert backend.claim_info("ns", "k.json") is not None  # still held
        mine = backend.claim_info("ns", "k.json")
        assert backend.release("ns", "k.json", owner=mine) is True

    def test_quarantine_hides_the_entry(self, backend):
        backend.put("ns", "bad.json", b"garbage")
        assert backend.quarantine("ns", "bad.json") is True
        assert backend.get("ns", "bad.json") is None
        assert list(backend.iter()) == []


class TestDiskLayout:
    def test_sidecars_are_hidden_and_cleaned_up(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.claim("ns", "k.json")
        backend.put("ns", "k.json", b"blob")
        names = sorted(path.name for path in (tmp_path / "ns").iterdir())
        assert names == [".k.json.atime", "k.json"]  # claim cleared by the put
        assert list(backend.iter()) == [("ns", "k.json")]  # dotfiles never listed
        backend.delete("ns", "k.json")
        assert list((tmp_path / "ns").iterdir()) == []

    def test_disk_quarantine_moves_bytes_for_forensics(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "bad.json", b"garbage")
        backend.quarantine("ns", "bad.json")
        assert (tmp_path / "corrupt" / "ns" / "bad.json").read_bytes() == b"garbage"


# -- stale-claim detection ----------------------------------------------------------


def _dead_pid():
    """A pid with no live process (freshly exited child)."""
    process = multiprocessing.Process(target=lambda: None)
    process.start()
    process.join()
    pid = process.pid
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} still probeable after exit")  # pragma: no cover


class TestStaleClaims:
    def test_dead_owner_on_this_host_is_stale(self):
        import repro.runner.backends as backends

        ticket = ClaimTicket(pid=_dead_pid(), host=backends._HOST, created_unix=time.time())
        assert ticket.is_stale()

    def test_live_owner_is_not_stale_until_ttl(self):
        import repro.runner.backends as backends

        ticket = ClaimTicket(pid=os.getpid(), host=backends._HOST, created_unix=time.time())
        assert not ticket.is_stale()
        wedged = ClaimTicket(
            pid=os.getpid(), host=backends._HOST, created_unix=time.time() - 10.0
        )
        assert wedged.is_stale(ttl_seconds=5.0)  # alive but wedged past the TTL

    def test_foreign_host_falls_back_to_ttl(self):
        fresh = ClaimTicket(pid=1, host="another-box", created_unix=time.time())
        assert not fresh.is_stale(ttl_seconds=60.0)
        old = ClaimTicket(pid=1, host="another-box", created_unix=time.time() - 120.0)
        assert old.is_stale(ttl_seconds=60.0)

    def test_torn_ticket_ages_by_file_mtime(self, tmp_path):
        # A ticket with unreadable bytes is either mid-write (fresh: must
        # NOT be stolen) or truly torn by a killed writer (expires by TTL).
        backend = DiskBackend(tmp_path)
        token = tmp_path / "ns" / ".k.json.claim"
        token.parent.mkdir(parents=True)
        token.write_text("{torn bytes")
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and not ticket.is_stale(ttl_seconds=60.0)
        old = time.time() - 120.0
        os.utime(token, (old, old))
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and ticket.is_stale(ttl_seconds=60.0)


# -- ContentStore.wait_for_fill -----------------------------------------------------


class TestWaitForFill:
    def test_waiter_reads_the_winners_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        assert cache.claim("toy", key)

        def fill():
            time.sleep(0.15)
            cache.put(key, _result_entry(rows=[{"winner": 1}]))

        filler = threading.Thread(target=fill)
        filler.start()
        try:
            entry = cache.wait_for_fill("toy", key)
        finally:
            filler.join()
        assert entry is not None and entry.rows == [{"winner": 1}]

    def test_stale_claim_is_taken_over(self, tmp_path, monkeypatch):
        import repro.runner.backends as backends

        cache = ResultCache(tmp_path)
        key = "b" * 64
        # A dead process claimed the address and never filled it.
        token = tmp_path / "toy" / f".{key}.json.claim"
        token.parent.mkdir(parents=True)
        token.write_text(
            json.dumps(
                {"pid": _dead_pid(), "host": backends._HOST, "created_unix": time.time()}
            )
        )
        assert cache.wait_for_fill("toy", key) is None  # we must compute ...
        ticket = cache.claim_info("toy", key)
        assert ticket is not None and ticket.pid == os.getpid()  # ... owning the claim

    def test_takeover_rechecks_for_a_finished_fill(self, tmp_path):
        # The filled-then-released window: the winner's entry landed but the
        # waiter read "no claim" first.  The re-check must find the entry
        # instead of recomputing it.
        cache = ResultCache(tmp_path)
        key = "c" * 64
        cache.put(key, _result_entry(rows=[{"done": 1}]))
        entry = cache.wait_for_fill("toy", key)
        assert entry is not None and entry.rows == [{"done": 1}]
        assert cache.claim_info("toy", key) is None  # no claim left behind

    def test_blown_deadline_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_WAIT_SECONDS", "0.15")
        cache = ResultCache(tmp_path)
        key = "d" * 64
        assert cache.claim("toy", key)  # a live claim that never fills
        start = time.monotonic()
        assert cache.wait_for_fill("toy", key, poll_seconds=0.01) is None
        assert time.monotonic() - start < 5.0


# -- exactly-once concurrent fill ---------------------------------------------------


class TestConcurrentFill:
    def test_threads_racing_one_address_compute_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []
        # The producer holds its claim until the five losers have tallied
        # their waits, so no thread can arrive after the fill and hit.
        waiting = threading.Semaphore(0)
        handshakes = []
        store.note_wait = _signalling(store.note_wait, waiting)

        def producer(*, x):
            calls.append(x)
            handshakes.append(all(waiting.acquire(timeout=30) for _ in range(5)))
            return {"value": x * 2}

        results = [None] * 6
        def fill(slot):
            results[slot] = produce_into(store, "demo", {"x": 21}, producer)

        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert calls == [21]  # exactly one compute
        assert handshakes == [True]
        assert all(entry.payload == {"value": 42} for entry in results)
        drained = store.drain_stats()
        assert drained["artifact_claims"] == 1
        assert drained["artifact_claim_waits"] == 5

    def test_processes_racing_one_address_compute_once(self, tmp_path):
        root = tmp_path / "store"
        side_effects = tmp_path / "computes.log"
        processes = [
            multiprocessing.Process(target=_process_fill, args=(root, side_effects))
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        # The producer ran in exactly one process ...
        assert len(side_effects.read_text().splitlines()) == 1
        # ... and every process left no claim behind.
        store = ArtifactStore(root)
        entry = store.get("shared", "e" * 64)
        assert entry is not None and entry.payload == {"value": 14}


class TestRemoteCoordination:
    """Fleet-level claim semantics through the networked backend."""

    def test_stale_claim_takeover_through_remote(self, tmp_path):
        import repro.runner.backends as backends
        from repro.runner.netstore import RemoteBackend, StoreServer

        with StoreServer(tmp_path / "server") as server:
            key = "b" * 64
            # A dead client claimed the address on the server and never filled.
            token = server.root / "toy" / f".{key}.json.claim"
            token.parent.mkdir(parents=True)
            token.write_text(
                json.dumps(
                    {"pid": _dead_pid(), "host": backends._HOST, "created_unix": time.time()}
                )
            )
            cache = ResultCache(backend=RemoteBackend(server.url))
            ticket = cache.claim_info("toy", key)
            assert ticket is not None and ticket.is_stale()  # visible over the wire
            assert cache.wait_for_fill("toy", key) is None  # we must compute ...
            ticket = cache.claim_info("toy", key)
            assert ticket is not None and ticket.pid == os.getpid()  # ... owning the claim

    def test_threads_racing_one_address_through_remote_compute_once(self, tmp_path):
        from repro.runner.netstore import RemoteBackend, StoreServer

        with StoreServer(tmp_path / "server") as server:
            # Six contenders, each its own connection -- the claim ticket on
            # the server arbitrates exactly-once across all of them.
            stores = [
                ArtifactStore(backend=RemoteBackend(server.url)) for _ in range(6)
            ]
            calls = []
            # Loser handshake: each contender that loses the claim signals
            # before it waits, and the winner holds its claim until all five
            # have, so no contender can reach the server after the fill.
            waiting = threading.Semaphore(0)
            handshakes = []
            for store in stores:
                store.note_wait = _signalling(store.note_wait, waiting)

            def producer(*, x):
                calls.append(x)
                handshakes.append(
                    all(waiting.acquire(timeout=30) for _ in range(len(stores) - 1))
                )
                return {"value": x * 2}

            results = [None] * len(stores)

            def fill(slot):
                results[slot] = produce_into(stores[slot], "demo", {"x": 21}, producer)

            threads = [
                threading.Thread(target=fill, args=(slot,)) for slot in range(len(stores))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert calls == [21]  # exactly one compute, fleet-wide
            assert handshakes == [True]
            assert all(entry.payload == {"value": 42} for entry in results)
            drained = [store.drain_stats() for store in stores]
            assert sum(d["artifact_claims"] for d in drained) == 1
            assert sum(d["artifact_claim_waits"] for d in drained) == len(stores) - 1

    def test_contender_arriving_after_the_fill_serves_the_entry(self, tmp_path):
        from repro.runner.artifacts import artifact_key
        from repro.runner.netstore import RemoteBackend, StoreServer

        with StoreServer(tmp_path / "server") as server:
            early, late = (ArtifactStore(backend=RemoteBackend(server.url)) for _ in range(2))
            key = artifact_key("demo", {"x": 21}, "f" * 64)
            calls = []

            def producer(*, x):
                calls.append(x)
                return {"value": x * 2}

            # Both contenders miss before either fills; the late one only
            # reaches its claim after the early one's entry has landed, so it
            # wins a fresh claim on an address that is already filled.
            misses = sum(store.get("demo", key) is None for store in (early, late))
            first = produce_into(early, "demo", {"x": 21}, producer, key=key, fingerprint="f" * 64)
            second = produce_into(late, "demo", {"x": 21}, producer, key=key, fingerprint="f" * 64)
            assert calls == [21]
            assert first.payload == second.payload == {"value": 42}
            assert late.claim_info("demo", key) is None  # the re-check released its claim
            drained = [store.drain_stats() for store in (early, late)]
            claims = sum(d["artifact_claims"] for d in drained)
            claim_waits = sum(d["artifact_claim_waits"] for d in drained)
            assert misses == claims + claim_waits == 2


def _signalling(note_wait, semaphore):
    """``note_wait`` that also releases ``semaphore`` once per tallied wait."""

    def wrapper():
        note_wait()
        semaphore.release()

    return wrapper


def _process_fill(root, side_effects):
    """Module-level for pickling; one contender in the multi-process race."""
    store = ArtifactStore(root)

    def producer(*, x):
        with open(side_effects, "a") as handle:  # O_APPEND: one line per compute
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.2)
        return {"value": x * 2}

    entry = produce_into(store, "shared", {"x": 7}, producer, key="e" * 64)
    assert entry.payload == {"value": 14}


# -- bounded stores / LRU eviction --------------------------------------------------


class TestEviction:
    def _fill(self, backend, count, size=100):
        for index in range(count):
            backend.put("ns", f"{index}.json", b"x" * size)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_least_recently_used_goes_first(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        self._fill(backend, 4)
        backend.get("ns", "0.json")  # refresh the oldest entry
        evicted, freed = evict_lru(backend, 250)
        assert (evicted, freed) == (2, 200)
        survivors = [filename for _ns, filename in backend.iter()]
        assert survivors == ["0.json", "3.json"]  # refreshed + newest survive

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_under_budget_is_a_no_op(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        self._fill(backend, 3)
        assert evict_lru(backend, 10_000) == (0, 0)

    def test_oversized_protected_entry_survives(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "huge.json", b"x" * 1000)
        # Protected (just written): the store is bounded by
        # max(budget, largest entry), never emptied below one entry.
        assert evict_lru(backend, 100, keep={("ns", "huge.json")}) == (0, 0)
        assert backend.stat("ns", "huge.json") is not None
        # Unprotected on a later write, it is fair game.
        assert evict_lru(backend, 100) == (1, 1000)

    def test_claimed_entries_are_never_evicted(self, tmp_path):
        backend = DiskBackend(tmp_path)
        self._fill(backend, 2)
        backend.put("ns", "filling.json", b"y" * 100)
        backend.claim("ns", "filling.json")  # an in-flight refill owns it
        evicted, _freed = evict_lru(backend, 100)
        assert evicted == 2
        assert [filename for _ns, filename in backend.iter()] == ["filling.json"]

    def test_quarantine_is_exempt_from_the_budget(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "bad.json", b"x" * 10_000)
        backend.quarantine("ns", "bad.json")
        backend.put("ns", "good.json", b"x" * 50)
        # The quarantined 10k does not count toward (or get freed for) the cap.
        assert evict_lru(backend, 100, keep={("ns", "good.json")}) == (0, 0)
        assert (tmp_path / "corrupt" / "ns" / "bad.json").exists()

    def test_eviction_races_concurrent_reads_safely(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=2_000)
        keys = [cache_key("toy", json.dumps({"i": i}), "f" * 64) for i in range(12)]
        failures = []

        def reader():
            for _ in range(200):
                for key in keys:
                    entry = cache.get("toy", key)  # entry or miss, never an error
                    if entry is not None and entry.experiment != "toy":
                        failures.append(key)

        thread = threading.Thread(target=reader)
        thread.start()
        for key in keys:  # writes drive eviction under the reader's feet
            cache.put(key, _result_entry(pad=400))
        thread.join()
        assert failures == []
        drained = cache.drain_stats()
        assert drained["result_evictions"] > 0
        assert drained["result_corrupt"] == 0  # a raced read is a miss, never corruption

    def test_result_cache_enforces_budget_with_counters(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1_000)
        keys = [cache_key("toy", json.dumps({"i": i}), "f" * 64) for i in range(6)]
        for key in keys:
            cache.put(key, _result_entry(pad=400))
        listing = cache.ls()
        assert 1 <= len(listing) <= 2  # bounded by the budget
        assert sum(row["size_bytes"] for row in listing) <= 1_000
        assert keys[-1] in {row["key"] for row in listing}  # newest always kept
        drained = cache.drain_stats()
        assert drained["result_evictions"] == 6 - len(listing)
        assert drained["result_evicted_bytes"] > 0

    def test_env_budget_is_wired(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ResultCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_BYTES", "999")
        assert ArtifactStore(tmp_path).max_bytes == 999
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")  # 0/invalid = unbounded
        assert ResultCache(tmp_path).max_bytes is None


# -- warm replay under eviction pressure --------------------------------------------


TOY_SOURCE = '''\
"""Toy experiment driver for store tests (milliseconds per run)."""

PARAMS = {"x": 2}


def run(*, x=2):
    return [{"x": x, "y": x * x}]


def render(rows):
    return "\\n".join(f"{row['x']} -> {row['y']}" for row in rows)
'''


def _toy_runner(tmp_path, monkeypatch, *, cache=None):
    import importlib

    module_dir = tmp_path / "modules"
    module_dir.mkdir(exist_ok=True)
    module_name = f"storetoy_{uuid.uuid4().hex[:8]}"
    (module_dir / f"{module_name}.py").write_text(TOY_SOURCE)
    monkeypatch.syspath_prepend(str(module_dir))
    module = importlib.import_module(module_name)
    spec = ExperimentSpec.from_module("toy", module)
    return ExperimentRunner(
        cache=cache if cache is not None else ResultCache(tmp_path / "cache"),
        registry={"toy": spec},
    )


class TestRunnerUnderPressure:
    def test_warm_replay_is_bit_identical_under_eviction(self, tmp_path, monkeypatch):
        # A cap small enough to evict most entries: warm reruns recompute
        # the evicted ones and must reproduce the cold rows byte-for-byte.
        runner = _toy_runner(
            tmp_path, monkeypatch, cache=ResultCache(tmp_path / "cache", max_bytes=2_000)
        )
        requests = [("toy", {"x": x}) for x in range(8)]
        cold = runner.run_many(list(requests))
        warm = runner.run_many(list(requests))
        assert json.dumps([r.rows for r in warm]) == json.dumps([r.rows for r in cold])
        counters = load_stats(runner.cache.root)
        assert counters.result_evictions > 0

    def test_memory_backed_runner_needs_no_disk(self, tmp_path, monkeypatch):
        runner = _toy_runner(
            tmp_path, monkeypatch, cache=ResultCache(backend=MemoryBackend())
        )
        assert runner.cache.root is None
        (cold,) = runner.run_many([("toy", {"x": 6})])
        (warm,) = runner.run_many([("toy", {"x": 6})])
        assert cold.cached is False and warm.cached is True
        assert warm.rows == cold.rows == [{"x": 6, "y": 36}]
        assert list(tmp_path.glob("cache*")) == []  # nothing persisted anywhere

    def test_claims_and_misses_balance_in_counters(self, tmp_path, monkeypatch):
        runner = _toy_runner(tmp_path, monkeypatch)
        runner.run_many([("toy", {"x": 1}), ("toy", {"x": 2}), ("toy", {"x": 1})])
        counters = load_stats(runner.cache.root)
        # Two unique cold fills, each computed under a won claim; the
        # duplicate request neither claims nor waits.
        assert counters.result_misses == 3
        assert counters.result_claims == 2
        assert counters.result_claim_waits == 0

    def test_cell_filled_after_the_lookup_is_served_not_recomputed(self, tmp_path, monkeypatch):
        # Another runner's fill lands between this runner's lookup (a miss)
        # and its claim, so the claim is won fresh on a filled address.  The
        # re-check must serve that entry instead of computing it again.
        runner = _toy_runner(tmp_path, monkeypatch)
        other = ExperimentRunner(cache=ResultCache(tmp_path / "cache"), registry=runner.registry)
        claim = runner.cache.claim

        def claim_after_the_other_fill(name, key):
            (filled,) = other.run_many([("toy", {"x": 3})])
            assert filled.cached is False
            return claim(name, key)

        monkeypatch.setattr(runner.cache, "claim", claim_after_the_other_fill)
        (late,) = runner.run_many([("toy", {"x": 3})])
        assert late.cached is True and late.rows == [{"x": 3, "y": 9}]
        assert runner.cache.claim_info("toy", late.key) is None  # the re-check released it
        counters = load_stats(runner.cache.root)
        assert counters.result_misses == counters.result_claims == 2

    def test_runners_racing_overlapping_batches_compute_each_cell_once(self, tmp_path, monkeypatch):
        # The runners meet at a barrier after claiming the first half of
        # their lists and again after claiming all of it, before either
        # computes: every batch fill wins two claims and loses two.
        first = _toy_runner(tmp_path, monkeypatch)
        second = ExperimentRunner(cache=ResultCache(tmp_path / "cache"), registry=first.registry)
        module = first.spec("toy").module
        computed = []
        run = module.run
        monkeypatch.setattr(module, "run", lambda **config: computed.append(config["x"]) or run(**config))
        barrier = threading.Barrier(2, timeout=30)
        for runner in (first, second):
            claim, claimed = runner.cache.claim, []

            def claim_in_halves(name, key, claim=claim, claimed=claimed):
                if len(claimed) == 2:
                    barrier.wait()
                claimed.append(key)
                won = claim(name, key)
                if len(claimed) == 4:
                    barrier.wait()
                return won

            monkeypatch.setattr(runner.cache, "claim", claim_in_halves)
        orders = {first: [1, 2, 3, 4], second: [4, 3, 2, 1]}
        reports = {}

        def race(runner):
            reports[runner] = runner.run_many([("toy", {"x": x}) for x in orders[runner]])

        threads = [threading.Thread(target=race, args=(runner,)) for runner in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert sorted(computed) == [1, 2, 3, 4]  # each address computed once
        rows = {runner: {r.config["x"]: json.dumps(r.rows) for r in reports[runner]} for runner in orders}
        assert rows[first] == rows[second]
        assert sum(r.cached for r in reports[first]) == sum(r.cached for r in reports[second]) == 2
        counters = load_stats(first.cache.root)
        assert counters.result_misses == 8
        assert counters.result_claims == counters.result_claim_waits == 4
        assert counters.result_misses == counters.result_claims + counters.result_claim_waits

    def test_failed_put_releases_every_owned_claim(self, tmp_path, monkeypatch):
        from repro.faults import FaultInjected, injected

        runner = _toy_runner(tmp_path, monkeypatch)
        requests = [("toy", {"x": x}) for x in (1, 2, 3)]
        with injected("cache.write:exc"):  # the first owned cell's put raises
            with pytest.raises(FaultInjected):
                runner.run_many(requests)
        for name, overrides in requests:
            _config, key, _fingerprint = runner.address(name, overrides)
            assert runner.cache.claim_info(name, key) is None
        assert [report.cached for report in runner.run_many(requests)] == [False] * 3


# -- stats: append-only log ---------------------------------------------------------


def _record_many(root, count):
    """Module-level so a ``multiprocessing.Process`` can run it."""
    for _ in range(count):
        record_stats(root, StoreStats(result_hits=1, artifact_claims=2))


class TestStatsLog:
    def test_concurrent_recorders_never_lose_increments(self, tmp_path):
        # Regression: the old read-modify-write snapshot dropped concurrent
        # deltas; the O_APPEND log must keep every one of them.
        threads = [
            threading.Thread(
                target=lambda: record_stats(tmp_path, StoreStats(result_hits=1))
            )
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert load_stats(tmp_path).result_hits == 32

    def test_legacy_snapshot_still_counts(self, tmp_path):
        (tmp_path / "_stats.json").write_text(json.dumps({"result_hits": 5}))
        record_stats(tmp_path, StoreStats(result_hits=2, result_claims=1))
        total = load_stats(tmp_path)
        assert total.result_hits == 7
        assert total.result_claims == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        record_stats(tmp_path, StoreStats(artifact_hits=3))
        with open(tmp_path / "_stats.jsonl", "a") as handle:
            handle.write('{"artifact_hits": 99')  # killed mid-append
        assert load_stats(tmp_path).artifact_hits == 3

    def test_append_after_a_torn_tail_is_not_swallowed(self, tmp_path):
        # A torn tail has no newline: the next append must start a new line,
        # or the torn text and that delta decode as one bad line and are lost.
        record_stats(tmp_path, StoreStats(result_hits=1))
        with open(tmp_path / "_stats.jsonl", "a") as handle:
            handle.write('{"result_hits": 9')  # killed mid-append
        record_stats(tmp_path, StoreStats(result_hits=1))
        record_stats(tmp_path, StoreStats(result_hits=1))
        assert load_stats(tmp_path).result_hits == 3

    def test_appends_racing_compactions_keep_an_exact_total(self, tmp_path, monkeypatch):
        # Four processes append while this one compacts as often as it can:
        # an append into a file a compaction already folded would be lost.
        monkeypatch.setattr(artifacts_module, "STATS_COMPACT_LINES", 16)
        processes = [multiprocessing.Process(target=_record_many, args=(tmp_path, 3000)) for _ in range(4)]
        for process in processes:
            process.start()
        log = tmp_path / "_stats.jsonl"
        inodes = set()
        deadline = time.monotonic() + 120
        while any(process.is_alive() for process in processes) and time.monotonic() < deadline:
            load_stats(tmp_path)
            if log.exists():
                inodes.add(log.stat().st_ino)
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert len(inodes) > 1  # compactions really replaced the file mid-run
        total = load_stats(tmp_path)
        assert (total.result_hits, total.artifact_claims) == (12000, 24000)
        assert len(log.read_text().splitlines()) <= 16

    def test_compaction_drops_a_torn_tail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts_module, "STATS_COMPACT_LINES", 0)
        for _ in range(3):
            record_stats(tmp_path, StoreStats(result_hits=1))
        assert load_stats(tmp_path).result_hits == 3
        log = tmp_path / "_stats.jsonl"
        compacted = log.read_bytes()
        assert len(compacted.splitlines()) == 1
        with open(log, "a") as handle:
            handle.write('{"result_hits": 99')  # killed mid-append after the compaction
        assert load_stats(tmp_path).result_hits == 3
        assert log.read_bytes() == compacted  # the next compaction dropped the torn tail
        record_stats(tmp_path, StoreStats(result_hits=1))
        assert load_stats(tmp_path).result_hits == 4

    def test_compaction_on_a_read_only_root_still_returns_the_totals(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts_module, "STATS_COMPACT_LINES", 2)
        for _ in range(5):
            record_stats(tmp_path, StoreStats(result_hits=1, quarantined=1))
        log = tmp_path / "_stats.jsonl"
        before = log.read_bytes()

        def read_only(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", read_only)
        total = load_stats(tmp_path)
        assert (total.result_hits, total.quarantined) == (5, 5)
        assert log.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["_stats.jsonl"]

    def test_reset_clears_log_and_snapshot(self, tmp_path):
        (tmp_path / "_stats.json").write_text(json.dumps({"result_hits": 5}))
        record_stats(tmp_path, StoreStats(result_hits=2))
        reset_stats(tmp_path)
        assert load_stats(tmp_path).result_hits == 0


# -- CLI surface --------------------------------------------------------------------


class TestCliBudget:
    def test_cache_max_bytes_flag_bounds_the_store(self, tmp_path, capsys):
        # Big enough for one table1 entry (~1.3k) but never two.
        common = ["--cache-dir", str(tmp_path), "--cache-max-bytes", "2000"]
        assert main(["run", "table1", "--param", "samples=40", "--param", "seed=3", *common]) == 0
        assert main(["run", "table1", "--param", "samples=40", "--param", "seed=9", *common]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        # The second run evicted the first entry past the cap.
        assert summary["results"]["entries"] == 1
        assert summary["results"]["bytes"] <= 2000
        assert summary["results"]["evictions"] >= 1
        assert summary["results"]["evicted_bytes"] > 0
        assert summary["results"]["claims"] == 2
