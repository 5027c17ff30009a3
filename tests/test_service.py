"""End-to-end suite for the HTTP service (``python -m repro serve``).

Everything runs against a real server: ``BackgroundServer`` binds an
ephemeral port on a daemon thread and ``http.client`` talks actual
HTTP/1.1 over the socket, so the wire format, keep-alive handling and
middleware (request IDs, rate limiting, error bodies) are all exercised
as a client would see them.

Fast tests use a tiny injected "toy" experiment (milliseconds per run);
the capstone bit-identity test runs the real registry and diffs warm
service responses against ``python -m repro run {name} --json`` for all
eight experiments.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.runner.cache import ResultCache
from repro.runner.cli import main
from repro.runner.service import ExperimentRunner
from repro.service import BackgroundServer, build_app

TOY_SOURCE = '''\
"""Toy experiment driver for service tests (milliseconds per run)."""

PARAMS = {"x": 2, "boom": False}


def run(*, x=2, boom=False):
    if boom:
        raise RuntimeError("toy experiment exploded")
    return [{"x": x, "y": x * x}]


def render(rows):
    return "\\n".join(f"{row['x']} -> {row['y']}" for row in rows)
'''


def _toy_runner(tmp_path, driver_spec):
    return ExperimentRunner(cache=ResultCache(tmp_path / "cache"), registry={"toy": driver_spec(TOY_SOURCE)})


@pytest.fixture()
def toy_runner(tmp_path, driver_spec):
    return _toy_runner(tmp_path, driver_spec)


@pytest.fixture()
def server(toy_runner):
    with BackgroundServer(build_app(toy_runner)) as background:
        yield background


class Client:
    """Minimal JSON-over-HTTP helper around one keep-alive connection."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method, path, body=None, headers=None):
        payload = json.dumps(body) if isinstance(body, (dict, list)) else body
        self.conn.request(method, path, body=payload, headers=headers or {})
        response = self.conn.getresponse()
        raw = response.read()
        return response, (json.loads(raw) if raw else None)

    def wait_for_job(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _response, document = self.request("GET", f"/v1/jobs/{job_id}")
            if document["state"] in ("done", "failed"):
                return document
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture()
def client(server):
    return Client(server.port)


class TestBasics:
    def test_health_is_ok(self, client):
        response, document = client.request("GET", "/v1/health")
        assert response.status == 200
        assert document["status"] == "ok"

    def test_request_id_minted_and_echoed(self, client):
        response, document = client.request("GET", "/v1/health")
        minted = response.getheader("x-request-id")
        assert minted and minted.startswith("req-")
        assert document["request_id"] == minted
        response, document = client.request(
            "GET", "/v1/health", headers={"X-Request-Id": "my-trace.01"}
        )
        assert response.getheader("x-request-id") == "my-trace.01"
        assert document["request_id"] == "my-trace.01"
        # Ill-formed client IDs (spaces) are replaced, not echoed.
        response, _document = client.request(
            "GET", "/v1/health", headers={"X-Request-Id": "not a valid id"}
        )
        assert response.getheader("x-request-id").startswith("req-")

    def test_experiments_listing_serves_schemas(self, client):
        response, document = client.request("GET", "/v1/experiments")
        assert response.status == 200
        (entry,) = document["experiments"]
        assert entry["name"] == "toy"
        assert entry["params"]["x"] == {"type": "int", "default": 2}
        assert entry["params"]["boom"] == {"type": "bool", "default": False}

    def test_unknown_route_404_and_wrong_method_405(self, client):
        response, document = client.request("GET", "/v1/nope")
        assert response.status == 404
        assert document["error"]["code"] == "unknown_route"
        assert document["error"]["request_id"]
        response, document = client.request("DELETE", "/v1/jobs")
        assert response.status == 405
        assert document["error"]["code"] == "method_not_allowed"
        assert "GET, POST" in document["error"]["message"]


def _raw_exchange(port, data):
    """Send raw bytes on a fresh socket; everything the server writes until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # a server closing on unread input may reset
            pass
    return b"".join(chunks)


def _raw_error(port, data):
    """``(status, error document)`` of the one response to a rejected request."""
    raw = _raw_exchange(port, data)
    head, _separator, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n")[0].decode("latin-1")
    assert status_line.startswith("HTTP/1.1 "), raw[:200]
    return int(status_line.split(" ")[1]), json.loads(body)["error"]


class TestTransport:
    """Raw-socket probes of request framing, caps and keep-alive."""

    @pytest.mark.parametrize("request_line", [b"GARBAGE", b"GET / FOO/1.1"])
    def test_malformed_request_line_is_400(self, server, request_line):
        status, error = _raw_error(server.port, request_line + b"\r\n\r\n")
        assert status == 400
        assert error["code"] == "bad_request"

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_invalid_content_length_is_400(self, server, length):
        status, error = _raw_error(
            server.port, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
        )
        assert status == 400
        assert error["code"] == "bad_request"

    def test_oversized_body_is_refused_before_reading_it(self, server):
        status, error = _raw_error(
            server.port, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n"
        )
        assert status == 413
        assert error["code"] == "body_too_large"

    def test_one_oversized_header_line_is_431(self, server):
        line = b"X-Big: " + b"a" * (70 * 1024) + b"\r\n"
        status, error = _raw_error(server.port, b"GET /v1/health HTTP/1.1\r\n" + line + b"\r\n")
        assert status == 431
        assert error["code"] == "headers_too_large"

    def test_head_over_64_kib_of_short_headers_is_431(self, server):
        # 80 headers stay under the per-request header count; their sum does not.
        headers = b"".join(b"X-Pad-%02d: %s\r\n" % (index, b"a" * 1000) for index in range(80))
        status, error = _raw_error(server.port, b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n")
        assert status == 431
        assert error["code"] == "headers_too_large"

    def test_pipelined_requests_answer_in_order_then_close(self, server):
        request = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        closing = b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        raw = _raw_exchange(server.port, request + request + closing)  # returns at EOF
        assert raw.count(b"HTTP/1.1 ") == 3
        assert raw.count(b"HTTP/1.1 200 ") == 3


class TestHealthSplit:
    def test_liveness_is_ok_without_probing_anything(self, client):
        response, document = client.request("GET", "/v1/health/live")
        assert response.status == 200
        assert document["status"] == "ok"

    def test_readiness_with_a_local_backend_is_ready(self, client):
        response, document = client.request("GET", "/v1/health/ready")
        assert response.status == 200
        assert document["status"] == "ready"
        assert "store_backend" not in document  # nothing remote to probe

    def test_readiness_reports_degraded_when_the_store_is_gone(
        self, tmp_path, driver_spec
    ):
        import socket as socketlib

        from repro.runner.backends import DiskBackend
        from repro.runner.netstore import RemoteBackend, TieredBackend

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        dead_url = f"tcp://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        runner = _toy_runner(tmp_path, driver_spec)
        runner.cache.backend = TieredBackend(
            DiskBackend(tmp_path / "tiered"), RemoteBackend(dead_url, timeout=0.2, retries=0)
        )
        with BackgroundServer(build_app(runner)) as background:
            client = Client(background.port)
            response, document = client.request("GET", "/v1/health/ready")
            # Degraded, not dead: the endpoint stays 200 (the service can
            # serve from the local tier) but readiness reports the outage.
            assert response.status == 200
            assert document["status"] == "degraded"
            store = document["store_backend"]
            assert store["backend"] == "tiered" and store["reachable"] is False
            # Liveness is indifferent to the store.
            response, document = client.request("GET", "/v1/health/live")
            assert response.status == 200 and document["status"] == "ok"
            # Metrics expose the breaker gauges without probing.
            _response, metrics = client.request("GET", "/v1/metrics")
            assert metrics["store_backend"]["url"] == dead_url
            assert metrics["store_backend"]["remote_errors"] >= 1  # the failed probe
            assert metrics["store_backend"]["breaker_state"] in (
                "closed", "open", "half_open"
            )

    def test_health_probes_are_rate_limit_exempt(self, toy_runner):
        app = build_app(toy_runner, rate_limit=0.001, rate_burst=1)
        with BackgroundServer(app) as background:
            client = Client(background.port)
            client.request("GET", "/v1/experiments")  # burns the only token
            for path in ("/v1/health", "/v1/health/live", "/v1/health/ready"):
                statuses = [client.request("GET", path)[0].status for _ in range(3)]
                assert statuses == [200] * 3, path


class TestRunEndpoint:
    def test_warm_hit_is_bit_identical_to_runner(self, toy_runner, client):
        direct = toy_runner.run("toy", x=5)  # cold: populates the cache
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 5}}
        )
        assert response.status == 200
        assert document["cached"] is True
        assert json.dumps(document["rows"]) == json.dumps(direct.rows)
        assert document["key"] == direct.key
        assert document["config"] == {"boom": False, "x": 5}

    def test_warm_hits_identical_under_concurrency(self, toy_runner, server):
        toy_runner.run("toy", x=7)
        results = []

        def hit():
            client = Client(server.port)
            _resp, document = client.request(
                "POST",
                "/v1/experiments/toy/run",
                body={"params": {"x": 7}},
                headers={"X-Request-Id": "concurrent-warm"},
            )
            document.pop("elapsed_seconds")  # per-request lookup time, nothing else varies
            results.append(json.dumps(document, sort_keys=True))

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1  # every response byte-identical

    def test_cold_run_becomes_job_then_warm(self, toy_runner, client):
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 9}}
        )
        assert response.status == 202
        job = document["job"]
        assert response.getheader("location") == f"/v1/jobs/{job['id']}"
        finished = client.wait_for_job(job["id"])
        assert finished["state"] == "done"
        (report,) = finished["reports"]
        assert report["rows"] == [{"x": 9, "y": 81}]
        # The job populated the shared cache: the same POST is now warm.
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 9}}
        )
        assert response.status == 200 and document["cached"] is True
        assert json.dumps(document["rows"]) == json.dumps(report["rows"])

    def test_validation_error_bodies(self, client):
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"bogus": 1}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "unknown_param"
        assert document["error"]["param"] == "bogus"
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": "abc"}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "invalid_type"
        assert document["error"]["expected"] == "int"
        response, document = client.request("POST", "/v1/experiments/nope/run", body={})
        assert response.status == 404
        assert document["error"]["code"] == "unknown_experiment"

    def test_malformed_bodies(self, client):
        response, document = client.request("POST", "/v1/experiments/toy/run", body="{not json")
        assert response.status == 400
        assert document["error"]["code"] == "invalid_json"
        response, document = client.request("POST", "/v1/experiments/toy/run", body=[1, 2])
        assert response.status == 400
        assert document["error"]["code"] == "invalid_body"
        response, document = client.request(
            "POST", "/v1/experiments/toy/run", body={"parms": {}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "invalid_body"


class TestJobs:
    def test_job_lifecycle_and_listing(self, client):
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "params": {"x": 3}}
        )
        assert response.status == 202
        job = document["job"]
        assert job["state"] in ("queued", "running", "done")  # may race the worker
        finished = client.wait_for_job(job["id"])
        assert finished["state"] == "done"
        assert finished["progress"]["phase"] == "done"
        assert finished["started_unix"] >= finished["created_unix"] - 1e-3
        assert finished["finished_unix"] >= finished["started_unix"]
        (report,) = finished["reports"]
        assert report["rows"] == [{"x": 3, "y": 9}]
        _response, listing = client.request("GET", "/v1/jobs")
        assert [entry["id"] for entry in listing["jobs"]] == [job["id"]]

    def test_job_failure_reports_execution_error(self, client):
        _response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "params": {"boom": True}}
        )
        finished = client.wait_for_job(document["job"]["id"])
        assert finished["state"] == "failed"
        assert finished["error"]["code"] == "execution_error"
        assert "toy experiment exploded" in finished["error"]["message"]

    def test_job_validation_is_synchronous(self, client):
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "params": {"bogus": 1}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "unknown_param"
        response, document = client.request("POST", "/v1/jobs", body={"params": {}})
        assert response.status == 400
        assert document["error"]["code"] == "invalid_body"
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "jobs": 0}
        )
        assert response.status == 400
        response, document = client.request("GET", "/v1/jobs/job-doesnotexist")
        assert response.status == 404
        assert document["error"]["code"] == "unknown_job"

    def test_sweep_job(self, client):
        _response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "grid": {"x": [1, 2, 3]}}
        )
        finished = client.wait_for_job(document["job"]["id"])
        assert finished["state"] == "done"
        sweep = finished["sweep"]
        assert sweep["cells"] == 3
        assert [record["y"] for record in sweep["records"]] == [1, 4, 9]

    def test_sweep_job_rejects_bad_grid(self, client):
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "grid": {"bogus": [1]}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "unknown_param"
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "all", "grid": {"x": [1]}}
        )
        assert response.status == 400
        response, document = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "grid": {"x": [1, 2]}, "params": {"x": 3}}
        )
        assert response.status == 400
        assert document["error"]["code"] == "invalid_param"

    def test_idempotency_key_collapses_duplicates(self, client):
        submission = {"experiment": "toy", "params": {"x": 11}}
        headers = {"Idempotency-Key": "retry-abc"}
        response, first = client.request("POST", "/v1/jobs", body=submission, headers=headers)
        assert response.status == 202 and first["created"] is True
        response, second = client.request("POST", "/v1/jobs", body=submission, headers=headers)
        assert response.status == 200 and second["created"] is False
        assert second["job"]["id"] == first["job"]["id"]
        # Same key, different payload: conflict, never silent reuse.
        response, conflict = client.request(
            "POST", "/v1/jobs", body={"experiment": "toy", "params": {"x": 12}}, headers=headers
        )
        assert response.status == 409
        assert conflict["error"]["code"] == "idempotency_conflict"

    def test_run_endpoint_idempotency_for_cold_submissions(self, toy_runner, client):
        headers = {"Idempotency-Key": "cold-run-1"}
        _response, first = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 13}}, headers=headers
        )
        client.wait_for_job(first["job"]["id"])
        # Clear the cache so the retry is cold again and must collapse.
        toy_runner.cache.clear()
        _response, second = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 13}}, headers=headers
        )
        assert second["job"]["id"] == first["job"]["id"]


class TestRateLimit:
    def test_429_with_retry_after_and_health_exempt(self, toy_runner):
        app = build_app(toy_runner, rate_limit=0.001, rate_burst=2)
        with BackgroundServer(app) as server:
            client = Client(server.port)
            statuses = [client.request("GET", "/v1/experiments")[0].status for _ in range(4)]
            assert statuses[:2] == [200, 200]
            assert statuses[2] == statuses[3] == 429
            response, document = client.request("GET", "/v1/experiments")
            assert int(response.getheader("retry-after")) >= 1
            assert document["error"]["code"] == "rate_limited"
            # Health probes must never be limited.
            health = [client.request("GET", "/v1/health")[0].status for _ in range(5)]
            assert health == [200] * 5
            # Every non-health route is limited -- including metrics itself,
            # so read the snapshot in-process for the counter assertion.
            response, _document = client.request("GET", "/v1/metrics")
            assert response.status == 429
            assert app.metrics.snapshot()["requests"]["rate_limited"] == 4


class TestMetrics:
    def test_counters_are_consistent(self, toy_runner, client):
        toy_runner.run("toy", x=4)
        client.request("GET", "/v1/health")
        client.request("POST", "/v1/experiments/toy/run", body={"params": {"x": 4}})  # hit
        _response, submitted = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 21}}
        )  # miss -> job
        client.wait_for_job(submitted["job"]["id"])
        response, metrics = client.request("GET", "/v1/metrics")
        assert response.status == 200
        assert metrics["cache"] == {"hits": 1, "misses": 1, "warm_hits": 0}
        run_route = metrics["requests"]["by_route"]["POST /v1/experiments/{name}/run"]
        assert run_route == {"200": 1, "202": 1}
        assert metrics["jobs"]["done"] == 1 and metrics["jobs"]["in_flight"] == 0
        # Totals count every request handled before this snapshot.
        polls = metrics["requests"]["by_route"]["GET /v1/jobs/{id}"]
        expected_total = 1 + 2 + sum(polls.values())
        assert metrics["requests"]["total"] == expected_total
        histogram = metrics["latency"]["GET /v1/health"]
        assert histogram["count"] == 1
        assert histogram["p50_ms"] <= histogram["max_ms"] + 1e-9 or histogram["p50_ms"] <= 10000

    def test_uptime_advances(self, client):
        _response, first = client.request("GET", "/v1/metrics")
        time.sleep(0.02)
        _response, second = client.request("GET", "/v1/metrics")
        assert second["uptime_seconds"] >= first["uptime_seconds"]


class TestWarmL1:
    def test_repeat_probes_serve_from_memory_bit_identically(self, toy_runner, client):
        toy_runner.run("toy", x=6)  # cold: populates the disk store
        _resp, first = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 6}}
        )
        _resp, second = client.request(
            "POST", "/v1/experiments/toy/run", body={"params": {"x": 6}}
        )
        assert json.dumps(first["rows"]) == json.dumps(second["rows"])
        assert first["key"] == second["key"]
        _resp, metrics = client.request("GET", "/v1/metrics")
        # First probe hit the disk store (and populated the L1); the
        # second was served from memory without a disk read.
        assert metrics["cache"] == {"hits": 2, "misses": 0, "warm_hits": 1}

    def test_zero_budget_disables_the_memory_layer(self, toy_runner, monkeypatch):
        from repro.service.routes import build_app as build

        monkeypatch.setenv("REPRO_WARM_CACHE_BYTES", "0")
        app = build(toy_runner)
        try:
            assert app.warm_cache is None
        finally:
            app.close()

    def test_metrics_expose_persisted_store_counters(self, toy_runner, client):
        toy_runner.run("toy", x=11)  # one cold fill: a miss + a won claim
        _resp, metrics = client.request("GET", "/v1/metrics")
        stores = metrics["stores"]
        assert stores["root"] == str(toy_runner.cache.root)
        assert stores["result_misses"] == 1
        assert stores["result_claims"] == 1


#: Reduced-but-real workloads for the capstone diff (CLI vs HTTP) below.
ALL_EXPERIMENTS_SMALL = {
    "table1": {"samples": "40", "seed": "11"},
    "fig2": {"samples": "40", "seed": "11"},
    "fig3": {"samples": "40", "seed": "11", "rmse_samples": "50"},
    "fig4": {"input_length": "24", "taps": "5", "simd_widths": "8"},
    "table2": {"input_length": "24", "taps": "5", "simd_widths": "8"},
    "fig6": {
        "train_samples": "60",
        "test_samples": "20",
        "image_size": "16",
        "epochs": "1",
        "evaluation_samples": "8",
        "input_size": "63",
        "seed": "5",
    },
    "fig8": {},
    "table3": {},
}


class TestCliHttpBitIdentity:
    def test_warm_service_rows_match_cli_json_for_every_experiment(self, tmp_path, capsys):
        """The acceptance diff: one cache, CLI cold then CLI+HTTP warm, byte-equal."""
        cache_dir = tmp_path / "cache"
        cli_documents = {}
        for name, params in ALL_EXPERIMENTS_SMALL.items():
            argv = ["run", name, "--json", "--cache-dir", str(cache_dir)]
            for key, value in params.items():
                argv += ["--param", f"{key}={value}"]
            assert main(argv) == 0  # cold: computes and caches
            capsys.readouterr()
            assert main(argv) == 0  # warm: replays from the cache
            cli_documents[name] = json.loads(capsys.readouterr().out)[name]
        runner = ExperimentRunner(cache=ResultCache(cache_dir))
        with BackgroundServer(build_app(runner)) as server:
            client = Client(server.port)
            for name, params in ALL_EXPERIMENTS_SMALL.items():
                spec = runner.spec(name)
                typed = {key: spec.params[key].parse(value) for key, value in params.items()}
                body = {
                    "params": {
                        key: list(value) if isinstance(value, tuple) else value
                        for key, value in typed.items()
                    }
                }
                response, document = client.request(
                    "POST", f"/v1/experiments/{name}/run", body=body
                )
                assert response.status == 200, (name, document)
                assert document["cached"] is True
                assert json.dumps(document["rows"]) == json.dumps(cli_documents[name]["rows"]), name
                assert document["key"] == cli_documents[name]["key"], name
                assert document["config"] == cli_documents[name]["config"], name


class TestServeCommand:
    def test_cli_serve_wires_flags_into_the_app(self, tmp_path, monkeypatch):
        # `python -m repro serve` must hand a fully-configured app to the
        # blocking loop; the loop itself is swapped out so nothing binds.
        import repro.service as service

        captured = {}

        def fake_serve_forever(app, *, host, port):
            captured["app"], captured["host"], captured["port"] = app, host, port
            app.close()
            return 0

        monkeypatch.setattr(service, "serve_forever", fake_serve_forever)
        exit_code = main(
            [
                "serve",
                "--host", "127.0.0.2",
                "--port", "9999",
                "--jobs", "2",
                "--rate-limit", "5",
                "--rate-burst", "7",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert exit_code == 0
        assert (captured["host"], captured["port"]) == ("127.0.0.2", 9999)
        app = captured["app"]
        assert app.limiter is not None
        assert app.limiter.rate == 5.0 and app.limiter.burst == 7
        assert app.jobs.default_jobs == 2
        assert str(app.runner.cache.root).startswith(str(tmp_path))
