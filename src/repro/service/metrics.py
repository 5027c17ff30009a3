"""Thread-safe service metrics: request counters, cache hit/miss, latency.

The service records every request under its *route template* (bounded
cardinality -- ``POST /v1/experiments/{name}/run``, never the raw path)
with its status code and end-to-end latency.  Latencies land in
fixed-bucket histograms, from which ``/v1/metrics`` reports count/sum and
p50/p95/max estimates; the benchmark gate reads the same snapshot.

Everything is guarded by one lock: handlers run on the transport's
per-connection threads and jobs on worker threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds, log-ish spacing)."""

    BOUNDS_MS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

    def __init__(self):
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)  # last bucket = overflow
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1e3
        index = next(
            (i for i, bound in enumerate(self.BOUNDS_MS) if ms <= bound), len(self.BOUNDS_MS)
        )
        self.counts[index] += 1
        self.count += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def quantile_ms(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (0 with no samples)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.BOUNDS_MS):
                    return float(self.BOUNDS_MS[index])
                return self.max_ms
        return self.max_ms  # pragma: no cover - unreachable

    def snapshot(self) -> dict[str, object]:
        buckets = {f"le_{bound:g}ms": count for bound, count in zip(self.BOUNDS_MS, self.counts)}
        buckets["overflow"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_ms": round(self.sum_ms, 3),
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "p50_ms": self.quantile_ms(0.5),
            "p95_ms": self.quantile_ms(0.95),
            "max_ms": round(self.max_ms, 3),
            "buckets": buckets,
        }


class ServiceMetrics:
    """All service-side counters behind ``GET /v1/metrics``."""

    def __init__(self, *, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        self._clock = clock
        self.started_unix = clock()
        self.requests: dict[str, dict[str, int]] = {}
        self.latency: dict[str, LatencyHistogram] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_hits = 0  # hits served from the in-memory L1, no disk read
        self.rate_limited = 0
        self.shed = 0  # 503s: submissions rejected by the bounded job queue
        #: Installed by the app; reports job-state counts and in-flight gauge.
        self.job_counts: Callable[[], dict[str, int]] = lambda: {}

    def record_request(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            by_status = self.requests.setdefault(route, {})
            by_status[str(status)] = by_status.get(str(status), 0) + 1
            self.latency.setdefault(route, LatencyHistogram()).observe(seconds)
            if status == 429:
                self.rate_limited += 1
            if status == 503:
                self.shed += 1

    def record_cache(self, hit: bool, *, warm: bool = False) -> None:
        """Tally one warm-path probe; ``warm`` marks an in-memory L1 hit."""
        with self._lock:
            if hit:
                self.cache_hits += 1
                if warm:
                    self.warm_hits += 1
            else:
                self.cache_misses += 1

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            total = sum(count for by_status in self.requests.values() for count in by_status.values())
            return {
                "uptime_seconds": round(self._clock() - self.started_unix, 3),
                "requests": {
                    "total": total,
                    "by_route": {route: dict(by_status) for route, by_status in sorted(self.requests.items())},
                    "rate_limited": self.rate_limited,
                    "shed": self.shed,
                },
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "warm_hits": self.warm_hits,
                },
                "jobs": self.job_counts(),
                "latency": {route: histogram.snapshot() for route, histogram in sorted(self.latency.items())},
            }
