"""Shared machinery of the whole-process benchmark.

Everything here is stdlib-only and never imports ``repro`` at module level:
the benchmark times ``python -m repro`` *processes*, so the harness must not
pay (or hide) the package's import cost in its own process.

Pieces:

* hermetic children -- :func:`scrubbed_env` builds the only environment a
  child sees (no inherited ``REPRO_*`` variables, ``HOME``/``TMPDIR`` inside
  the run directory) and :func:`run_child` times one process with the
  kernel's own accounting (``wait4`` rusage: CPU of the child and everything
  it reaped, and its peak RSS);
* store state -- :func:`restore` copies a snapshot byte-identically;
  :func:`ensure_state` builds, once per source tree, the filled snapshot and
  the reference documents every workload is checked against;
* correctness -- :func:`normalise`, :func:`canonical` and :func:`digest`
  define what "the same output" means; :func:`check_replies` counts HTTP
  failures;
* statistics -- :func:`high_percentile` picks the highest percentile that
  still has ten samples beyond it;
* seeded inputs -- :func:`sweep_seeds` and :func:`request_orders`;
* the HTTP side -- :class:`Server` (one ``repro serve`` child) and
  :func:`closed_loop` (keep-alive clients that each wait for their reply).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Iterator, Mapping, Sequence

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".bench_build" / "perfbench"

#: The eight experiments of ``run all``, registry order.
EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "table2", "fig6", "fig8", "table3")
#: Lines of stats history the warm snapshot carries (``record_stats`` re-reads
#: the whole log on every run, so its length is part of the workload).
STATS_HISTORY_LINES = 1000
#: Cells of the ``sweep_fill`` grid.
SWEEP_CELLS = 128
#: Environment variables that set BLAS/OpenMP thread pools; passed through to
#: children unchanged and recorded in the provenance stamp.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Percentiles tried, highest first, by :func:`high_percentile`.  Coarse on
#: purpose: a run's sample count drifts a little, and a finer ladder would
#: let the reported percentile flip between runs of one workload.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
#: Samples a reported percentile must have beyond it.
TAIL_SAMPLES = 10
#: Longest any single child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 60.0
#: Iterations of the calibration loop (a few ms of pure-Python work).
CALIBRATION_LOOP = 100_000
#: Runs of the calibration loop per probe; the fastest one counts.
CALIBRATION_REPEATS = 5
#: The calibration loop's time on the reference host (2-vCPU VM, Python 3.11)
#: while its CPU runs at full speed.  Host-scaled times are in the seconds of
#: that host; see :func:`run_calibrated`.
REFERENCE_CALIBRATION_S = 0.0060


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child never started)."""


@dataclass
class Outcome:
    """What one run measured: operation counts, metric values, human notes."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def require_source() -> None:
    """Fail unless the checkout holds the package the benchmark measures."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {SRC}; run from a full checkout")


def import_repro(cache_dir: Path) -> None:
    """Make ``src/`` importable in this process, hermetically (traced runs only).

    In-process calls read ``REPRO_CACHE_DIR``, ``REPRO_FAULTS`` and friends,
    so inherited ``REPRO_*`` settings are dropped here too, and the default
    cache root points inside the run directory: ``~/.cache/dvafs-repro``
    stays untouched.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- hermetic children ---------------------------------------------------------------


def scrubbed_env(run_dir: Path, cache_dir: Path) -> dict[str, str]:
    """The complete environment of every child: nothing else leaks in."""
    home = run_dir / "home"
    tmp = run_dir / "tmp"
    home.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(home),
        "TMPDIR": str(tmp),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE_DIR": str(cache_dir),
    }
    env.update(blas_threads())
    return env


def blas_threads() -> dict[str, str]:
    """BLAS/OpenMP thread settings of every child: inherited, else one thread.

    Measured children run pinned to one CPU (:func:`run_calibrated`), where
    a second BLAS thread could only contend with the first.
    """
    return {name: os.environ.get(name, "1") for name in BLAS_THREAD_VARS}


@dataclass
class Child:
    """One finished child process and what the kernel accounted to it."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: Path
    stderr: Path
    #: Calibration loop time on the child's CPU around its run (run_calibrated only).
    calibration_s: float | None = None

    @property
    def host_scale(self) -> float:
        """Factor that maps this child's times onto the reference host at full speed."""
        if self.calibration_s is None:
            raise ValueError("child was not calibrated")
        return REFERENCE_CALIBRATION_S / self.calibration_s


def _kill_after(proc: subprocess.Popen, seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _reap(proc: subprocess.Popen) -> tuple[int, os.struct_rusage] | None:
    """``wait4`` the child: (exit code, rusage), or ``None`` if already reaped."""
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:
        return None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(
    argv: Sequence[str],
    *,
    env: Mapping[str, str],
    cwd: Path,
    name: str,
    timeout: float = CHILD_TIMEOUT_S,
) -> Child:
    """Run one child to completion, stdout/stderr to files under ``cwd``.

    Wall time spans spawn to reap.  CPU and peak RSS come from ``wait4``,
    which covers the child and every process it waited for (``--jobs``
    workers included), so work moved onto workers still shows in ``cpu_s``.
    """
    stdout = cwd / f"{name}.out"
    stderr = cwd / f"{name}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=dict(env), cwd=cwd)
        timer = _kill_after(proc, timeout)
        try:
            reaped = _reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    if reaped is None:  # pragma: no cover - nothing else reaps our children
        raise BenchmarkError(f"child {name} vanished before it was reaped")
    returncode, usage = reaped
    return Child(
        returncode=returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=stdout,
        stderr=stderr,
    )


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# -- store state ---------------------------------------------------------------------


def restore(snapshot: Path, target: Path) -> None:
    """Replace ``target`` with a byte-identical copy of ``snapshot``.

    Modification times travel too (``copy2``): the stores' LRU order is
    read from the ``.atime`` sidecars' stamps.
    """
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(snapshot, target, symlinks=True, copy_function=shutil.copy2)


def source_sha256() -> str:
    """Digest of every ``.py`` file under ``src/`` and ``perfbench/``.

    Keys the cached state: any code change (the program's or the
    benchmark's) rebuilds the snapshot and the references.
    """
    digest = hashlib.sha256(sys.version.encode())
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# -- correctness ---------------------------------------------------------------------

#: Report fields that legitimately differ between two runs of the same code.
VOLATILE_FIELDS = ("elapsed_seconds",)
#: Fields a digest covers: what was computed, for which config, at which address.
DIGEST_FIELDS = ("experiment", "key", "config", "rows")


def normalise(document: Mapping[str, object]) -> dict[str, object]:
    """A report document minus its run-dependent timing field."""
    return {name: value for name, value in document.items() if name not in VOLATILE_FIELDS}


def canonical(value: object) -> str:
    """Deterministic JSON text: the equality every check uses (NaN-safe)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(document: Mapping[str, object]) -> str:
    """sha256 over a report's experiment, key, config and rows."""
    picked = {name: document.get(name) for name in DIGEST_FIELDS}
    return hashlib.sha256(canonical(picked).encode()).hexdigest()


#: The per-request values of a warm reply body (``json.dumps(..., indent=1)``
#: puts each top-level field on its own line).
_VOLATILE_VALUES = re.compile(rb'^( "(?:elapsed_seconds|request_id)": )[^\n]*?(,?)$', re.MULTILINE)


def stable_body(body: bytes) -> bytes:
    """A reply body with its per-request values zeroed; still valid JSON.

    Warm replies of one experiment then share identical bytes, so the
    client keeps one copy of each and :func:`check_replies` parses each
    distinct body once.
    """
    return _VOLATILE_VALUES.sub(rb"\g<1>0\g<2>", body)


@dataclass
class Reply:
    """One HTTP request as the client saw it (body passed through :func:`stable_body`)."""

    experiment: str
    status: int
    latency_s: float
    body: bytes


def _reply_ok(experiment: str, body: bytes, reference: Mapping[str, str]) -> bool:
    try:
        document = json.loads(body)
    except ValueError:
        return False
    if not isinstance(document, dict):
        return False
    document.pop("request_id", None)
    return canonical(normalise(document)) == reference.get(experiment)


def check_replies(replies: Sequence[Reply], reference: Mapping[str, str]) -> int:
    """Failed replies: non-200, unparsable, answered cold, or rows differ.

    ``reference`` maps each experiment to the canonical normalised warm CLI
    report; a warm HTTP hit must serve exactly that document (plus its
    request id).
    """
    verdicts: dict[tuple[str, bytes], bool] = {}
    failed = 0
    for reply in replies:
        if reply.status != 200:
            failed += 1
            continue
        address = (reply.experiment, stable_body(reply.body))
        if address not in verdicts:
            verdicts[address] = _reply_ok(*address, reference)
        failed += not verdicts[address]
    return failed


# -- statistics ----------------------------------------------------------------------


def high_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with 10 samples beyond.

    Nearest-rank percentiles: the value at rank ``ceil(p/100 * n)`` has
    ``n - rank`` samples above it.  With too few samples for even the
    median to qualify, the median is returned.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in PERCENTILE_LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if count - rank >= TAIL_SAMPLES:
            return percentile, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


# -- seeded inputs -------------------------------------------------------------------


def sweep_seeds(seed: int, cells: int = SWEEP_CELLS) -> list[int]:
    """The ``sweep_fill`` grid: distinct driver seeds drawn from the workload seed."""
    return random.Random(f"sweep:{seed}").sample(range(1, 1_000_000), cells)


def request_orders(seed: int, connection: int) -> Iterator[tuple[str, ...]]:
    """One connection's rounds: each a seeded permutation of the 8 experiments."""
    rng = random.Random(f"http:{seed}:{connection}")
    while True:
        yield tuple(rng.sample(EXPERIMENTS, len(EXPERIMENTS)))


# -- provenance ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance() -> dict[str, object]:
    """Machine and code stamp carried by every result: compare like with like."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
        "source_sha256": source_sha256(),
    }


# -- reference state -----------------------------------------------------------------


@dataclass
class State:
    """The per-source-tree fixtures every run of every workload shares."""

    snapshot: Path
    #: experiment -> canonical normalised warm report (what warm runs must print)
    warm: dict[str, str]
    #: experiment -> digest of the report (what cold runs must print)
    digests: dict[str, str]
    stats_log_lines: int
    #: artifact -> keys of its entries in the snapshot
    artifacts: dict[str, list[str]]


def _load_state(path: Path) -> State:
    document = json.loads((path / "reference.json").read_text())
    return State(
        snapshot=path / "snapshot",
        warm=document["warm"],
        digests=document["digests"],
        stats_log_lines=document["stats_log_lines"],
        artifacts=document["artifacts"],
    )


def read_reports(stdout: Path) -> dict[str, dict[str, object]]:
    """The ``run --json`` document: experiment -> report."""
    document = json.loads(stdout.read_text())
    if not isinstance(document, dict):
        raise ValueError("run --json printed no object")
    return document


def warm_reports_ok(stdout: Path, state: State) -> bool:
    """A warm ``run all --json`` printed exactly the reference warm reports."""
    reports = read_reports(stdout)
    return sorted(reports) == sorted(EXPERIMENTS) and all(
        canonical(normalise(reports[name])) == state.warm[name] for name in EXPERIMENTS
    )


def reference_child(args: Sequence[str], *, env: Mapping[str, str], cwd: Path) -> object:
    """Run ``reference.py`` with ``args`` in a child and return its JSON document."""
    child = run_child(
        [sys.executable, str(Path(__file__).with_name("reference.py")), *args],
        env=env, cwd=cwd, name="reference",
    )
    if child.returncode != 0:
        raise BenchmarkError(f"reference.py {args[0]} failed: {child.stderr.read_text()[-2000:]}")
    return json.loads(child.stdout.read_text())


def _build_state(target: Path) -> None:
    """Fill a snapshot from empty and derive the references (once per tree)."""
    building = target.with_name(f"{target.name}.building-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    try:
        snapshot = building / "snapshot"
        env = scrubbed_env(building, snapshot)
        cold = run_child(
            repro_argv("run", "all", "--json", "--jobs", "1", "--cache-dir", str(snapshot)),
            env=env, cwd=building, name="cold",
        )
        if cold.returncode != 0:
            raise BenchmarkError(f"cold fill failed: {cold.stderr.read_text()[-2000:]}")
        cold_reports = read_reports(cold.stdout)
        reference_rows = reference_child(["direct"], env=scrubbed_env(building, building / "scratch"), cwd=building)
        for name in EXPERIMENTS:
            if canonical(cold_reports[name]["rows"]) != reference_rows[name]:
                raise BenchmarkError(f"{name}: cached-path rows differ from a direct driver call")
        # One warm run on a scratch copy yields the warm reports and the stats
        # delta line a warm run appends; the snapshot's history is padded to
        # a fixed length with that line.
        probe = building / "probe"
        restore(snapshot, probe)
        warm = run_child(
            repro_argv("run", "all", "--json", "--cache-dir", str(probe)),
            env=scrubbed_env(building, probe), cwd=building, name="warm",
        )
        if warm.returncode != 0:
            raise BenchmarkError(f"warm probe failed: {warm.stderr.read_text()[-2000:]}")
        warm_reports = read_reports(warm.stdout)
        for name in EXPERIMENTS:
            if not warm_reports[name]["cached"] or digest(warm_reports[name]) != digest(cold_reports[name]):
                raise BenchmarkError(f"{name}: warm replay differs from the cold fill")
        log = snapshot / "_stats.jsonl"
        cold_lines = log.read_text().splitlines(keepends=True)
        warm_line = (probe / "_stats.jsonl").read_text().splitlines(keepends=True)[-1]
        log.write_text("".join(cold_lines + [warm_line] * (STATS_HISTORY_LINES - len(cold_lines))))
        shutil.rmtree(probe)
        artifacts = {
            directory.name: sorted(path.stem for path in directory.glob("*.pkl"))
            for directory in sorted((snapshot / "artifacts").iterdir())
            if directory.is_dir()
        }
        reference = {
            "warm": {name: canonical(normalise(warm_reports[name])) for name in EXPERIMENTS},
            "digests": {name: digest(cold_reports[name]) for name in EXPERIMENTS},
            "stats_log_lines": STATS_HISTORY_LINES,
            "artifacts": artifacts,
        }
        (building / "reference.json").write_text(json.dumps(reference, indent=1))
        for leftover in ("home", "tmp", "scratch"):
            shutil.rmtree(building / leftover, ignore_errors=True)
        try:
            building.rename(target)
        except OSError:  # a concurrent run finished first; keep its copy
            shutil.rmtree(building, ignore_errors=True)
    except BaseException:
        shutil.rmtree(building, ignore_errors=True)
        raise


def ensure_state() -> State:
    """The cached fixtures for this source tree, built on first use."""
    target = WORK / f"state-{source_sha256()[:16]}"
    if not (target / "reference.json").is_file():
        _build_state(target)
    return _load_state(target)


# -- the HTTP side -------------------------------------------------------------------

_PORT_LINE = re.compile(rb"http://[^:/\s]+:(\d+)")


class Server:
    """One ``python -m repro serve`` child on an ephemeral port.

    ``setup_s`` is spawn-to-first-200 of ``/v1/health/ready``: interpreter
    start, imports, fingerprints and socket bind, as a supervisor would see.
    """

    def __init__(self, *, env: Mapping[str, str], store: Path, cwd: Path, name: str, timeout: float = 60.0):
        self.stdout = cwd / f"{name}.out"
        self.stderr = cwd / f"{name}.err"
        start = time.perf_counter()
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            self.proc = subprocess.Popen(
                repro_argv(
                    "serve", "--port", "0", "--cache-dir", str(store),
                    "--state-dir", str(cwd / f"{name}-jobs"),
                ),
                stdout=out, stderr=err, env=dict(env), cwd=cwd,
            )
        try:
            deadline = start + timeout
            self.port = self._wait_port(deadline)
            self._wait_ready(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.peak_rss_mb: float | None = None

    def _wait_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            found = _PORT_LINE.search(self.stdout.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise BenchmarkError(f"repro serve exited: {self.stderr.read_text()[-2000:]}")
            time.sleep(0.002)
        raise BenchmarkError("repro serve never printed its port")

    def _wait_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/v1/health/ready")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise BenchmarkError("repro serve never became ready")

    def get_json(self, path: str) -> dict[str, object]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def cpu_s(self) -> float:
        """User+system CPU the server has used so far (``/proc`` clock ticks)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        # After the command name: state is field 3, utime/stime are fields 14/15.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, reap (peak RSS from ``wait4``), SIGKILL if it lingers."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:  # pragma: no cover - died on its own
            pass
        timer = _kill_after(self.proc, 20.0)
        try:
            reaped = _reap(self.proc)
        finally:
            timer.cancel()
        if reaped is not None:
            self.peak_rss_mb = reaped[1].ru_maxrss / 1024.0

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()


@dataclass
class LoadResult:
    replies: list[Reply]
    round_s: list[float]
    window_s: float


def _post(connection: http.client.HTTPConnection, name: str) -> tuple[int, bytes]:
    connection.request(
        "POST", f"/v1/experiments/{name}/run", body=b"{}",
        headers={"content-type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def closed_loop(port: int, seed: int, *, connections: int, seconds: float) -> LoadResult:
    """``connections`` keep-alive clients, each sending its next request on reply.

    Every client runs whole rounds (one request per experiment, seeded
    order) until the window closes; a round's wall time is the HTTP
    counterpart of one warm ``run all``.  Bodies are kept and checked after
    the window (one copy per distinct :func:`stable_body`), so checking
    never slows the loop and the client stays small.
    """
    per_client: list[tuple[list[Reply], list[float]]] = [([], []) for _ in range(connections)]
    barrier = threading.Barrier(connections + 1)
    deadline_box: list[float] = []

    def client(index: int) -> None:
        replies, rounds = per_client[index]
        interned: dict[bytes, bytes] = {}
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        orders = request_orders(seed, index)
        barrier.wait()
        deadline = deadline_box[0]
        try:
            while time.perf_counter() < deadline:
                round_start = time.perf_counter()
                for name in next(orders):
                    start = time.perf_counter()
                    try:
                        status, body = _post(connection, name)
                    except (OSError, http.client.HTTPException):
                        status, body = 0, b""
                        connection.close()
                        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    latency = time.perf_counter() - start
                    stable = stable_body(body)
                    replies.append(Reply(name, status, latency, interned.setdefault(stable, stable)))
                rounds.append(time.perf_counter() - round_start)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,), daemon=True) for index in range(connections)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline_box.append(start + seconds)
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 60)
        if thread.is_alive():
            raise BenchmarkError("an HTTP client thread did not finish")
    window = time.perf_counter() - start
    return LoadResult(
        replies=list(itertools.chain.from_iterable(replies for replies, _ in per_client)),
        round_s=list(itertools.chain.from_iterable(rounds for _, rounds in per_client)),
        window_s=window,
    )
