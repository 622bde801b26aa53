"""``serve-mixed``: reads beside writes on a ``repro serve`` process.

One load process (this one) drives the server with two closed-loop client
threads that move in lock-step.  Each client owns one dataset it uploaded
(ncvoter-like and flight-like, 8000 rows x 10 attributes) and repeats a
fixed cycle:
``/discover`` at ε = 0.1 (a result-cache hit), ε = 0.05 and ε = 0 (cache
misses served by the warm session), then an append of 40 rows with
revalidation at ε = 0.1.  The first, cold ``/discover`` of each dataset is
a warm-up before the timed window.
"""

from __future__ import annotations

import http.client
import itertools
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import env
import inputs
import tracing

TOKEN = "perfbench"
CYCLE = (("discover", 0.1), ("discover", 0.05), ("discover", 0.0),
         ("append", 0.1))
SETUP_REPEATS = 3
#: The traced run's untraced window runs on until it holds this many
#: ``/discover`` samples, so that ten lie beyond the p90.
MIN_DISCOVERS = 100


class Server:
    """A ``repro serve`` subprocess with default admission settings."""

    def __init__(self, trace_out: Optional[str] = None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        argv = [sys.executable, str(env.BENCH_DIR / "launcher.py")]
        if trace_out:
            argv += ["--trace-out", trace_out]
        argv += ["--", "--port", str(self.port), "--auth-token", TOKEN]
        self._log = open(env.OUT / f"server-{self.port}.log", "wb")
        self.process = subprocess.Popen(
            argv, env=env.child_env(), cwd=str(env.ROOT),
            stdout=self._log, stderr=subprocess.STDOUT)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise env.BenchError("server exited during start-up")
            try:
                status, _, _ = request(self.port, "GET", "/healthz", timeout=5)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise env.BenchError("server did not answer /healthz")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()
        if self.process.returncode == 0:
            Path(self._log.name).unlink()


def request(port: int, method: str, path: str, body=None, timeout=120.0):
    """One HTTP request; returns ``(status, seconds, payload_bytes)``."""
    headers = {"Authorization": f"Bearer {TOKEN}"}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        start = time.perf_counter()
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        return response.status, time.perf_counter() - start, payload
    finally:
        connection.close()


class Pacer:
    """Keeps the clients in step: both send step ``i`` of the cycle
    together, and they stop together at a cycle boundary once the window
    is over (and, when asked, enough ``/discover`` samples exist).

    Lock-step removes the random phase between the two clients' cycles,
    which would otherwise decide run by run whether a discovery contends
    with the other client's append.
    """

    def __init__(self, clients: List["Client"], stop_at: float,
                 min_discovers: int) -> None:
        self.clients, self.stop_at = clients, stop_at
        self.min_discovers = min_discovers
        self.step = 0
        self.stop = False
        self.barrier = threading.Barrier(len(clients), action=self._advance)

    def _advance(self) -> None:
        # Runs once per step, while every client waits at the barrier.
        if self.step % len(CYCLE) == 0 and time.perf_counter() >= self.stop_at:
            discovers = sum(1 for c in self.clients for s in c.samples
                            if s[0] == "discover")
            self.stop = discovers >= self.min_discovers
        self.step += 1


class Client(threading.Thread):
    """A closed-loop client owning one dataset: it sends its next request
    only after the previous one has completed (and the other client has
    finished the same step, see :class:`Pacer`)."""

    def __init__(self, port: int, name: str, table: inputs.Table) -> None:
        super().__init__(name=f"client-{name}", daemon=True)
        self.port, self.dataset, self.table = port, name, table
        self.appended = 0
        self.samples: List[tuple] = []  # (kind, threshold, seconds, status)
        self.errors: List[str] = []
        self.pacer: Optional[Pacer] = None
        self.finished = 0.0

    def upload(self) -> None:
        body = {"attributes": self.table.names,
                "rows": self.table.rows(0, inputs.SERVE_BASE_ROWS)}
        status, _, payload = request(self.port, "PUT",
                                     f"/datasets/{self.dataset}", body)
        if status != 201:
            raise env.BenchError(f"upload of {self.dataset} failed: {payload[:300]!r}")

    def discover(self, threshold: float):
        return request(self.port, "POST", "/discover", {
            "dataset": self.dataset, "request": {"threshold": threshold}})

    def _append(self, threshold: float):
        if self.appended >= inputs.SERVE_APPEND_BATCHES:
            raise env.BenchError("append rows exhausted")
        start = inputs.SERVE_BASE_ROWS + self.appended * inputs.SERVE_APPEND_ROWS
        rows = self.table.rows(start, start + inputs.SERVE_APPEND_ROWS)
        reply = request(self.port, "POST", f"/datasets/{self.dataset}/append",
                        {"rows": rows, "request": {"threshold": threshold}})
        if reply[0] == 200:
            self.appended += 1
        return reply

    def run(self) -> None:
        try:
            for step in itertools.count():
                self.pacer.barrier.wait(timeout=170)
                if self.pacer.stop:
                    return
                kind, threshold = CYCLE[step % len(CYCLE)]
                call = self.discover if kind == "discover" else self._append
                status, seconds, payload = call(threshold)
                self.samples.append((kind, threshold, seconds, status))
                if status != 200:
                    print(f"{self.dataset} {kind} answered {status}: "
                          f"{payload[:200]!r}", file=sys.stderr)
        except (OSError, env.BenchError, threading.BrokenBarrierError) as error:
            self.errors.append(repr(error))
            self.pacer.barrier.abort()
        finally:
            self.finished = time.perf_counter()


def _start(tables, trace_out=None):
    """Spawn a server and upload both datasets; returns (server, clients,
    seconds from spawn to ready)."""
    start = time.perf_counter()
    server = Server(trace_out)
    try:
        server.wait_healthy()
        clients = [Client(server.port, name, table)
                   for name, table in sorted(tables.items())]
        for client in clients:
            client.upload()
    except BaseException:
        server.stop()
        raise
    return server, clients, time.perf_counter() - start


def _cache_stats(port: int) -> Dict[str, int]:
    status, _, payload = request(port, "GET", "/healthz")
    if status != 200:
        raise env.BenchError("healthz failed")
    return json.loads(payload).get("result_cache", {})


class Window:
    """One timed window of both clients on a fresh, warmed-up server."""

    def __init__(self, tables, seconds: float, trace_out=None,
                 min_discovers: int = 0) -> None:
        self.server, self.clients, self.setup_s = _start(tables, trace_out)
        try:
            self.cold = self._warm_up()
            self.cache_before = _cache_stats(self.server.port)
            self.start = time.perf_counter()
            pacer = Pacer(self.clients, self.start + seconds, min_discovers)
            for client in self.clients:
                client.pacer = pacer
                client.start()
            for client in self.clients:
                client.join(timeout=170)
                if client.is_alive():
                    raise env.BenchError("a client did not finish")
            self.end = max(client.finished for client in self.clients)
            self.cache_after = _cache_stats(self.server.port)
            self.peak_rss_mb = env.vm_hwm_mb(self.server.process.pid)
        except BaseException:
            self.server.stop()
            raise

    def _warm_up(self) -> List[float]:
        """Each client's first (cold) discovery, one after the other, so
        the server's memory peak does not depend on how two cold runs
        happen to overlap."""
        seconds = []
        for client in self.clients:
            status, elapsed, payload = client.discover(0.1)
            if status != 200:
                raise env.BenchError(f"warm-up discover failed: {payload[:200]!r}")
            seconds.append(elapsed)
        return seconds

    @property
    def samples(self) -> List[tuple]:
        return [s for client in self.clients for s in client.samples]

    @property
    def errors(self) -> List[str]:
        return [e for client in self.clients for e in client.errors]

    def latencies(self, kind: str) -> List[float]:
        return [s[2] for s in self.samples if s[0] == kind and s[3] == 200]

    def client_median_discover(self) -> float:
        """Mean over clients of each client's median ``/discover`` latency.

        Each client's samples form three equal clusters (cache hit,
        ε = 0.05, ε = 0), so its median sits inside the middle one; pooled
        over two datasets of different cost, six equal clusters would put
        the median on a boundary between two of them, where it jumps.
        """
        return statistics.fmean(
            env.median([s[2] for s in client.samples
                        if s[0] == "discover" and s[3] == 200])
            for client in self.clients)

    def ops_per_s(self) -> float:
        done = sum(1 for s in self.samples if s[3] == 200)
        return done / (self.end - self.start)

    def check(self) -> None:
        """Each dataset's final result equals in-process ``discover_aods``
        over the concatenated table, byte for byte."""
        import repro

        for client in self.clients:
            status, _, payload = client.discover(0.1)
            if status != 200:
                raise env.BenchError(f"final discover failed: {payload[:200]!r}")
            served = json.loads(payload)
            rows = inputs.SERVE_BASE_ROWS + client.appended * inputs.SERVE_APPEND_ROWS
            relation = repro.Relation.from_rows(client.table.rows(0, rows),
                                                client.table.names)
            local = repro.discover_aods(relation, threshold=0.1).to_dict()
            for key in ("num_rows", "attributes", "ocs", "ofds"):
                if json.dumps(served[key], sort_keys=True) != \
                        json.dumps(local[key], sort_keys=True):
                    raise env.BenchError(
                        f"{client.dataset}: served {key} differ from in-process "
                        f"discovery over {rows} rows")


def _step_medians(samples) -> Dict[str, float]:
    steps: Dict[str, List[float]] = {}
    for kind, threshold, seconds, _ in samples:
        steps.setdefault(f"{kind}@{threshold}", []).append(seconds)
    return {step: round(statistics.median(v) * 1000, 1) for step, v in steps.items()}


def run(workload: str, seed: int, seconds: float, trace: bool):
    tables = inputs.workload_tables(workload, seed)
    recorded = inputs.check_inputs(workload, seed, tables)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server, _, setup_s = _start(tables)
        server.stop()
        setups.append(setup_s)
    plain = Window(tables, seconds, min_discovers=MIN_DISCOVERS if trace else 0)
    try:
        setups.append(plain.setup_s)
        plain.check()
    finally:
        plain.server.stop()
    attempted = len(plain.samples) + len(plain.errors)
    failed = sum(1 for s in plain.samples if s[3] != 200) + len(plain.errors)
    for error in plain.errors:
        print(f"client error: {error}", file=sys.stderr)
    discovers = plain.latencies("discover")
    appends = plain.latencies("append")
    print(f"{workload} seed={seed}: {attempted} requests "
          f"({len(discovers)} discover, {len(appends)} append) in "
          f"{plain.end - plain.start:.1f} s, cold discover "
          f"{[round(s, 2) for s in plain.cold]} s, setups "
          f"{[round(s, 2) for s in setups]} s, median ms by step "
          f"{_step_medians(plain.samples)}, inputs digest "
          f"{'checked' if recorded else 'not recorded; canary checked'}")
    if not trace:
        return attempted, failed, {
            "setup_s": statistics.median(setups),
            "discover_s": plain.client_median_discover(),
            "ops_per_s": plain.ops_per_s(),
            "peak_rss_mb": plain.peak_rss_mb,
        }
    metrics = {
        "serve.discover_p50_ms": env.median(discovers) * 1000,
        "serve.discover_p90_ms": env.percentile(discovers, 90) * 1000,
        "serve.append_p50_ms": env.median(appends) * 1000,
        "serve.cold_discover_ms": env.median(plain.cold) * 1000,
    }
    metrics.update(_traced(tables, seconds, seed, plain.ops_per_s()))
    return attempted, failed, metrics


def _traced(tables, seconds: float, seed: int, untraced_ops_per_s: float):
    """A second window on a server started with the span wrappers."""
    trace_file = env.OUT / f"trace-serve-mixed-{seed}.json"
    window = Window(tables, seconds, trace_out=str(trace_file))
    window.server.stop()
    if window.errors or any(s[3] != 200 for s in window.samples):
        raise env.BenchError("requests failed in the traced window")
    with open(trace_file, encoding="utf-8") as handle:
        trace = json.load(handle)
    if trace["missing"]:
        print(f"not traced (missing): {trace['missing']}", file=sys.stderr)
    tree = tracing.SpanTree(trace["spans"], "serve.request",
                            window=(window.start, window.end))
    requests = len(window.samples)
    if len(tree.roots) != requests:
        raise env.BenchError(
            f"traced server saw {len(tree.roots)} requests, clients sent {requests}")
    client_wall = sum(s[2] for s in window.samples)
    server_wall = tree.wall()
    ledger = tree.ledger()
    ledger["serve.transport"] = client_wall - server_wall
    if abs(sum(ledger.values()) - client_wall) > 0.05 * client_wall:
        raise env.BenchError("layer ledger does not add up to client wall time")
    stats = [s for s in trace["stats"] if window.start <= s["at"] <= window.end]
    metrics = tracing.layer_metrics(tree, stats, requests)
    hits = window.cache_after.get("hits", 0) - window.cache_before.get("hits", 0)
    misses = window.cache_after.get("misses", 0) - window.cache_before.get("misses", 0)
    metrics.update({
        "serve.handler_s": tree.inclusive("serve.handler") / requests,
        "serve.admission_wait_s": tree.inclusive("serve.admission_wait") / requests,
        "serve.serialize_s": tree.inclusive("serve.serialize") / requests,
        "serve.result_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.transport_ms": (client_wall - server_wall) / requests * 1000,
        "trace.unattributed_share": ledger.get("serve.request", 0.0) / client_wall,
        "trace.overhead_share": untraced_ops_per_s / window.ops_per_s() - 1.0,
    })
    print("ledger (s per request): " + ", ".join(
        f"{name} {value / requests:.4f}"
        for name, value in sorted(ledger.items(), key=lambda kv: -kv[1])))
    return metrics
