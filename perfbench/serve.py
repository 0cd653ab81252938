"""serve-mix: a ``repro serve --workers 2 --cache DIR`` daemon under an
open-loop Poisson schedule sent by this process over two connections.

Each request is timed from its due time, so a stall that delays later
requests is charged to them.  The daemon runs in its own processes with
telemetry on (as ``repro serve`` enables it) and a fresh cache directory
per launch.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.client import Client, ClientError, RemoteError

perf = time.perf_counter
_LISTEN = re.compile(r"listening on tcp 127\.0\.0\.1:(\d+)")


class Daemon:
    """One ``repro serve`` launch: the acceptor and its two workers."""

    def __init__(self, root: Path, work: Path, tag: str):
        self.root = root
        self.cache = work / f"cache-{tag}"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.log_path = work / f"serve-{tag}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.worker_pids: List[int] = []

    def start(self) -> Tuple[int, float]:
        """Launch, wait for the listening line, warm both workers;
        returns (port, set-up seconds)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.monotonic()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--workers", "2",
                    "--cache", str(self.cache), "--tcp", "127.0.0.1:0",
                ],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        port = None
        deadline = t0 + 60.0
        while port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start: {self.log_path.read_text()[-2000:]}")
            time.sleep(0.005)
            match = _LISTEN.search(self.log_path.read_text())
            if match:
                port = int(match.group(1))
        self.port = port
        with Client(("127.0.0.1", port), timeout=60) as client:
            self.worker_pids = list(client.stats()["fleet"]["pids"])
        warm_both(("127.0.0.1", port))
        return port, time.monotonic() - t0

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the acceptor plus workers."""
        total = 0.0
        for pid in [self.proc.pid] + self.worker_pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.port is not None:
            try:
                with Client(("127.0.0.1", self.port), timeout=10) as client:
                    client.shutdown()
            except ClientError:
                pass  # already gone: the wait below reaps it
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        for pid in self.worker_pids:
            _reap(pid)
        shutil.rmtree(self.cache, ignore_errors=True)
        self.proc = None


def _reap(pid: int) -> None:
    """Wait for a worker the acceptor should have stopped; kill it if it
    outlives the acceptor by five seconds."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


_WARM = """
struct data { v : int; }
def warm(n : int) : int { let d = new data(v = n); d.v + 1 }
"""


def warm_both(address) -> None:
    """Two connections at once, so least-inflight dispatch warms both
    workers on every method."""

    def one(k: int) -> None:
        with Client(address, timeout=60) as client:
            for j in range(2):
                source = _WARM + f"\ndef warm_{k}_{j}() : int {{ {j} }}\n"
                client.check(source, filename=f"warm{k}.fcl")
                client.verify(source, filename=f"warm{k}.fcl")
                client.run(source, "warm", [j], erased=True)

    threads = [threading.Thread(target=one, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)


def _call(client: Client, req: Dict) -> Tuple[Optional[Dict], Optional[str]]:
    try:
        params = dict(req["params"])
        if req["method"] == "run":
            params["erased"] = True
        return client.call(req["method"], params), None
    except RemoteError as exc:
        return None, exc.code
    except ClientError:
        return None, "transport"


def open_loop(address, schedule: List[Dict]) -> Tuple[List[Dict], float]:
    """Send every request at its due time over two connections; returns
    one record per request (due, sent, done in perf seconds, result or
    error) and the load's start time."""
    records: List[Optional[Dict]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    t0 = perf() + 0.05

    def sender() -> None:
        with Client(address, timeout=60) as client:
            free_at = t0
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(schedule):
                        return
                    cursor[0] += 1
                req = schedule[i]
                due = t0 + req["at"]
                delay = due - perf()
                if delay > 0:
                    time.sleep(delay)
                sent = perf()
                result, error = _call(client, req)
                done = perf()
                records[i] = {
                    "due": due, "sent": sent, "done": done,
                    "lag": sent - max(due, free_at),
                    "result": result, "error": error,
                }
                free_at = done

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    return [r if r is not None else {"error": "not sent"} for r in records], t0


def daemon_counts(address) -> Dict[str, float]:
    """Memo, certificate-cache and fleet counts from the daemon's own
    ``stats`` and ``metrics`` RPCs, and the ping round trip."""
    with Client(address, timeout=60) as client:
        pings = []
        for _ in range(30):
            t0 = perf()
            client.ping()
            pings.append((perf() - t0) * 1000.0)
        stats = client.stats()
        counters = client.metrics().get("counters", {})
    service = stats.get("service", {})
    hits, misses = service.get("memo_hits", 0), service.get("memo_misses", 0)
    c_hit = counters.get("pipeline.cache.hit", 0)
    c_miss = counters.get("pipeline.cache.miss", 0)
    c_stale = counters.get("pipeline.cache.stale", 0)
    pings.sort()
    return {
        "server.ping_ms": pings[len(pings) // 2],
        "server.memo_hit_ratio": hits / (hits + misses),
        "pipeline.cache_hit_ratio": c_hit / (c_hit + c_miss + c_stale),
        "pipeline.cache_stale": c_stale,
        "fleet.worker_restarts": stats.get("fleet", {}).get("restarts", 0),
    }


def replay(schedule: List[Dict], work: Path, spans) -> Dict[str, Dict[str, float]]:
    """The same requests in-process through ``Service.dispatch``, each
    on four fresh services (and caches) in rotating order: ``off``;
    ``spans`` (off, inside the benchmark's ``server.<method>`` spans);
    ``registry`` (the program's registry on, as ``repro serve`` runs);
    ``tracer`` (its tracer on).  Returns ms per config per request id."""
    from repro import telemetry
    from repro.server.service import Service

    configs = ("off", "spans", "registry", "tracer")
    caches = {c: work / f"replay-{c}" for c in configs}
    for cache in caches.values():
        shutil.rmtree(cache, ignore_errors=True)
    services = {c: Service(cache_dir=str(caches[c])) for c in configs}
    registry = telemetry.Registry()
    tracer = telemetry.Tracer(capacity=8192)
    scopes = {
        "off": nullcontext,
        "spans": nullcontext,
        "registry": lambda: telemetry.use(registry),
        "tracer": lambda: telemetry.use_tracer(tracer),
    }
    out: Dict[str, Dict[str, float]] = {c: {} for c in configs}
    try:
        for i, req in enumerate(schedule):
            params = dict(req["params"])
            if req["method"] == "run":
                params["erased"] = True
            for config in configs[i % 4:] + configs[: i % 4]:
                service = services[config]
                t0 = perf()
                with scopes[config]():
                    if config == "spans":
                        with spans.span(f"server.{req['method']}", kind="replay"):
                            service.dispatch(req["method"], params)
                    else:
                        service.dispatch(req["method"], params)
                out[config][req["id"]] = (perf() - t0) * 1000.0
    finally:
        for config in configs:
            services[config].close()
            shutil.rmtree(caches[config], ignore_errors=True)
    return out
