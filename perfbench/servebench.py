"""serve-mixed: a ``repro serve`` process under a seeded closed loop.

Each client connection sends its next request only after the previous
one completed (closed loop).  One request is ``POST /jobs`` plus the
``GET /jobs/<id>`` that returns its payload; its latency spans both.
One request in :data:`workloads.OPS_PER_MISS` takes the next never-seen
spec, which must simulate and is then written to the cache; the others
resubmit a spec the server has already cached.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, child_env, payload_digest, probes, speed_factor
from workloads import SERVE_HITS, SERVE_MISSES, client_ops, miss_order

#: a request slower than this counts as failed (timed out)
REQUEST_TIMEOUT_S = 60.0
#: closed-loop segment length (s) and host-speed probes between segments
SEGMENT_S = 1.0
SEGMENT_PROBES = 12
_LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


class Server:
    """A ``python -m repro serve`` process with its own empty cache."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "serve.log"
        cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
               "--port", "0", "--jobs", "1",
               "--cache-dir", str(workdir / "cache")]
        self.t_spawn = time.monotonic()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
                cwd=str(ROOT), start_new_session=True)
        self.port = None
        self.setup_s = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Poll until ``/healthz`` answers; returns seconds since spawn."""
        import http.client

        deadline = self.t_spawn + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: "
                                   f"{self.log_path.read_text()[-2000:]}")
            if self.port is None:
                found = _LISTEN.search(self.log_path.read_text())
                if found:
                    self.port = int(found.group(1))
            if self.port is not None:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        self.setup_s = time.monotonic() - self.t_spawn
                        return self.setup_s
                except OSError:
                    pass
                finally:
                    conn.close()
            time.sleep(0.002)
        raise RuntimeError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful drain (SIGTERM); the whole session is killed if the
        drain does not finish, so no pool worker outlives the run."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


def request(client, spec: dict, want_cached: bool, pins: dict, tracer=None):
    """One timed request; returns ``(seconds, payload, error)``."""
    from repro.serve import ServeError

    if tracer is not None:
        tracer.enter("serve.request")
    t0 = time.perf_counter()
    try:
        entry = client.submit(spec)
        payload = client.wait_result(entry["id"], timeout=REQUEST_TIMEOUT_S)
        error = None
    except (ServeError, TimeoutError, OSError, KeyError) as err:
        entry, payload, error = {}, None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.exit()
    if error is None:
        if bool(entry.get("cached")) != want_cached or entry.get("deduped"):
            error = f"{spec_key(spec)}: cached={entry.get('cached')}, " \
                    f"expected {want_cached}"
        elif payload_digest(payload) != pins["serve"].get(spec_key(spec)):
            error = f"{spec_key(spec)}: payload differs from serial execute()"
    return elapsed, payload, error


def prewarm(port: int, pins: dict) -> dict:
    """Simulate every hit spec once (untimed); returns their payloads."""
    from repro.serve import ServeClient

    payloads = {}
    with ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as client:
        for i, spec in enumerate(SERVE_HITS):
            _, payload, error = request(client, spec, False, pins)
            if error is not None:
                raise RuntimeError(f"prewarm failed: {error}")
            payloads[i] = payload
    return payloads


def server_stats(port: int) -> dict:
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        return client.stats()


def closed_loop(port: int, seed: int, seconds: float, pins: dict,
                clients: int, tracer=None, first_miss: int = 0,
                min_hits: int = 0, min_misses: int = 0) -> dict:
    """Drive the seeded mix over ``clients`` connections for ``seconds``,
    and on until ``min_hits``/``min_misses`` requests completed (at most
    three times ``seconds``), so the tail percentiles have their
    samples.  Misses take the seeded order's specs from ``first_miss``
    on; when they run out the loop ends early, which is not a failure
    (``pool_exhausted`` in the result).

    The loop runs in segments of about a second.  Between segments the
    clients pause while this process takes host-speed probes, and each
    segment's latencies are scaled by the probes on either side of it
    (``hit_s``/``miss_s``; the unscaled ones are ``*_raw_s``).
    """
    from repro.serve import ServeClient

    order = miss_order(seed)
    lock = threading.Lock()
    state = {"next_miss": first_miss, "exhausted": False}
    out = {"hit_s": [], "miss_s": [], "hit_raw_s": [], "miss_raw_s": [],
           "attempted": 0, "failed": 0, "failures": [], "intervals": [],
           "hit_payloads": {}, "scaled_wall_s": 0.0}
    ops = [client_ops(seed, cid) for cid in range(clients)]
    conns = [ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
             for _ in range(clients)]
    start = time.perf_counter()

    def running() -> bool:
        elapsed = time.perf_counter() - start
        if state["exhausted"]:
            return False
        return elapsed < seconds or (
            elapsed < 3 * seconds and (len(out["hit_s"]) < min_hits
                                       or len(out["miss_s"]) < min_misses))

    def fresh_spec():
        with lock:
            idx = state["next_miss"]
            if idx >= len(order):
                state["exhausted"] = True
                return None
            state["next_miss"] += 1
        return SERVE_MISSES[order[idx]]

    def client_loop(cid: int, until: float, segment: list) -> None:
        while time.perf_counter() < until:
            kind, idx = next(ops[cid])
            spec = SERVE_HITS[idx] if kind == "hit" else fresh_spec()
            if spec is None:
                return
            t0 = time.perf_counter()
            elapsed, payload, error = request(
                conns[cid], spec, kind == "hit", pins, tracer)
            with lock:
                out["attempted"] += 1
                if error is not None:
                    out["failed"] += 1
                    out["failures"].append(error)
                    continue
                segment.append((kind, elapsed))
                if tracer is not None:
                    out["intervals"].append((t0, t0 + elapsed))
                if kind == "hit":
                    out["hit_payloads"][idx] = payload

    try:
        before = probes(SEGMENT_PROBES)
        while running():
            segment: list = []
            t0 = time.perf_counter()
            threads = [threading.Thread(target=client_loop,
                                        args=(cid, t0 + SEGMENT_S, segment))
                       for cid in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(REQUEST_TIMEOUT_S + SEGMENT_S + 30)
                if thread.is_alive():
                    raise RuntimeError("serve client did not finish")
            wall = time.perf_counter() - t0
            after = probes(SEGMENT_PROBES)
            factor = speed_factor(before + after)
            before = after
            out["scaled_wall_s"] += wall * factor
            for kind, elapsed in segment:
                out[f"{kind}_s"].append(elapsed * factor)
                out[f"{kind}_raw_s"].append(elapsed)
    finally:
        for conn in conns:
            conn.close()
    out["misses_used"] = state["next_miss"]
    out["pool_exhausted"] = state["exhausted"]
    out["failures"] = out["failures"][:20]
    return out
