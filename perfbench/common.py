"""Helpers shared by run.py, its child processes and the tests.

Nothing here imports ``repro``: the statistics, the pin comparison, the
run context and the child-process plumbing must work (and be testable)
without the package under measurement.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
#: the benchmark definition: run_seconds and every metric's name and unit
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: a percentile is reported only when this many samples lie beyond it
TAIL_SAMPLES = 10


# -- statistics --------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values, wanted: float) -> tuple[float, float]:
    """The percentile actually reportable for a ``wanted`` tail.

    Returns ``(pct, value)``: ``pct`` is ``wanted`` when at least
    :data:`TAIL_SAMPLES` samples lie beyond it, otherwise the highest
    percentile that still has that many samples beyond it (never below
    the median).  ``value`` is the sample quantile at ``pct``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    pct = wanted
    if n * (1 - wanted / 100) < TAIL_SAMPLES:
        pct = max(50.0, 100.0 * (1 - TAIL_SAMPLES / n))
    return pct, quantile(values, pct / 100)


def summarize(values) -> dict:
    """Median, quartiles, extremes and spread of one metric's runs.  The
    spread is the quartile distance as a share of the median: what a
    metric's bound is checked against."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else math.inf}


# -- host-speed probe -----------------------------------------------------------

#: probe time (s) of the reference host speed every host time is scaled to
REF_PROBE_S = 0.002
_PROBE_ARRAY = None


def probe() -> float:
    """One host-speed probe: the geometric mean of a fixed dict loop and
    a fixed numpy loop (s).  Neither touches the program under test.

    On this shared 2-vCPU host, speed swings by tens of percent over
    seconds; the simulator's host time follows these two loops (a pure
    interpreter loop and an array loop) closely, so a sample taken
    beside probes can be scaled to a reference speed.
    """
    global _PROBE_ARRAY
    import numpy

    if _PROBE_ARRAY is None:
        _PROBE_ARRAY = numpy.arange(1 << 16, dtype=numpy.float64)
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(18000):
        table[i & 511] = table.get(i & 511, 0) + i
    t1 = time.perf_counter()
    arr = _PROBE_ARRAY
    for _ in range(20):
        arr = arr * 1.0000001 + 0.5
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def probes(n: int) -> list:
    return [probe() for _ in range(n)]


def speed_factor(samples) -> float:
    """Factor scaling a host time taken beside ``samples`` probes to the
    reference speed (below 1 when the host ran slow)."""
    return REF_PROBE_S / statistics.median(samples)


def scaled_span(start: float, end: float, marks, window: int = 9) -> float:
    """Host time from ``start`` to ``end`` scaled piecewise to the
    reference speed, for a long run probed as it goes.

    ``marks`` are ``(t, probe)`` pairs in time order, on a clock that
    leaves the probing time out.  The time from one mark to the next
    (from ``start`` for the first, to ``end`` for the last) is scaled by
    the median of the ``window`` probes around the mark, so each part of
    the run is scaled by the host speed of its own moment.
    """
    if not marks:
        return end - start
    times = [start] + [t for t, _ in marks[1:]] + [end]
    values = [v for _, v in marks]
    half = window // 2
    return sum((times[i + 1] - times[i])
               * speed_factor(values[max(0, i - half):i + half + 1])
               for i in range(len(marks)))


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as handle:
        return json.load(handle)


# -- pins ----------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def cycles_pin_key(kernel: str, config: str, scale: float) -> str:
    return f"{kernel}|{config}|{scale!r}"


def check_cycles(pins: dict, kernel: str, config: str, scale: float,
                 cycles: float) -> bool:
    """True when ``cycles`` equals its ``float.hex`` pin exactly."""
    want = pins.get(cycles_pin_key(kernel, config, scale))
    return want is not None and float.fromhex(want) == cycles


def payload_digest(payload: dict) -> str:
    import hashlib

    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- run context ---------------------------------------------------------------


def _cpu_ticks() -> dict:
    """Aggregate user and steal ticks from ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return {}
    # cpu user nice system idle iowait irq softirq steal ...
    return {"user": int(fields[1]), "steal": int(fields[8])}


class RunContext:
    """Host facts recorded with every result, so an outlier run can be
    explained (load, steal) instead of guessed at."""

    def __init__(self) -> None:
        self.start_ticks = _cpu_ticks()
        self.start_load = os.getloadavg()

    def finish(self, jit_enabled) -> dict:
        end = _cpu_ticks()
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        return {
            "nproc": os.cpu_count(),
            "loadavg_start": self.start_load,
            "loadavg_end": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "jit_enabled": jit_enabled,
            "user_ticks": end.get("user", 0) - self.start_ticks.get("user", 0),
            "steal_ticks": (end.get("steal", 0)
                            - self.start_ticks.get("steal", 0)),
        }


# -- child processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(job: dict, timeout: float = 170.0) -> dict:
    """Run ``child.py`` on one job; returns its JSON result.

    The spawn instant travels in the job, so a child can time its own
    set-up from the moment the parent launched it.  Raises
    RuntimeError when the child fails or prints no result.
    """
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
        capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
        timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {job['mode']} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
