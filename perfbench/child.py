"""One measuring process of the benchmark: ``child.py '<job json>'``.

run.py starts children one after another, never two at a time, and
reads the JSON object each prints as its last stdout line.
Modes:

* ``sim`` — build every instance of a sim-* workload (set-up), simulate
  each kernel once (cold), then warm samples round-robin until the
  job's time slice ends; optionally traced.
* ``build`` — report-quick set-up: import the package and build every
  instance the quick report simulates.
* ``report`` — one ``repro report --quick`` pass through the CLI entry
  point, probed at cell boundaries, or traced.
* ``serve-trace`` — the serve mix against an in-process server, first
  untraced, then traced.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import sys
import time

from common import check_cycles, load_pins, probe, probes, scaled_span, \
    speed_factor

#: probes taken after set-up to scale the set-up time
SETUP_PROBES = 8


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_trace(job):
    """Install the tracer when the job asks for it; None otherwise."""
    if not job.get("trace"):
        return None, None
    import tracer as tr

    tracer = tr.Tracer()
    tr.install(tracer)
    return tracer, tr.jit_snapshot()


def _layers(tracer, jit0, wall_s) -> dict:
    import tracer as tr

    return tr.layer_values(tracer, jit0, tr.jit_snapshot(), wall_s)


def run_sim(job) -> dict:
    tracer, jit0 = _start_trace(job)
    t_start = time.perf_counter()
    from repro.harness import engine
    from repro.workloads.registry import get

    from workloads import SIM_KERNELS, sim_spec

    kernels = SIM_KERNELS[job["workload"]]
    cells = [(k, s, sim_spec(k, s)) for k, s in kernels]
    instances = {k: get(k).build(spec.scale) for k, _, spec in cells}
    setup_raw = time.monotonic() - job["t_spawn"]
    setup_s = setup_raw * speed_factor(probes(SETUP_PROBES))
    if job.get("only_setup"):
        return {"setup_s": setup_s, "setup_raw_s": setup_raw}

    pins = load_pins()["cycles"]
    failures: list = []
    attempted = 0

    outcomes = {}

    def simulate(kernel, scale, spec) -> float:
        nonlocal attempted
        attempted += 1
        t0 = time.perf_counter()
        out = engine.execute_captured(spec, instances[kernel])
        elapsed = time.perf_counter() - t0
        if getattr(out, "failed", False):
            failures.append(f"{kernel}: {out.error_type}: {out.message}")
        elif not check_cycles(pins, kernel, spec.config, scale, out.cycles):
            failures.append(f"{kernel}: cycles {out.cycles.hex()} != pin")
        else:
            outcomes[kernel] = out
        return elapsed

    def timed_round(order) -> tuple:
        """Simulate each cell once, a probe before each; returns raw
        times and the round's speed factor."""
        beside, raw = [], {}
        for k, s, spec in order:
            beside.extend(probes(1))
            raw[k] = simulate(k, s, spec)
        return raw, speed_factor(beside)

    cold_raw, factor = timed_round(cells)
    cold = {k: t * factor for k, t in cold_raw.items()}
    warm: dict = {k: [] for k, _, _ in cells}
    warm_raw: dict = {k: [] for k, _, _ in cells}
    rng = random.Random(job["seed"])
    t_warm = time.perf_counter()
    deadline = t_warm + job["warm_s"]
    factors = []
    round_s = 0.0
    # whole rounds only, and none that would end past the deadline
    while not factors or time.perf_counter() + round_s <= deadline:
        t_round = time.perf_counter()
        shift = rng.randrange(len(cells))
        raw, factor = timed_round(cells[shift:] + cells[:shift])
        round_s = time.perf_counter() - t_round
        factors.append(factor)
        for k, t in raw.items():
            warm[k].append(t * factor)
            warm_raw[k].append(t)
    warm_wall = time.perf_counter() - t_warm
    wall_s = time.perf_counter() - t_start

    result = {"setup_s": setup_s, "setup_raw_s": setup_raw, "cold": cold,
              "cold_raw": cold_raw, "warm": warm, "warm_raw": warm_raw,
              "warm_factor": sum(factors) / len(factors) if factors else 1.0,
              "warm_wall_s": warm_wall, "attempted": attempted,
              "failed": len(failures), "failures": failures[:20],
              "maxrss_mb": _maxrss_mb()}
    if job.get("speedups"):
        result["speedups"] = _ev8_speedups(engine, cells, instances, outcomes,
                                           pins, failures)
        result["failed"] = len(failures)
        result["attempted"] = attempted + len(result["speedups"])
    if tracer is not None:
        result["layers"] = _layers(tracer, jit0, wall_s)
    return result


def _ev8_speedups(engine, cells, instances, outcomes, pins,
                  failures) -> dict:
    """Tarantula-over-EV8 speedup of each Figure 7 kernel in the cell
    list, at the workload's own scale (EV8 runs are analytic: cheap)."""
    from repro.harness.engine import ExperimentSpec
    from repro.harness.paper_data import FIGURE7_SPEEDUP_T

    speedups = {}
    for kernel, scale, _spec in cells:
        if kernel not in FIGURE7_SPEEDUP_T:
            continue
        t = outcomes.get(kernel)
        ev8 = engine.execute_captured(
            ExperimentSpec(kernel=kernel, config="EV8", scale=scale),
            instances[kernel])
        if t is None or getattr(ev8, "failed", False) \
                or not check_cycles(pins, kernel, "EV8", scale, ev8.cycles):
            failures.append(f"{kernel}: EV8 speedup run failed or unpinned")
            continue
        speedups[kernel] = ev8.seconds / t.seconds
    return speedups


def run_build(job) -> dict:
    import repro.cli  # noqa: F401 - what a `repro report` process imports
    from repro.workloads.registry import get

    for kernel, scale in load_pins()["report_instances"]:
        get(kernel).build(scale)
    setup_raw = time.monotonic() - job["t_spawn"]
    return {"setup_s": setup_raw * speed_factor(probes(SETUP_PROBES)),
            "setup_raw_s": setup_raw}


def _probe_at_cells(engine, marks: list, probing: list) -> None:
    """Take host-speed probes at the report's cell boundaries: before
    every simulation and before every 4th cache key.  The time spent
    probing is kept in ``probing[0]`` and left out of the report time;
    ``marks`` gets ``(time without probing, probe)`` pairs for
    :func:`common.scaled_span`."""
    def hooked(fn, every):
        calls = itertools.count()

        def run(*args, **kwargs):
            if next(calls) % every == 0:
                t0 = time.monotonic()
                marks.append((t0 - probing[0], probe()))
                probing[0] += time.monotonic() - t0
            return fn(*args, **kwargs)

        return run

    engine.execute = hooked(engine.execute, 1)
    engine.cache_key = hooked(engine.cache_key, 4)


def run_report(job) -> dict:
    """``repro report --quick --jobs 1`` through the CLI entry point, in
    this fresh process; timed from the parent's spawn."""
    import contextlib
    import hashlib
    import io
    import os
    import traceback

    tracer, jit0 = _start_trace(job)
    import repro.cli
    from repro.harness import engine

    from workloads import REPORT_ARGS

    marks: list = []
    probing = [0.0]
    if tracer is None:
        _probe_at_cells(engine, marks, probing)
    os.chdir(job["cwd"])
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = repro.cli.main(list(REPORT_ARGS))
    except Exception:  # noqa: BLE001 - a crashed report is a failed one
        code = 1
        err.write(traceback.format_exc())
    wall_s = time.perf_counter() - t0 - probing[0]
    end = time.monotonic() - probing[0]
    stdout = out.getvalue()
    result = {"code": code, "wall_s": wall_s, "raw_s": end - job["t_spawn"],
              "s": scaled_span(job["t_spawn"], end, marks),
              "stdout": stdout,
              "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
              "stderr": err.getvalue().strip()[-2000:],
              "maxrss_mb": _maxrss_mb()}
    if tracer is not None:
        result["layers"] = _layers(tracer, jit0, wall_s)
        result["top_inclusive_shares"] = sorted(
            ((name, row[1] / wall_s) for name, row in tracer.agg.items()),
            key=lambda r: -r[1])[:8]
    return result


def run_serve_trace(job) -> dict:
    import servebench
    import tracer as tr
    from repro.harness.pool import SerialPool
    from repro.serve import ServeConfig, ServerThread

    config = ServeConfig(host="127.0.0.1", port=0, jobs=1,
                         cache_dir=job["cache_dir"])
    pins = load_pins()
    with ServerThread(config, pool_factory=SerialPool) as thread:
        port = thread.server.port
        servebench.prewarm(port, pins)
        stats0 = servebench.server_stats(port)
        # untraced pass, then the same mix traced: the ratio of their
        # mean request latencies is the tracing overhead
        plain = servebench.closed_loop(port, job["seed"], job["seconds"] / 2,
                                       pins, clients=1)
        tracer = tr.Tracer()
        tr.install(tracer)
        tr.install_serve(tracer)
        jit0 = tr.jit_snapshot()
        traced = servebench.closed_loop(port, job["seed"],
                                        job["seconds"] / 2, pins, clients=1,
                                        tracer=tracer,
                                        first_miss=plain["misses_used"])
        stats1 = servebench.server_stats(port)
    wall_s = sum(end - start for start, end in traced["intervals"])
    layers = _layers(tracer, jit0, wall_s)
    split = tr.serve_split(tracer, traced["intervals"])
    # served-request coverage: engine time over request wall time
    layers["_covered_s"] = sum(
        s[4] - s[3] for s in tracer.spans
        if s[2] in ("serve.probe", "harness.execute_many") and s[1] is None)
    serve = dict(split)
    serve["serve.dedupe_hits"] = (stats1["serve"]["deduped"]
                                  - stats0["serve"]["deduped"])
    serve["serve.rejected"] = sum(
        stats1["serve"][k] - stats0["serve"][k]
        for k in ("rejected_full", "rejected_invalid", "rejected_draining"))
    mean = (lambda lat: sum(lat) / len(lat) if lat else 0.0)
    plain_mean = mean(plain["hit_s"] + plain["miss_s"])
    traced_mean = mean(traced["hit_s"] + traced["miss_s"])
    return {"layers": layers, "serve": serve,
            "overhead_ratio": traced_mean / plain_mean if plain_mean else 0.0,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": (plain["failures"] + traced["failures"])[:20]}


MODES = {"sim": run_sim, "build": run_build, "report": run_report,
         "serve-trace": run_serve_trace}


def main() -> int:
    job = json.loads(sys.argv[1])
    result = MODES[job["mode"]](job)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
