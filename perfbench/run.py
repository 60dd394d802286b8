"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Prints one JSON detail line (run context, sample counts, aliases,
percentiles actually used) and, as the last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, with the names and units BENCHMARK.json declares.
``--seconds`` defaults to its ``run_seconds``.  Every host time is a
median of many short samples taken across the whole run, and only one
measuring process runs at a time.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import (
    PINS_PATH,
    ROOT,
    SRC,
    TAIL_SAMPLES,
    RunContext,
    load_benchmark,
    metric,
    probes,
    run_child,
    speed_factor,
    tail_percentile,
)
from workloads import SERVE_CLIENTS, SERVE_HITS, SERVE_STARTS

WORKLOADS = ("sim-dense", "sim-irregular", "report-quick", "serve-mixed")
#: host-speed probes before and after each server start
SETUP_PROBES = 12


def _err_pct(speedups: dict) -> float:
    """Mean |sim - paper| / paper of Figure 7's Tarantula speedups, %."""
    from repro.harness.paper_data import FIGURE7_SPEEDUP_T

    errs = [abs(s - FIGURE7_SPEEDUP_T[k]) / FIGURE7_SPEEDUP_T[k]
            for k, s in speedups.items()]
    return 100.0 * sum(errs) / len(errs)


def _ms_aliases(values: dict) -> dict:
    """Fill the hit_* and miss_* metrics of a workload that serves no
    requests.  Every end-to-end metric is reported on every workload,
    so these repeat ``warm_s`` and ``cold_s`` in ms; returns what each
    one repeats, for the detail line."""
    aliases = {}
    for name, source in (("hit_p50_ms", "warm_s"), ("hit_p99_ms", "warm_s"),
                         ("miss_p50_ms", "cold_s"), ("miss_p90_ms", "cold_s")):
        values[name] = 1e3 * values[source]
        aliases[name] = f"1000 * {source}"
    return aliases


def _sum_of_medians(samples: dict) -> float:
    """Sum over kernels of each kernel's median: the latency of one pass
    over the workload, without pooling kernels of different sizes into
    one distribution."""
    return sum(statistics.median(v) for v in samples.values())


# -- sim-dense / sim-irregular -------------------------------------------------


def measure_sim(args, tmp: Path) -> tuple:
    """Fresh children one after another: a set-up-only child, full
    children (set-up, cold, a slice of warm round-robin samples), and a
    last set-up-only child."""
    full_children = 4
    setups, colds, rss = [], [], []
    raw: dict = {"setup_s": [], "cold_s": [], "warm": {}}
    warm: dict = {}
    warm_wall = 0.0
    attempted = failed = 0
    failures: list = []
    speedups: dict = {}
    base = {"mode": "sim", "workload": args.workload}

    def setup_only() -> None:
        res = run_child(dict(base, only_setup=True))
        setups.append(res["setup_s"])
        raw["setup_s"].append(res["setup_raw_s"])

    setup_only()
    for i in range(full_children):
        res = run_child(dict(base, warm_s=args.seconds / full_children,
                             seed=args.seed * 31 + i, speedups=(i == 0)))
        setups.append(res["setup_s"])
        raw["setup_s"].append(res["setup_raw_s"])
        colds.append(sum(res["cold"].values()))
        raw["cold_s"].append(sum(res["cold_raw"].values()))
        for k, v in res["warm"].items():
            warm.setdefault(k, []).extend(v)
            raw["warm"].setdefault(k, []).extend(res["warm_raw"][k])
        # served_per_s counts warm simulations per reference-speed second
        warm_wall += res["warm_wall_s"] * res["warm_factor"]
        rss.append(res["maxrss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        speedups.update(res.get("speedups", {}))
    setup_only()
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(colds),
        "warm_s": _sum_of_medians(warm),
        "peak_rss_mb": statistics.median(rss),
        "paper_speedup_err_pct": _err_pct(speedups),
        "served_per_s": sum(len(v) for v in warm.values()) / warm_wall,
    }
    detail = {"unscaled": {
                  "setup_s": statistics.median(raw["setup_s"]),
                  "cold_s": statistics.median(raw["cold_s"]),
                  "warm_s": _sum_of_medians(raw["warm"])},
              "aliases": _ms_aliases(values),
              "setup_samples": len(setups), "cold_children": len(colds),
              "warm_samples": {k: len(v) for k, v in warm.items()},
              "warm_median_s": {k: statistics.median(v)
                                for k, v in warm.items()},
              "speedups": speedups, "failures": failures[:20]}
    return values, attempted, failed, detail


def trace_sim(args, tmp: Path) -> tuple:
    import tracer as tr

    base = {"mode": "sim", "workload": args.workload, "seed": args.seed,
            "warm_s": args.seconds / 2}
    plain = run_child(base)
    traced = run_child(dict(base, trace=True))
    plain_warm = _sum_of_medians(plain["warm"])
    traced_warm = _sum_of_medians(traced["warm"])
    layers = tr.finish_layers(traced["layers"], traced_warm / plain_warm)
    detail = {"warm_s_untraced": plain_warm, "warm_s_traced": traced_warm,
              "failures": (plain["failures"] + traced["failures"])[:20]}
    return (layers, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], detail)


# -- report-quick ----------------------------------------------------------------


def _figure7_speedups(stdout: str) -> dict:
    """Tarantula speedups as the report prints them in Figure 7."""
    from repro.harness.paper_data import FIGURE7_SPEEDUP_T

    lines = stdout.split("Figure 7", 1)[1].split("Figure 8", 1)[0].splitlines()
    speedups = {}
    for line in lines:
        words = line.split()
        if words and words[0] in FIGURE7_SPEEDUP_T and "T=" in words:
            speedups[words[0]] = float(words[words.index("T=") + 1])
    return speedups


def measure_report(args, tmp: Path) -> tuple:
    pins = json.loads(PINS_PATH.read_text())
    want = pins["report_stdout_sha256"]
    cwd = tmp / "report"
    cwd.mkdir(parents=True)
    report = {"mode": "report", "cwd": str(cwd)}
    builds = [run_child({"mode": "build"})]
    cold = run_child(report)
    warm = []
    t_warm = time.monotonic()
    while len(warm) < 3 or time.monotonic() - t_warm < args.seconds:
        builds.append(run_child({"mode": "build"}))
        warm.append(run_child(report))
    setups = [b["setup_s"] for b in builds]
    runs = [cold] + warm
    failures = [f"report {i}: exit {r['code']}, stdout sha256 {r['sha256']}"
                f" (pinned {want}); stderr: {r['stderr'][-300:]}"
                for i, r in enumerate(runs)
                if r["code"] != 0 or r["sha256"] != want]
    warm_s = [r["s"] for r in warm]
    unscaled = {"setup_s": statistics.median(b["setup_raw_s"] for b in builds),
                "cold_s": cold["raw_s"],
                "warm_s": statistics.median(r["raw_s"] for r in warm)}
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": cold["s"],
        "warm_s": statistics.median(warm_s),
        "peak_rss_mb": cold["maxrss_mb"],
        "paper_speedup_err_pct": _err_pct(_figure7_speedups(cold["stdout"])),
    }
    aliases = _ms_aliases(values)
    cells = pins["report_cells"]
    values["served_per_s"] = cells / values["warm_s"]
    aliases["served_per_s"] = f"{cells} cells / warm_s"
    detail = {"unscaled": unscaled, "aliases": aliases,
              "setup_samples": len(setups), "warm_reports": len(warm),
              "warm_report_s": warm_s,
              "cold_stderr": cold["stderr"][-200:],
              "warm_stderr": warm[-1]["stderr"][-200:],
              "failures": failures}
    return values, len(runs), len(failures), detail


def trace_report(args, tmp: Path) -> tuple:
    import tracer as tr

    pins = json.loads(PINS_PATH.read_text())
    cwd = tmp / "report"
    cwd.mkdir(parents=True)
    report = {"mode": "report", "cwd": str(cwd)}
    cold = run_child(dict(report, trace=True))
    warm = run_child(dict(report, trace=True))
    plain = run_child(report)
    runs = (cold, warm, plain)
    failed = sum(r["code"] != 0 or r["sha256"] != pins["report_stdout_sha256"]
                 for r in runs)
    layers = tr.finish_layers(tr.merge_layers([cold["layers"],
                                               warm["layers"]]),
                              warm["wall_s"] / plain["wall_s"])
    detail = {"cold_wall_s": cold["wall_s"], "warm_wall_s": warm["wall_s"],
              "warm_untraced_wall_s": plain["wall_s"],
              "warm_pass_top_inclusive_shares": warm["top_inclusive_shares"],
              "cold_pass_top_inclusive_shares": cold["top_inclusive_shares"]}
    return layers, len(runs), failed, detail


# -- serve-mixed -------------------------------------------------------------------


def measure_serve(args, tmp: Path) -> tuple:
    import servebench
    from repro.serve import ServeClient
    from workloads import SERVE_MISSES, miss_order

    pins = json.loads(PINS_PATH.read_text())
    order = miss_order(args.seed)
    setups, colds, failures = [], [], []
    raw: dict = {"setup_s": [], "cold_s": []}
    attempted = 0

    def start(i: int):
        """Fresh server: set-up time, then one cold (uncached) request,
        both scaled by the probes taken just before and after them."""
        nonlocal attempted
        before = probes(SETUP_PROBES)
        server = servebench.Server(tmp / f"serve{i}")
        try:
            setup = server.wait_ready()
            with ServeClient("127.0.0.1", server.port,
                             timeout=servebench.REQUEST_TIMEOUT_S) as client:
                # the first specs of the seeded order; the closed loop's
                # misses take the ones after them
                spec = SERVE_MISSES[order[i]]
                elapsed, _, error = servebench.request(client, spec, False,
                                                       pins)
            factor = speed_factor(before + probes(SETUP_PROBES))
            setups.append(setup * factor)
            raw["setup_s"].append(setup)
            attempted += 1
            if error is None:
                colds.append(elapsed * factor)
                raw["cold_s"].append(elapsed)
            else:
                failures.append(error)
        except BaseException:
            server.stop()
            raise
        return server

    for i in range(SERVE_STARTS - 1):
        start(i).stop()
    server = start(SERVE_STARTS - 1)
    try:
        payloads = servebench.prewarm(server.port, pins)
        stats0 = servebench.server_stats(server.port)
        loop = servebench.closed_loop(
            server.port, args.seed, args.seconds, pins, clients=SERVE_CLIENTS,
            first_miss=SERVE_STARTS, min_hits=100 * TAIL_SAMPLES + 100,
            min_misses=10 * TAIL_SAMPLES + 10)
        stats1 = servebench.server_stats(server.port)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    payloads.update(loop["hit_payloads"])
    seconds = {}
    for i, spec in enumerate(SERVE_HITS):
        seconds[(spec["kernel"], spec["config"])] = payloads[i]["seconds"]
    speedups = {k: seconds[(k, "EV8")] / seconds[(k, "T")]
                for k, c in seconds if c == "T"}
    hits, misses = loop["hit_s"], loop["miss_s"]
    hit_pct, hit_tail = tail_percentile(hits, 99)
    miss_pct, miss_tail = tail_percentile(misses, 90)
    completed = len(hits) + len(misses)
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(colds),
        "peak_rss_mb": rss,
        "paper_speedup_err_pct": _err_pct(speedups),
        "hit_p50_ms": 1e3 * statistics.median(hits),
        "hit_p99_ms": 1e3 * hit_tail,
        "miss_p50_ms": 1e3 * statistics.median(misses),
        "miss_p90_ms": 1e3 * miss_tail,
        "served_per_s": completed / loop["scaled_wall_s"],
        # a miss is a warm server simulating: warm_s repeats miss_p50_ms
        "warm_s": statistics.median(misses),
    }
    detail = {"unscaled": {
                  "setup_s": statistics.median(raw["setup_s"]),
                  "cold_s": statistics.median(raw["cold_s"]),
                  "hit_p50_ms": 1e3 * statistics.median(loop["hit_raw_s"]),
                  "miss_p50_ms": 1e3 * statistics.median(loop["miss_raw_s"])},
              "aliases": {"warm_s": "miss_p50_ms / 1000"},
              "setup_samples": len(setups), "cold_samples": len(colds),
              "hits": len(hits), "misses": len(misses),
              # fresh specs drawn, the cold requests' included, of the pool
              "miss_specs_used": loop["misses_used"],
              "miss_specs": len(SERVE_MISSES),
              "pool_exhausted": loop["pool_exhausted"],
              "hit_percentile_used": hit_pct,
              "miss_percentile_used": miss_pct,
              "server_stats": {k: stats1["serve"][k] - stats0["serve"][k]
                               for k in stats1["serve"]},
              "failures": (failures + loop["failures"])[:20]}
    return (values, attempted + loop["attempted"],
            len(failures) + loop["failed"], detail)


def trace_serve(args, tmp: Path) -> tuple:
    import tracer as tr

    res = run_child({"mode": "serve-trace", "seed": args.seed,
                     "seconds": args.seconds,
                     "cache_dir": str(tmp / "serve-cache")})
    layers = tr.finish_layers(res["layers"], res["overhead_ratio"],
                              res["serve"])
    return layers, res["attempted"], res["failed"], {
        "failures": res["failures"]}


MEASURE = {"sim-dense": measure_sim, "sim-irregular": measure_sim,
           "report-quick": measure_report, "serve-mixed": measure_serve}
TRACE = {"sim-dense": trace_sim, "sim-irregular": trace_sim,
         "report-quick": trace_report, "serve-mixed": trace_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not PINS_PATH.is_file():
        print(f"perfbench: no repro package under {SRC} (or no pins); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    sys.path.insert(0, str(SRC))
    from repro import jit

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    context = RunContext()
    try:
        fn = (TRACE if args.trace else MEASURE)[args.workload]
        values, attempted, failed, detail = fn(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: metric(values[m["name"]], m["unit"])
               for m in declared}
    detail["context"] = context.finish(jit.enabled())
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
