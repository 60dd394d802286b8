"""Steadiness check: run one workload repeatedly under two labels.

    python3 perfbench/steady.py --workload sim-dense --pairs 5

The two labels run the same code, alternating which goes first in each
pair, the way a comparison pairs a parent commit with a change.  Every
run measures the end-to-end metrics for ``run_seconds`` (from
BENCHMARK.json) with its own seed, counting up from :data:`FIRST_SEED`.
For each metric it prints the median, quartiles, min and max of each
label, the quartile spread as a share of the median (the rule a
metric's ``bound`` is checked against), and the gap between the two
labels' medians.  A benchmark is steady when every spread and every gap
stays well inside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, load_benchmark, summarize

FIRST_SEED = 1000


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    *_, detail, result = proc.stdout.strip().splitlines()
    # host times before scaling to the reference speed, for comparison
    result = json.loads(result)
    detail = json.loads(detail)["detail"]
    result["unscaled"] = detail.get("unscaled", {})
    result["miss_specs_used"] = detail.get("miss_specs_used")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict = {"A": {}, "B": {}}
    failed = 0
    seed = FIRST_SEED
    for pair in range(args.pairs):
        for label in ("AB" if pair % 2 == 0 else "BA"):
            t0 = time.monotonic()
            result = run_once(args.workload, seed)
            wall = time.monotonic() - t0
            seed += 1
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[label].setdefault(name, []).append(m["value"])
            for name, v in result.get("unscaled", {}).items():
                values[label].setdefault(f"unscaled:{name}", []).append(v)
            print(f"pair {pair} {label} seed {seed - 1}: correct="
                  f"{result['correct']} failed={result['failed']} "
                  f"wall={wall:.1f}s"
                  + (f" miss specs used={result['miss_specs_used']}"
                     if result["miss_specs_used"] is not None else ""),
                  file=sys.stderr, flush=True)

    print(f"workload {args.workload}: {args.pairs} pairs, {seconds}s runs, "
          f"{failed} failed operation(s)")
    print(f"{'metric':<24}{'label':>6}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'spread':>8}{'gap':>8}{'bound':>7}")
    for name in values["A"]:
        a, b = summarize(values["A"][name]), summarize(values["B"][name])
        both = summarize(values["A"][name] + values["B"][name])
        gap = abs(b["median"] - a["median"]) / a["median"] \
            if a["median"] else 0.0
        bound = bounds.get(name)
        for label, s in (("A", a), ("B", b), ("A+B", both)):
            print(f"{name:<24}{label:>6}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['min']:>12.5g}{s['max']:>12.5g}"
                  f"{s['spread']:>8.3f}"
                  + (f"{gap:>8.3f}{bound if bound is not None else '':>7}"
                     if label == "A+B" else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
