"""Absolute result golden: pinned timing results per simulated cell.

The JIT on/off differential suite compares two runs that share the
timing model, so a bug in shared code (the store-dependence map, the
calendar timelines, the L2 lanes) shifts both sides and passes.  This
test pins each cell's result absolutely instead:

* cycles as ``float.hex``;
* the Figure-6 ``OperationCounts``;
* a sha256 over the sorted ``component_stats`` (every counter).

Cells: every registered workload at ``build_small()`` on T, the
pump-sensitive ones (Figure 9's kernels and STREAMS) on T-nopump, and
the six sim-dense kernels at their benchmark scales.  Each cell runs
with the trace JIT on and its trace cache cleared, so the result does
not depend on test order.

Regenerating the golden is a deliberate act that needs a CHANGES.md
line saying why the results moved::

    PYTHONPATH=src python -m tests.test_timing_golden --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import jit
from repro.workloads.registry import FIGURE_SUITE, REGISTRY, get

GOLDEN = Path(__file__).parent / "data" / "timing_cells_v1.json"

#: kernels whose timing depends on the stride-1 PUMP (Figure 9 + STREAMS)
PUMP_SENSITIVE = tuple(sorted(
    set(FIGURE_SUITE) | {"swim.untiled", "streams.copy", "streams.scale",
                         "streams.add", "streams.triad"}))
#: the sim-dense benchmark kernels at their benchmark scales
DENSE_SCALES = (("linpack100", 0.05), ("linpacktpp", 0.03),
                ("dgemm", 0.07), ("dtrmm", 0.1), ("lu", 0.04),
                ("swim", 0.15))

#: (kernel, config, scale) — scale None means ``build_small()``
CELLS = tuple(
    [(k, "T", None) for k in sorted(REGISTRY)]
    + [(k, "T-nopump", None) for k in PUMP_SENSITIVE]
    + [(k, "T", s) for k, s in DENSE_SCALES])


def cell_id(cell) -> str:
    kernel, config, scale = cell
    return f"{kernel}|{config}|{'small' if scale is None else scale!r}"


def measure(cell) -> dict:
    """Run one cell from a cold trace cache; returns its golden record."""
    from repro.harness.runner import run_tarantula

    kernel, config, scale = cell
    workload = get(kernel)
    instance = workload.build_small() if scale is None \
        else workload.build(scale)
    jit.clear_caches()
    out = run_tarantula(workload, config, instance=instance)
    stats = json.dumps(out.detail.component_stats, sort_keys=True)
    return {"cycles": out.cycles.hex(),
            "counts": dataclasses.asdict(out.detail.counts),
            "stats_sha256": hashlib.sha256(stats.encode()).hexdigest()}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def _jit_forced_on(monkeypatch):
    # the golden is taken with the JIT on (plan-cache telemetry differs
    # with it off), whatever REPRO_JIT the suite runs under
    monkeypatch.setattr(jit, "_FORCED", True)
    yield
    jit.clear_caches()


def test_golden_covers_exactly_the_cells():
    assert sorted(_load()) == sorted(cell_id(c) for c in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_golden(cell):
    assert measure(cell) == _load()[cell_id(cell)]


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    jit._FORCED = True
    golden = {cell_id(c): measure(c) for c in CELLS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cells to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
