"""Regenerate perfbench/pins.json from the current program.

    python3 perfbench/make_pins.py

Pins are the benchmark's correctness oracle: ``float.hex`` cycles of
every simulated (kernel, config, scale), the payload digest of every
serve spec (from a serial ``execute()``), and the sha256 of the
report-quick stdout.  Only a change to the benchmark itself may
regenerate them, and its CHANGES.md line must say why.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from common import PINS_PATH, SRC, child_env, cycles_pin_key, payload_digest
from workloads import REPORT_ARGS, SERVE_HITS, SERVE_MISSES, SIM_KERNELS, \
    sim_spec


def sim_pins() -> dict:
    from repro.harness.engine import ExperimentSpec, execute
    from repro.harness.paper_data import FIGURE7_SPEEDUP_T

    pins = {}
    for kernels in SIM_KERNELS.values():
        for kernel, scale in kernels:
            spec = sim_spec(kernel, scale)
            pins[cycles_pin_key(kernel, "T", scale)] = \
                execute(spec).cycles.hex()
            if kernel in FIGURE7_SPEEDUP_T:
                ev8 = ExperimentSpec(kernel=kernel, config="EV8", scale=scale)
                pins[cycles_pin_key(kernel, "EV8", scale)] = \
                    execute(ev8).cycles.hex()
    return pins


def serve_pins() -> dict:
    from repro.harness.engine import execute
    from repro.serve import outcome_payload, spec_from_json
    from servebench import spec_key

    return {spec_key(spec): payload_digest(
        outcome_payload(execute(spec_from_json(spec))))
        for spec in SERVE_HITS + SERVE_MISSES}


def report_pins() -> dict:
    """Digest of a cold report's stdout, the cell count of a warm one,
    and every (kernel, scale) instance the report builds."""
    import hashlib

    import repro.cli  # noqa: F401
    from repro.workloads.registry import REGISTRY

    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "repro", *REPORT_ARGS]
        cold = subprocess.run(cmd, cwd=tmp, env=child_env(),
                              capture_output=True, check=True)
        warm = subprocess.run(cmd, cwd=tmp, env=child_env(),
                              capture_output=True, check=True)
        if warm.stdout != cold.stdout:
            raise RuntimeError("warm report stdout differs from cold")
        simulated, loaded = map(int, re.search(
            rb"(\d+) cell\(s\) simulated, (\d+) loaded", warm.stderr
        ).groups())
        built = []
        for cls in {type(w) for w in REGISTRY.values()}:
            def build(self, scale=1.0, _orig=cls.build):
                built.append((self.name, scale))
                return _orig(self, scale)
            cls.build = build
        import contextlib
        import io
        import os

        os.chdir(tmp)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            repro.cli.main(list(REPORT_ARGS))
    return {"report_stdout_sha256": hashlib.sha256(cold.stdout).hexdigest(),
            "report_cells": simulated + loaded,
            "report_instances": sorted(set(built))}


def main() -> int:
    sys.path.insert(0, str(SRC))
    pins = {"cycles": sim_pins(), "serve": serve_pins(), **report_pins()}
    Path(PINS_PATH).write_text(json.dumps(pins, indent=1, sort_keys=True)
                               + "\n")
    print(f"wrote {PINS_PATH}: {len(pins['cycles'])} cycle pins, "
          f"{len(pins['serve'])} serve payloads, "
          f"{len(pins['report_instances'])} report instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
