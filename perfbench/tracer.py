"""Per-layer tracing installed from the benchmark's own files.

:class:`Tracer` keeps one span stack per thread and derives inclusive
and self time online: a frame's self time is its duration minus the
time its child frames cover, and a name's inclusive time counts only
its outermost frame, so recursion is not counted twice.  Cell-level
calls (build, cache key/get/put, execute, verify, render, serve
request) are also kept as spans with an id and a parent; per-instruction
hot functions are only aggregated, and ``Counter.add`` is only counted.

:func:`install` wraps the program's public functions in place; nothing
in ``src/`` knows it is being traced.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time

#: names whose calls are kept as individual spans (everything else is
#: aggregated only)
SPAN_NAMES = frozenset({
    "workloads.build", "harness.cache_key", "harness.cache_get",
    "harness.cache_put", "harness.execute", "harness.execute_many",
    "harness.verify", "harness.render", "serve.request", "serve.probe",
})

#: counters summed from each simulated outcome's component stats
_OUTCOME_COUNTERS = (
    ("instructions", None), ("l2_hits", ("l2", "line_hits")),
    ("l2_misses", ("l2", "line_misses")),
    ("plan_hits", ("addr_gens", "plan_cache_hits")),
    ("plan_misses", ("addr_gens", "plan_cache_misses")),
    ("vtlb_misses", ("vtlb", "misses")), ("maf_sleeps", ("maf", "sleeps")),
    ("rambus_bytes", None),
)


class Tracer:
    """Span stacks (one per thread) with online self-time aggregation."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: name -> [calls, inclusive_s, self_s]
        self.agg: dict = {}
        #: closed spans: (id, parent_id, name, start, end, thread_id)
        self.spans: list = []
        self._counts: dict = {}
        #: per-outcome counters (see _OUTCOME_COUNTERS)
        self.outcomes = {name: 0 for name, _ in _OUTCOME_COUNTERS}
        self.cache_gets = 0
        self.cache_hits = 0
        self.queue_depth_max = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        sid = next(self._ids) if name in SPAN_NAMES else None
        self._stack().append([name, self.clock(), 0.0, sid])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, child, sid = stack.pop()
        dur = end - start
        recursive = False
        parent = None
        for frame in stack:
            if frame[0] == name:
                recursive = True
            if frame[3] is not None:
                parent = frame[3]
        if stack:
            stack[-1][2] += dur
        with self._lock:
            row = self.agg.get(name)
            if row is None:
                row = self.agg[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[2] += dur - child
            if not recursive:
                row[1] += dur
            if sid is not None:
                self.spans.append((sid, parent, name, start, end,
                                   threading.get_ident()))

    def count(self, name: str):
        """A counting hook: returns a callable bumping ``name``."""
        counter = self._counts.setdefault(name, itertools.count())
        return counter.__next__

    def counted(self, name: str) -> int:
        counter = self._counts.get(name)
        # reading consumes one tick of the count
        return next(counter) if counter is not None else 0

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def total_self(self) -> float:
        return sum(row[2] for row in self.agg.values())

    def wrap(self, func, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.exit()

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def record_outcome(self, outcome) -> None:
        """Fold one simulated outcome's counters into the totals."""
        detail = getattr(outcome, "detail", None)
        counts = getattr(detail, "counts", None)
        if counts is None and hasattr(detail, "scalar_instructions"):
            counts = detail                 # functional-mode outcome
        if counts is not None:
            self.outcomes["instructions"] += (counts.scalar_instructions
                                              + counts.vector_instructions)
        stats = getattr(detail, "component_stats", None) or {}
        for name, path in _OUTCOME_COUNTERS:
            if path is not None:
                self.outcomes[name] += stats.get(path[0], {}).get(path[1], 0)
        self.outcomes["rambus_bytes"] += getattr(detail, "mem_raw_bytes", 0)


def _patch_function(module, attr: str, wrapped, orig) -> None:
    """Replace ``module.attr`` and every ``from module import attr``
    alias elsewhere in the package."""
    setattr(module, attr, wrapped)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name.startswith("repro") and getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in the README's layer table."""
    import repro.cli  # noqa: F401 - load every module a user run loads
    from repro.core.functional import FunctionalSimulator
    from repro.core.processor import TarantulaProcessor
    from repro.harness import engine, report
    from repro.jit import runtime
    from repro.mem.l2cache import BankedL2
    from repro.mem.zbox import Zbox
    from repro.scalar.ev8 import EV8Model
    from repro.utils import timeline
    from repro.utils.stats import Counter
    from repro.vbox.address_gen import AddressGenerators
    from repro.vbox.crbox import ConflictResolutionBox
    from repro.vbox.vtlb import VectorTLB
    from repro.workloads.registry import REGISTRY

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    # workload build, and the instance's numpy check it returns
    for cls in {type(w) for w in REGISTRY.values()}:
        build = cls.build

        def traced_build(self, *args, _build=build, **kwargs):
            tracer.enter("workloads.build")
            try:
                inst = _build(self, *args, **kwargs)
            finally:
                tracer.exit()
            inst.check = tracer.wrap(inst.check, "harness.verify")
            return inst

        cls.build = traced_build

    def function(module, attr, name, after=None):
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result)
            return result

        _patch_function(module, attr, traced, orig)

    function(engine, "cache_key", "harness.cache_key")
    function(engine, "execute", "harness.execute",
             after=tracer.record_outcome)
    function(engine, "execute_many", "harness.execute_many")
    function(runtime, "run_timing", "jit.run_timing")
    for attr in dir(report):
        if attr.startswith("render_"):
            function(report, attr, "harness.render")

    get = engine.ResultCache.get

    def traced_get(self, key):
        tracer.enter("harness.cache_get")
        try:
            hit = get(self, key)
        finally:
            tracer.exit()
        tracer.cache_gets += 1
        tracer.cache_hits += hit is not None
        return hit

    engine.ResultCache.get = traced_get
    method(engine.ResultCache, "put", "harness.cache_put")
    method(EV8Model, "run", "scalar.ev8_run")
    method(TarantulaProcessor, "execute_program", "core.timing")
    method(TarantulaProcessor, "step", "core.step")
    method(FunctionalSimulator, "step", "core.functional_step")
    method(AddressGenerators, "plan", "vbox.plan")
    method(ConflictResolutionBox, "pack", "vbox.crbox_pack")
    method(VectorTLB, "translate_elements", "vbox.vtlb_translate")
    method(BankedL2, "access_slice", "mem.access_slice")
    for attr in ("fill_line", "writeback_line", "dirty_transition"):
        method(Zbox, attr, "mem.zbox")
    for cls in (timeline.ResourceTimeline, timeline.CalendarTimeline,
                timeline.MultiPortTimeline):
        method(cls, "reserve", "utils.reserve")

    add = Counter.add
    bump = tracer.count("utils.counter_add")

    def counted_add(self, name, amount=1):
        bump()
        return add(self, name, amount)

    Counter.add = counted_add


def install_serve(tracer: Tracer) -> None:
    """Extra serve-layer hooks: the admission probe and queue depth."""
    from repro.serve import jobs, server

    probe = server.ReproServer._probe_sync
    server.ReproServer._probe_sync = tracer.wrap(probe, "serve.probe")
    offer = jobs.JobQueue.offer

    def traced_offer(self, job):
        ok = offer(self, job)
        tracer.queue_depth_max = max(tracer.queue_depth_max, len(self))
        return ok

    jobs.JobQueue.offer = traced_offer


def jit_snapshot() -> dict:
    from repro.jit import STATS

    return STATS.as_dict()


def layer_values(tracer: Tracer, jit_before: dict, jit_after: dict,
                 wall_s: float) -> dict:
    """Per-layer numbers of one traced process (summable across
    processes; ratios are formed later by :func:`finish_layers`)."""
    t = tracer
    jit = {k: jit_after[k] - jit_before.get(k, 0) for k in jit_after}
    return {
        "workloads.build.calls": t.calls("workloads.build"),
        "workloads.build.s": t.incl("workloads.build"),
        "harness.cache_key.calls": t.calls("harness.cache_key"),
        "harness.cache_key.s": t.incl("harness.cache_key"),
        "harness.cache_get.s": t.incl("harness.cache_get"),
        "harness.cache_put.s": t.incl("harness.cache_put"),
        "harness.execute.calls": t.calls("harness.execute"),
        "harness.execute.self_s": t.self_s("harness.execute"),
        "harness.verify.s": t.incl("harness.verify"),
        "harness.render.s": t.incl("harness.render"),
        "scalar.ev8_run.calls": t.calls("scalar.ev8_run"),
        "scalar.ev8_run.s": t.incl("scalar.ev8_run"),
        "core.timing.s": t.incl("core.timing"),
        "core.step.calls": t.calls("core.step"),
        "core.step.self_s": t.self_s("core.step"),
        "core.functional_step.calls": t.calls("core.functional_step"),
        "core.functional_step.s": t.incl("core.functional_step"),
        "jit.run_timing.self_s": t.self_s("jit.run_timing"),
        "jit.traces_compiled": jit.get("traces_compiled", 0),
        "jit.deopts": jit.get("deopts", 0),
        "jit.compile_rejects": jit.get("compile_rejects", 0),
        "vbox.plan.calls": t.calls("vbox.plan"),
        "vbox.plan.self_s": t.self_s("vbox.plan"),
        "vbox.crbox_pack.calls": t.calls("vbox.crbox_pack"),
        "vbox.crbox_pack.s": t.incl("vbox.crbox_pack"),
        "vbox.vtlb_translate.s": t.incl("vbox.vtlb_translate"),
        "vbox.vtlb_misses": t.outcomes["vtlb_misses"],
        "mem.access_slice.calls": t.calls("mem.access_slice"),
        "mem.access_slice.self_s": t.self_s("mem.access_slice"),
        "mem.zbox.calls": t.calls("mem.zbox"),
        "mem.zbox.s": t.incl("mem.zbox"),
        "mem.maf_sleeps": t.outcomes["maf_sleeps"],
        "mem.rambus_bytes": t.outcomes["rambus_bytes"],
        "utils.reserve.calls": t.calls("utils.reserve"),
        "utils.reserve.s": t.incl("utils.reserve"),
        "utils.counter_add.calls": t.counted("utils.counter_add"),
        "serve.queue_depth_max": t.queue_depth_max,
        # numerators and denominators of the ratios
        "_batched": jit.get("batched_instructions", 0),
        "_instructions": t.outcomes["instructions"],
        "_trace_hits": jit.get("trace_cache_hits", 0),
        "_trace_lookups": (jit.get("trace_cache_hits", 0)
                           + jit.get("trace_cache_misses", 0)),
        "_cache_hits": t.cache_hits, "_cache_gets": t.cache_gets,
        "_plan_hits": t.outcomes["plan_hits"],
        "_plan_lookups": t.outcomes["plan_hits"] + t.outcomes["plan_misses"],
        "_l2_hits": t.outcomes["l2_hits"],
        "_l2_lines": t.outcomes["l2_hits"] + t.outcomes["l2_misses"],
        "_covered_s": t.total_self(),
        "_wall_s": wall_s,
    }


def merge_layers(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "serve.queue_depth_max":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def finish_layers(total: dict, overhead_ratio: float,
                  serve: dict | None = None) -> dict:
    """Every per-layer metric, from summed :func:`layer_values`: the
    ratios and the trace.* rows are formed here, and a layer the
    workload never reached reads 0."""
    def ratio(num, den):
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    out = {k: v for k, v in total.items() if not k.startswith("_")}
    out["harness.cache_hit_ratio"] = ratio("_cache_hits", "_cache_gets")
    out["jit.batched_fraction"] = ratio("_batched", "_instructions")
    out["jit.trace_hit_ratio"] = ratio("_trace_hits", "_trace_lookups")
    out["vbox.plan_cache_hit_ratio"] = ratio("_plan_hits", "_plan_lookups")
    out["mem.l2_line_hit_ratio"] = ratio("_l2_hits", "_l2_lines")
    out["trace.coverage"] = ratio("_covered_s", "_wall_s")
    out["trace.other_self_s"] = max(
        0.0, total.get("_wall_s", 0.0) - total.get("_covered_s", 0.0))
    out["trace.overhead_ratio"] = overhead_ratio
    for key in ("serve.engine_p50_ms", "serve.overhead_p50_ms",
                "serve.dedupe_hits", "serve.rejected"):
        out[key] = (serve or {}).get(key, 0)
    return out


def serve_split(tracer: Tracer, requests) -> dict:
    """Engine time and serve overhead per request, from spans.

    ``requests`` are ``(start, end)`` client-side intervals of requests
    sent one at a time, so every server-side engine span (admission
    probe, engine batch) that starts inside an interval belongs to it.
    """
    engine = sorted((s[3], s[4] - s[3]) for s in tracer.spans
                    if s[2] in ("serve.probe", "harness.execute_many")
                    and s[1] is None)
    engine_ms, overhead_ms = [], []
    i = 0
    for start, end in requests:
        while i < len(engine) and engine[i][0] < start:
            i += 1
        busy = 0.0
        j = i
        while j < len(engine) and engine[j][0] <= end:
            busy += engine[j][1]
            j += 1
        engine_ms.append(busy * 1e3)
        overhead_ms.append(max(0.0, (end - start) - busy) * 1e3)
    if not engine_ms:
        return {"serve.engine_p50_ms": 0.0, "serve.overhead_p50_ms": 0.0}
    return {"serve.engine_p50_ms": statistics.median(engine_ms),
            "serve.overhead_p50_ms": statistics.median(overhead_ms)}
