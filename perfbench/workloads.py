"""What each benchmark workload runs, and the seeded serve mix.

Scales are chosen so one warm simulation takes at least ~50 ms on a
2-vCPU host (linpack100's size is fixed by its problem, whatever the
scale), which keeps timer resolution and per-call noise small against
the work timed.  The lists are part of the benchmark definition: a
change to them is a benchmark change and needs new pins.
"""

from __future__ import annotations

import random

#: JIT-batchable, L2-resident kernels: timing core, JIT replay, plan
#: cache and the L2 all-hit lane do nearly all the work
SIM_DENSE = (
    ("linpack100", 0.05), ("linpacktpp", 0.03), ("dgemm", 0.07),
    ("dtrmm", 0.1), ("lu", 0.04), ("swim", 0.15),
)

#: gather/scatter, masked and memory-bound kernels the JIT rejects or
#: barely batches: CR-box tournaments, MAF sleeps, Zbox fills and
#: write-backs (rndcopy/rndmemscale run with Table 4's drain policy)
SIM_IRREGULAR = (
    ("ccradix", 0.02), ("sparsemxv", 0.3), ("moldyn", 1.0), ("fft", 0.05),
    ("rivec.spmv.csr", 0.3), ("rivec.streamcluster", 1.5),
    ("rndcopy", 0.25), ("rndmemscale", 0.15),
)

SIM_KERNELS = {"sim-dense": SIM_DENSE, "sim-irregular": SIM_IRREGULAR}

#: ``repro report`` arguments of the report-quick workload
REPORT_ARGS = ("report", "--quick", "--jobs", "1")

#: serve hits: Figure 7 kernels on T and EV8, so the served payloads
#: also give the Tarantula-over-EV8 speedup error
_HIT_KERNELS = (("swim", 0.05), ("dgemm", 0.02), ("dtrmm", 0.05),
                ("lu", 0.02), ("fft", 0.02), ("sparsemxv", 0.1),
                ("moldyn", 0.05), ("linpacktpp", 0.02))
SERVE_HITS = tuple({"kernel": k, "config": c, "scale": s}
                   for k, s in _HIT_KERNELS for c in ("T", "EV8"))

#: serve misses: small, distinct specs (a MAF-size override makes each
#: one a fresh cache key); every one is pinned
_MISS_KERNELS = (("streams.copy", 0.02), ("streams.triad", 0.02),
                 ("rivec.axpy", 0.1), ("rivec.jacobi2d", 0.05))
SERVE_MISSES = tuple({"kernel": k, "config": "T", "scale": s,
                      "overrides": {"maf_entries": m}}
                     for m in range(16, 144) for k, s in _MISS_KERNELS)

#: servers started per serve-mixed run, each answering one cold request
#: with the next spec of the seeded miss order before the closed loop
#: takes the rest (a multiple of the miss kernels, so the cold requests
#: hold each kernel equally)
SERVE_STARTS = 2 * len(_MISS_KERNELS)
#: requests per miss in the serve mix: about 90% resubmit a cached spec
OPS_PER_MISS = 10
#: closed-loop client connections
SERVE_CLIENTS = 2


def sim_spec(kernel: str, scale: float):
    """The ExperimentSpec one sim-* cell runs (config T, checked)."""
    from repro.harness import tables
    from repro.harness.engine import ExperimentSpec

    spec = ExperimentSpec(kernel=kernel, config="T", scale=scale, check=True)
    if kernel in ("rndcopy", "rndmemscale"):
        # Table 4's drain and L2-size policy, with the output check kept
        spec = tables._table4_adjust(spec, kernel, None)
    return spec


def miss_order(seed: int) -> list:
    """The seeded order in which fresh (uncached) specs are drawn.

    It is made of blocks holding one spec of each miss kernel, so any
    run draws the kernels in equal shares and only their order varies
    with the seed: the miss latencies of two seeds are comparable.
    """
    rng = random.Random(f"misses:{seed}")
    n = len(_MISS_KERNELS)
    # SERVE_MISSES lists the kernels of one MAF size next to each other
    blocks = [list(range(i, i + n)) for i in range(0, len(SERVE_MISSES), n)]
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return [i for block in blocks for i in block]


def client_ops(seed: int, client: int):
    """Endless seeded op stream of one client: ``("hit", index)`` or
    ``("miss", None)``, the miss taking the next fresh spec.

    Every :data:`OPS_PER_MISS` ops hold exactly one miss, at a seeded
    place, and the hits go through seeded permutations of SERVE_HITS, so
    the mix is the same for every seed and only its order varies.
    """
    rng = random.Random(f"client:{seed}:{client}")
    hits: list = []
    while True:
        miss_at = rng.randrange(OPS_PER_MISS)
        for i in range(OPS_PER_MISS):
            if i == miss_at:
                yield "miss", None
                continue
            if not hits:
                hits = list(range(len(SERVE_HITS)))
                rng.shuffle(hits)
            yield "hit", hits.pop()
