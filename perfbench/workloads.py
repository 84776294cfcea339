"""Seeded request schedules for the serve benchmark.

Every schedule is a pure function of ``(seed, counts)``: the same seed
gives byte-identical frames, a different seed gives different ones.
Frames are built here, as compact JSON lines, without going through
``repro.serve.client`` or ``repro.serve.protocol``, so a change to the
protocol module cannot change the load the daemon is offered.

The zoo table below is copied rather than read from
``repro.arch.registry`` for the same reason; ``tests/test_perfbench.py``
checks that it still matches the registry.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Sequence, Tuple

#: Canonical zoo names with (cores per chip, SMT ways, L1D line bytes).
MACHINES: Dict[str, Tuple[int, int, int]] = {
    "power8": (8, 8, 128),
    "power8-192way": (12, 8, 128),
    "power7": (8, 4, 128),
    "sparc-t3-4": (16, 8, 64),
    "broadwell": (18, 2, 64),
    "cascade-lake": (20, 2, 64),
}

#: Oracle kinds with no free parameter: one distinct request per machine.
FIXED_KINDS = ("stream_table3", "dscr_model", "dcbt", "roofline")
#: Oracle kinds whose parameters the generator draws.
FREE_KINDS = (
    "chase", "lat_mem", "stream_sweep", "prefetch_sweep",
    "stride", "stream_point", "random_access", "stream_scaling",
)
ORACLE_KINDS = FIXED_KINDS + FREE_KINDS

#: Distinct hot-hits requests per (free kind, machine) cell.
HOT_PER_CELL = 5

#: Heavy-lanes trace working sets (bytes): cache-resident to DRAM-bound.
TRACE_CLASSES = (256 << 10, 1 << 20, 4 << 20)
TRACE_PASSES = 2
#: The registry experiments that run real application kernels, in the
#: order heavy-lanes sends them on every machine.
HEAVY_EXPERIMENTS = ("fig11", "fig10")

KiB = 1 << 10
MiB = 1 << 20


def _log_uniform(rng: random.Random, lo: int, hi: int, align: int) -> int:
    """An ``align``-multiple drawn log-uniformly from [lo, hi]."""
    value = int(lo * (hi / lo) ** rng.random())
    return max(align, value // align * align)


def _subset(rng: random.Random, pool: Sequence[int], lo: int, hi: int) -> List[int]:
    return sorted(rng.sample(list(pool), rng.randint(lo, hi)))


def oracle_request(rng: random.Random, kind: str, machine: str) -> Dict[str, Any]:
    """One valid oracle request dict of ``kind`` for ``machine``."""
    cores, smt, _ = MACHINES[machine]
    request: Dict[str, Any] = {"kind": kind}
    page = rng.choice((4 * KiB, 64 * KiB))
    if kind == "chase":
        request.update(working_set=_log_uniform(rng, 16 * KiB, 1 << 30, 64),
                       page_size=page)
    elif kind == "lat_mem":
        request.update(
            working_sets=sorted({_log_uniform(rng, 16 * KiB, 1 << 30, 64)
                                 for _ in range(rng.randint(3, 6))}),
            page_size=page,
        )
    elif kind == "stream_sweep":
        request.update(working_set=_log_uniform(rng, 64 * KiB, 64 * MiB, 128),
                       depth=rng.randint(0, 7), page_size=page)
    elif kind == "prefetch_sweep":
        request.update(working_set=_log_uniform(rng, 64 * KiB, 16 * MiB, 128),
                       depths=_subset(rng, range(1, 8), 2, 6))
    elif kind == "stride":
        request.update(stride_lines=rng.randint(1, 1 << 16))
    elif kind == "stream_point":
        if rng.random() < 0.5:
            request.update(cores=rng.randint(1, cores),
                           threads_per_core=rng.randint(1, smt))
        else:
            request.update(read_ratio=rng.randint(1, 64) / 8,
                           write_ratio=rng.randint(0, 64) / 8)
    elif kind == "random_access":
        request.update(thread_counts=_subset(rng, range(1, smt + 1), 1, min(3, smt)),
                       stream_counts=_subset(rng, range(1, 33), 1, 4))
    elif kind == "stream_scaling":
        # 1 is always present: the kernel takes the max over the rows it
        # keeps, and counts beyond the machine's SMT ways are skipped.  Up
        # to 16 gives 1940 distinct requests per machine, enough for the
        # misses of a 30 s run.
        request.update(thread_counts=[1] + _subset(rng, range(2, 17), 1, 4))
    elif kind not in FIXED_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return request


def analytic_spec(machine: str, request: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": "analytic", "machine": machine, "request": request}


def spec_key(spec: Dict[str, Any]) -> str:
    """The identity two requests share iff the daemon must treat them as one."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def frame(request_id: int, spec: Dict[str, Any]) -> bytes:
    """One request line as sent on the wire."""
    return json.dumps({"id": request_id, **spec}, separators=(",", ":")).encode() + b"\n"


#: Draws :func:`_distinct` makes before it gives up on a cell.
MAX_DRAWS = 1000


def _distinct(rng: random.Random, seen: set, make) -> Dict[str, Any]:
    for _ in range(MAX_DRAWS):
        spec = make()
        key = spec_key(spec)
        if key not in seen:
            seen.add(key)
            return spec
    raise ValueError(f"no new request after {MAX_DRAWS} draws: the cell of {spec_key(spec)} "
                     "is nearly exhausted; send fewer requests")


def hot_set(seed: int, seen: set | None = None) -> List[Dict[str, Any]]:
    """The hot-hits working set: every oracle kind on every machine."""
    rng = random.Random(f"hot-hits:{seed}")
    seen = set() if seen is None else seen
    specs = []
    for machine in MACHINES:
        for kind in FIXED_KINDS:
            specs.append(_distinct(rng, seen, lambda: analytic_spec(machine, {"kind": kind})))
        for kind in FREE_KINDS:
            for _ in range(HOT_PER_CELL):
                specs.append(_distinct(
                    rng, seen,
                    lambda: analytic_spec(machine, oracle_request(rng, kind, machine)),
                ))
    rng.shuffle(specs)
    return specs


def miss_specs(seed: int, count: int, seen: set) -> List[Dict[str, Any]]:
    """``count`` distinct analytic requests over the free kinds, none in ``seen``.

    Kinds and machines cycle so that every (kind, machine) cell gets an
    equal share whatever the count; parameters come from the seed.
    """
    rng = random.Random(f"oracle-misses:{seed}")
    cells = [(k, m) for k in FREE_KINDS for m in MACHINES]
    rng.shuffle(cells)
    specs = []
    for i in range(count):
        kind, machine = cells[i % len(cells)]
        specs.append(_distinct(
            rng, seen, lambda: analytic_spec(machine, oracle_request(rng, kind, machine)),
        ))
    return specs


def heavy_specs(seed: int) -> List[Dict[str, Any]]:
    """The heavy-lanes mix: the two application experiments on every
    machine, then traces on every machine, class and shard count.

    The order and the working sets are fixed, and the seed picks only each
    trace's chase seed, so every run does the same simulated work in the
    same order on arrays of the same sizes.  Requests are dealt
    round-robin to two callers, so every ``fig11`` (the mix's largest
    allocation, about 200 MiB) goes to the same caller and two never run
    side by side.  Shard counts alternate between the callers.
    """
    rng = random.Random(f"heavy-lanes:{seed}")
    specs: List[Dict[str, Any]] = [
        {"kind": "experiment", "machine": machine, "experiment": experiment}
        for machine in MACHINES for experiment in HEAVY_EXPERIMENTS
    ]
    for m, machine in enumerate(MACHINES):
        for c, size in enumerate(TRACE_CLASSES):
            for shards in ((1, 2) if (m + c) % 2 == 0 else (2, 1)):
                specs.append({
                    "kind": "trace", "machine": machine, "working_set": size,
                    "passes": TRACE_PASSES, "shards": shards,
                    "seed": rng.randrange(1 << 31),
                })
    return specs


def frames(specs: Sequence[Dict[str, Any]], first_id: int = 0) -> List[bytes]:
    return [frame(first_id + i, spec) for i, spec in enumerate(specs)]
