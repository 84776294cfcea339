"""Span recording for the traced run, and the per-layer breakdown.

:func:`install` runs inside the daemon process (from
``traced_daemon.py``) before ``repro.serve.__main__.main``.  It wraps
each layer's public entry points and appends one
``(name, tag, start_ns, end_ns)`` tuple per call to an in-memory list,
written out once at drain.  ``repro.serve.daemon`` imports its helpers
by name, so those are wrapped in the daemon module's namespace; methods
are wrapped on their classes; the trace-lane functions are wrapped as
``repro.parallel.runner`` globals, where ``run_trace_sharded`` looks
them up.

:func:`attribute` runs in the generator.  The traced replay keeps one
request outstanding, so each span belongs to the request whose client
window (send to response line) contains it, lane-thread spans included,
and its parent is the smallest other span of that request containing
it.  Both clocks are ``CLOCK_MONOTONIC`` (``time.perf_counter_ns``), so
the daemon's spans and the generator's windows share a time base.
"""

from __future__ import annotations

import bisect
import functools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from workloads import FREE_KINDS

Span = Tuple[str, Optional[str], int, int]

NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}
#: Span names of the calls that do a request's compute.
COMPUTE_SPANS = ("oracle.predict", "tracesim.request", "experiment.run")


class Recorder:
    """The daemon-side span list; ``list.append`` is atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def wrap(self, fn: Callable, name: str,
             tag: Optional[Callable[..., Any]] = None) -> Callable:
        append = self.spans.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                append((name, tag(*args, **kwargs) if tag else None, start, clock()))

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        append = self.spans.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                append((name, None, start, clock()))

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _shard_accesses(task) -> int:
    warm = task.warm_addrs.size if task.warm_addrs is not None else 0
    return int(task.addrs.size + warm)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    from repro.parallel import cache as diskcache
    from repro.parallel import runner
    from repro.perfmodel import oracle
    from repro.serve import daemon, lru, protocol

    w = recorder.wrap
    for attr, name in (
        ("decode_message", "protocol.decode"),
        ("encode_message", "protocol.encode"),
        ("normalize_request", "protocol.normalize"),
        ("canonical", "protocol.canonical"),
        ("trace_payload", "tracesim.payload"),
        ("experiment_payload", "experiment.payload"),
        ("run_with_policy", "experiment.run"),
        ("sharded_traced_latency", "tracesim.request"),
    ):
        setattr(daemon, attr, w(getattr(daemon, attr), name))
    protocol.NormalizedRequest.key = w(protocol.NormalizedRequest.key, "protocol.key")
    lru.TieredResultCache.get = w(lru.TieredResultCache.get, "lru.get")
    lru.TieredResultCache.put = w(lru.TieredResultCache.put, "lru.put")
    diskcache.ResultCache.get = w(diskcache.ResultCache.get, "diskcache.get")
    diskcache.ResultCache.put = w(diskcache.ResultCache.put, "diskcache.put")
    oracle.AnalyticOracle.predict = w(
        oracle.AnalyticOracle.predict, "oracle.predict",
        tag=lambda self, request: request.kind,
    )
    runner.plan_trace_tasks = w(runner.plan_trace_tasks, "tracesim.plan")
    runner.run_trace_shard = w(
        runner.run_trace_shard, "tracesim.shard", tag=_shard_accesses
    )
    runner.merge_trace_outcomes = w(runner.merge_trace_outcomes, "tracesim.merge")
    daemon.ReproServer.handle_request = recorder.wrap_async(
        daemon.ReproServer.handle_request, "daemon.handle"
    )


# -- analysis (generator side) -------------------------------------------------


class Node:
    __slots__ = ("name", "tag", "start", "end", "parent", "children")

    def __init__(self, span: Sequence[Any]) -> None:
        self.name, self.tag, self.start, self.end = span
        self.parent: Optional[Node] = None
        self.children: List[Node] = []

    @property
    def dur(self) -> int:
        return self.end - self.start

    def self_ns(self) -> int:
        """Duration minus the part of it the children cover."""
        covered, cursor = 0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, cursor), child.end
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.dur - covered


def attribute(spans: Sequence[Span], windows: Sequence[Tuple[int, int]]) -> List[List[Node]]:
    """Group spans into the request windows that contain them and link
    each to its parent.  Spans outside every window (warm-up, ``stats``
    ops) are dropped.  Raises if a child outlasts its parent."""
    nodes = sorted((Node(s) for s in spans), key=lambda n: (n.start, -n.end))
    starts = [w[0] for w in windows]
    per_request: List[List[Node]] = [[] for _ in windows]

    for node in nodes:
        i = bisect.bisect_right(starts, node.start) - 1
        if i >= 0 and node.end <= windows[i][1]:
            per_request[i].append(node)
    for group in per_request:
        open_: List[Node] = []
        for node in group:  # sorted by start, longest first on ties
            while open_ and open_[-1].end < node.end:
                open_.pop()
            if open_:
                node.parent = open_[-1]
                open_[-1].children.append(node)
                if node.dur > node.parent.dur:
                    raise ValueError(f"child {node.name} outlasts parent {node.parent.name}")
            open_.append(node)
    return per_request


def layer_metrics(
    per_request: List[List[Node]], windows: Sequence[Tuple[int, int]]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer ``(value, unit)`` over the traced requests: medians of
    per-request times, 0.0 where a layer never ran."""
    totals: Dict[str, List[float]] = {}
    selfs: Dict[str, List[float]] = {}
    per_kind: Dict[str, List[float]] = {}
    lane_wait: List[float] = []
    transport: List[float] = []
    accesses = 0
    shard_ns = 0
    for group, (sent, received) in zip(per_request, windows):
        req_total: Dict[str, int] = {}
        req_self: Dict[str, int] = {}
        for node in group:
            req_total[node.name] = req_total.get(node.name, 0) + node.dur
            req_self[node.name] = req_self.get(node.name, 0) + node.self_ns()
            if node.name == "oracle.predict":
                per_kind.setdefault(node.tag, []).append(node.dur)
            elif node.name == "tracesim.shard":
                accesses += node.tag
                shard_ns += node.dur
        for name, value in req_total.items():
            totals.setdefault(name, []).append(value)
        for name, value in req_self.items():
            selfs.setdefault(name, []).append(value)
        handles = [n for n in group if n.name == "daemon.handle"]
        if handles:
            transport.append((received - sent) - handles[0].dur)
        gets = [n for n in group if n.name == "lru.get"]
        computes = [n for n in group if n.name in COMPUTE_SPANS]
        if gets and computes:
            lane_wait.append(min(c.start for c in computes) - gets[0].end)

    def med(values: Optional[List[float]], unit: str) -> float:
        return statistics.median(values) / NS_PER[unit] if values else 0.0

    timed = {  # metric: (span name, self time?, unit)
        "protocol.decode_us": ("protocol.decode", False, "us"),
        "protocol.encode_us": ("protocol.encode", False, "us"),
        "protocol.normalize_us": ("protocol.normalize", False, "us"),
        "protocol.key_us": ("protocol.key", False, "us"),
        "protocol.canonical_us": ("protocol.canonical", False, "us"),
        "lru.get_us": ("lru.get", True, "us"),
        "lru.put_us": ("lru.put", True, "us"),
        "diskcache.get_us": ("diskcache.get", False, "us"),
        "diskcache.put_us": ("diskcache.put", False, "us"),
        "daemon.handle_us": ("daemon.handle", False, "us"),
        "daemon.self_us": ("daemon.handle", True, "us"),
        "oracle.predict_us": ("oracle.predict", False, "us"),
        "tracesim.request_s": ("tracesim.request", False, "s"),
        "tracesim.plan_ms": ("tracesim.plan", False, "ms"),
        "tracesim.shard_s": ("tracesim.shard", False, "s"),
        "tracesim.merge_ms": ("tracesim.merge", False, "ms"),
        "tracesim.payload_ms": ("tracesim.payload", False, "ms"),
        "experiment.run_s": ("experiment.run", False, "s"),
    }
    out = {
        metric: (med((selfs if own else totals).get(span), unit), unit)
        for metric, (span, own, unit) in timed.items()
    }
    out["daemon.lane_wait_us"] = (med(lane_wait, "us"), "us")
    out["daemon.transport_us"] = (med(transport, "us"), "us")
    out["tracesim.accesses"] = (float(accesses), "count")
    out["tracesim.accesses_per_s"] = (accesses / (shard_ns * 1e-9) if shard_ns else 0.0, "1/s")
    for kind in FREE_KINDS:
        out[f"oracle.predict_us.{kind}"] = (med(per_kind.get(kind), "us"), "us")
    return out
