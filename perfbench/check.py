"""Output checks: every response against what the program computes in process.

References are computed with the program's own functions, outside every
timed window:

* analytic: ``canonical(oracle.predict(request).to_dict())`` for every
  analytic request a run sends;
* trace: ``trace_payload(sharded_traced_latency(...)[1])`` and
  experiment: ``experiment_payload(run_with_policy(...))`` for a seeded
  sample (they cost as much as the daemon's own computation); the rest
  get a structural check against their request.

A response fails when it is not ``ok``, carries the wrong id (responses
must arrive in request order), differs from its reference, or is an
experiment row that carries ``error``.  Only the last is not a mismatch:
it is the program's own fail-soft answer, checked like any other
payload, but the request still failed.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Sequence

_TRACE_FIELDS = {
    "accesses", "mean_latency_ns", "level_names", "level_hits",
    "latency_hist_counts", "counters", "ras_events", "ras_derived",
    "shards", "seed",
}
#: Heavy-lanes references per run: traces, experiments.
SAMPLE_TRACES = 2
SAMPLE_EXPERIMENTS = 1


class References:
    """Expected payloads keyed by the request's spec key."""

    def __init__(self) -> None:
        self.expected: Dict[str, Any] = {}
        self._oracles: Dict[str, Any] = {}

    def add_analytic(self, specs: Sequence[Dict[str, Any]]) -> None:
        from repro.arch.registry import get_system
        from repro.perfmodel.oracle import AnalyticOracle, OracleRequest
        from repro.serve.protocol import canonical
        from workloads import spec_key

        for spec in specs:
            machine = spec["machine"]
            if machine not in self._oracles:
                self._oracles[machine] = AnalyticOracle(get_system(machine))
            result = self._oracles[machine].predict(OracleRequest.from_dict(spec["request"]))
            self.expected[spec_key(spec)] = canonical(result.to_dict())

    def add_heavy_sample(self, specs: Sequence[Dict[str, Any]], seed: int) -> None:
        from repro.arch.registry import get_system
        from repro.bench.runner import RunPolicy, run_with_policy
        from repro.parallel.runner import sharded_traced_latency
        from repro.serve.protocol import experiment_payload, trace_payload
        from workloads import spec_key

        rng = random.Random(f"heavy-sample:{seed}")
        traces = [s for s in specs if s["kind"] == "trace"]
        experiments = [s for s in specs if s["kind"] == "experiment"]
        for spec in rng.sample(traces, SAMPLE_TRACES):
            _, result = sharded_traced_latency(
                get_system(spec["machine"]), spec["working_set"],
                page_size=64 * 1024, passes=spec["passes"], seed=spec["seed"],
                shards=spec["shards"], workers=1,
            )
            self.expected[spec_key(spec)] = trace_payload(result)
        for spec in rng.sample(experiments, SAMPLE_EXPERIMENTS):
            result = run_with_policy(spec["experiment"], get_system(spec["machine"]), RunPolicy())
            self.expected[spec_key(spec)] = experiment_payload(result)


class Tally:
    """Sent / ok / failed counts plus the reasons for every failure."""

    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.error_rows: List[str] = []
        self.attempts = 0

    def merge(self, other: "Tally") -> None:
        self.sent += other.sent
        self.ok += other.ok
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.error_rows += other.error_rows
        self.attempts += other.attempts

    def as_dict(self) -> Dict[str, Any]:
        return {"sent": self.sent, "ok": self.ok, "failed": self.failed}


def _structural(spec: Dict[str, Any], payload: Any) -> Optional[str]:
    """Why a payload without a reference cannot answer ``spec``, or None."""
    if not isinstance(payload, dict):
        return "payload is not an object"
    if spec["kind"] == "trace":
        if set(payload) != _TRACE_FIELDS:
            return f"trace payload fields {sorted(payload)}"
        if payload["seed"] != spec["seed"] or payload["shards"] != spec["shards"]:
            return "trace payload seed/shards differ from the request"
        if payload["accesses"] <= 0:
            return "trace payload has no accesses"
        return None
    if spec["kind"] == "experiment":
        if payload.get("experiment_id") != spec["experiment"]:
            return f"experiment payload for {payload.get('experiment_id')!r}"
        return None
    return "analytic request without a reference"


def check_responses(
    specs: Sequence[Dict[str, Any]],
    first_id: int,
    lines: Sequence[bytes],
    refs: References,
) -> Tally:
    """Check one connection's responses against its sent specs, in order."""
    from workloads import spec_key

    tally = Tally()
    tally.sent = len(specs)
    if len(lines) != len(specs):
        tally.mismatches.append(f"{len(lines)} responses to {len(specs)} requests")
    for i, (spec, line) in enumerate(zip(specs, lines)):
        reason = None
        try:
            response = json.loads(line)
        except ValueError:
            response, reason = None, "undecodable response"
        if reason is None and response.get("id") != first_id + i:
            reason = f"id {response.get('id')!r} where {first_id + i} was due"
        elif reason is None and not response.get("ok"):
            reason = f"not ok: {response.get('code')}: {response.get('error')}"
        if reason is None:
            payload = response.get("payload")
            key = spec_key(spec)
            if key in refs.expected:
                if payload != refs.expected[key]:
                    reason = "payload differs from the in-process reference"
            else:
                reason = _structural(spec, payload)
        if reason is not None:
            tally.failed += 1
            tally.mismatches.append(f"request {first_id + i} ({spec_key(spec)}): {reason}")
            continue
        if spec["kind"] == "experiment":
            tally.attempts += int(payload.get("attempts", 0))
            if payload.get("error"):
                tally.failed += 1
                tally.error_rows.append(
                    f"{spec['experiment']} on {spec['machine']}: {payload['error']}"
                )
                continue
        tally.ok += 1
    tally.failed += max(0, len(specs) - len(lines))
    return tally


def reconcile(workload: str, phase: str, delta: Dict[str, int], timed: int) -> List[str]:
    """Counter checks on one phase's ``stats`` deltas; returns the mismatches."""
    problems = []

    def expect(name: str, value: int) -> None:
        if delta.get(name) != value:
            problems.append(f"{workload}/{phase}: {name} = {delta.get(name)}, expected {value}")

    expect("requests", timed)
    for name in ("shed", "quota_shed", "deadline_misses"):
        expect(name, 0)
    if workload == "hot-hits":
        expect("lru_hits", timed)
        expect("computed", 0)
    else:  # every oracle-misses and heavy-lanes request is cold
        expect("computed", timed)
        expect("lru_hits", 0)
    return problems
