"""Tests of the serve benchmark itself: ``python -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _all_frames(seed):
    seen = set()
    hot = W.hot_set(seed, seen)
    misses = W.miss_specs(seed, 500, seen)
    return W.frames(hot) + W.frames(misses) + W.frames(W.heavy_specs(seed))


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert _all_frames(7) == _all_frames(7)
    assert _all_frames(7) != _all_frames(8)
    assert W.heavy_specs(7) != W.heavy_specs(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_workload_key_sets_are_disjoint(seed):
    seen = set()
    hot = {W.spec_key(s) for s in W.hot_set(seed, seen)}
    misses = [W.spec_key(s) for s in W.miss_specs(seed, 2000, seen)]
    heavy = [W.spec_key(s) for s in W.heavy_specs(seed)]
    assert len(set(misses)) == len(misses)
    assert len(set(heavy)) == len(heavy)
    assert not hot & set(misses)
    assert not (hot | set(misses)) & set(heavy)


def test_miss_specs_cover_a_long_run_and_refuse_an_exhausted_cell():
    # A 30 s oracle-misses run sends about 40000 distinct misses.
    seen = set()
    W.hot_set(5, seen)
    assert len(W.miss_specs(5, 40000, seen)) == 40000
    fixed = W.analytic_spec("power8", {"kind": "roofline"})
    with pytest.raises(ValueError, match="exhausted"):
        W._distinct(None, {W.spec_key(fixed)}, lambda: fixed)


def test_hot_set_covers_every_kind_on_every_machine():
    cells = {(s["request"]["kind"], s["machine"]) for s in W.hot_set(3)}
    assert cells == {(k, m) for k in W.ORACLE_KINDS for m in W.MACHINES}


def test_zoo_table_matches_the_registry():
    from repro.arch.registry import available_machines, get_system
    from repro.perfmodel.oracle import REQUEST_KINDS

    assert sorted(W.MACHINES) == available_machines()
    for name, (cores, smt, line) in W.MACHINES.items():
        chip = get_system(name).chip
        assert (chip.cores_per_chip, chip.core.smt_ways, chip.core.l1d.line_size) == (
            cores, smt, line)
    assert sorted(W.ORACLE_KINDS) == sorted(REQUEST_KINDS)


@pytest.mark.parametrize("n, expected", [(1000, 99), (200, 90), (60, 75), (44, 75)])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    values = [float(i) for i in range(n)]
    q, value, beyond = loadgen.tail(values)
    assert q == expected
    assert beyond >= loadgen.TAIL_MIN_BEYOND
    assert beyond == sum(v > value for v in values)


def test_tail_rule_counts_ties_as_not_beyond():
    # p99 lands on a tie with the 15 largest values, so none is beyond it.
    values = [1.0] * 985 + [2.0] * 15
    q, value, beyond = loadgen.tail(values)
    assert (q, beyond) == (90, 15)


def test_tail_rule_rejects_too_few_samples():
    with pytest.raises(loadgen.BenchError):
        loadgen.tail([float(i) for i in range(30)])


def _line(request_id, payload, ok=True):
    return json.dumps({"id": request_id, "ok": ok, "payload": payload}).encode()


def test_output_check_accepts_reference_and_rejects_tampered_payload():
    spec = W.analytic_spec("power8", {"kind": "chase", "working_set": 1 << 20})
    refs = check.References()
    refs.add_analytic([spec])
    good = refs.expected[W.spec_key(spec)]
    tally = check.check_responses([spec], 5, [_line(5, good)], refs)
    assert (tally.ok, tally.failed, tally.mismatches) == (1, 0, [])

    tampered = json.loads(json.dumps(good))
    tampered["rows"][0][1] += 1e-9
    tally = check.check_responses([spec], 5, [_line(5, tampered)], refs)
    assert tally.failed == 1 and tally.mismatches

    tally = check.check_responses([spec], 5, [_line(6, good)], refs)
    assert tally.failed == 1 and "id" in tally.mismatches[0]


def test_output_check_counts_experiment_error_row_as_failed():
    spec = {"kind": "experiment", "machine": "power7", "experiment": "fig11"}
    payload = {"experiment_id": "fig11", "error": "ValueError: threads", "attempts": 2}
    tally = check.check_responses([spec], 1, [_line(1, payload)], check.References())
    assert (tally.ok, tally.failed, tally.attempts) == (0, 1, 2)
    assert tally.error_rows and not tally.mismatches


def test_reconcile_flags_a_mix_that_is_not_what_it_claims():
    clean = {"requests": 10, "lru_hits": 10, "computed": 0,
             "shed": 0, "quota_shed": 0, "deadline_misses": 0}
    cold = dict(clean, lru_hits=0, computed=10)
    assert check.reconcile("hot-hits", "p", clean, 10) == []
    assert check.reconcile("hot-hits", "p", dict(clean, computed=1), 10)
    assert check.reconcile("oracle-misses", "p", cold, 10) == []
    assert check.reconcile("oracle-misses", "p", clean, 10)
    assert check.reconcile("heavy-lanes", "p", cold, 10) == []
    assert check.reconcile("heavy-lanes", "p", dict(cold, shed=1), 10)
    assert check.reconcile("heavy-lanes", "p", dict(cold, requests=9), 10)


def test_span_attribution_nests_by_time_and_computes_self_time():
    spans = [
        ("daemon.handle", None, 100, 200),
        ("lru.get", None, 110, 130),
        ("diskcache.get", None, 115, 125),
        ("oracle.predict", "chase", 150, 180),
        ("protocol.encode", None, 205, 210),
        ("daemon.handle", None, 400, 450),  # outside every window: dropped
    ]
    (group,) = tracing.attribute(spans, [(90, 220)])
    by_name = {n.name: n for n in group}
    assert len(group) == 5
    assert by_name["diskcache.get"].parent is by_name["lru.get"]
    assert by_name["oracle.predict"].parent is by_name["daemon.handle"]
    assert by_name["protocol.encode"].parent is None
    assert by_name["lru.get"].self_ns() == 10
    assert by_name["daemon.handle"].self_ns() == 100 - 20 - 30
    for node in group:
        if node.parent is not None:
            assert node.dur <= node.parent.dur
    metrics = tracing.layer_metrics([group], [(90, 220)])
    assert metrics["daemon.lane_wait_us"] == (0.02, "us")
    assert metrics["daemon.transport_us"] == (0.03, "us")
