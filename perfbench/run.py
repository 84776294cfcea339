"""Serve benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Spawns ``python -m repro.serve`` with default flags (plus a fresh
``--cache-dir`` on the workloads in ``DISK_TIER``), drives it from this
single-threaded process over at most two connections with closed-loop
callers, checks every answer, and prints one JSON object as the last
line of stdout.

Workloads (see ``NOTES.md`` for why each exists):

* ``hot-hits``: every timed request is an LRU hit;
* ``oracle-misses``: every timed request is a distinct analytic miss;
* ``heavy-lanes``: cold trace and application-experiment requests.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it replays the latency schedule one request at a
time on an untraced daemon (counts from its ``stats`` deltas) and,
block for block, on a daemon started through ``traced_daemon.py``
(times from its spans).

The generator and the daemon share one CPU at a time: with one request
outstanding that kept the tail steady, where split or unpinned placement
did not.  The CPU alternates from block to block, so a run samples every
CPU it may use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot-hits", "oracle-misses", "heavy-lanes")
#: The daemon's default LRU capacity, in entries: a copy of
#: ``repro.serve.lru.DEFAULT_LRU_CAPACITY``, so the load stays the same
#: whatever the code under test sets.
DEFAULT_LRU_CAPACITY = 4096

#: Workloads whose daemons get a disk tier (a fresh ``--cache-dir``).
#: oracle-misses runs without one: creating a file in the checkout cost
#: from 0.02 to 0.47 ms of kernel time, varying with the host's state from
#: one minute to the next, against about 1 ms for a whole miss.
DISK_TIER = ("hot-hits", "heavy-lanes")
#: Requests per latency block, requests per throughput block, and the
#: pairs of them per second of ``--seconds`` on a 2-vCPU VM.  A latency
#: block of 1000 requests has 10 beyond its p99.
BLOCKS = {"hot-hits": (1000, 1250, 1.5), "oracle-misses": (1000, 1200, 0.55)}
#: Untimed misses sent before an oracle-misses run is timed: enough to
#: fill the daemon's LRU, so every timed miss is a put that evicts, as in
#: a daemon that has run for a while, and none is a put into a growing LRU.
MISS_WARM = DEFAULT_LRU_CAPACITY + 1000
#: Outstanding requests per connection in a throughput block: the
#: daemon's default ``client_window``.
WINDOW = 32
CONNECTIONS = 2
#: Daemon spawns timed per run for ``setup_s``: before and after the
#: measured phases, so one burst of host noise cannot set the median.
SPAWNS_BEFORE = 3
SPAWNS_AFTER = 2
#: Requests per alternating block of the traced run's replay.
REPLAY_BLOCK = {"hot-hits": 500, "oracle-misses": 200, "heavy-lanes": 4}


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, int]:
    """Counter deltas between two ``stats`` op responses, tiers flattened."""

    def flat(response: Dict[str, Any]) -> Dict[str, int]:
        out = dict(response["stats"])
        tiers = response["tiers"]
        for name, value in tiers["lru"].items():
            out[f"lru.{name}"] = value
        out["lru.integrity_failures"] = tiers["integrity_failures"]
        for name, value in tiers.get("disk", {}).items():
            out[f"disk.{name}"] = value
        return out

    a, b = flat(after), flat(before)
    return {k: a[k] - b.get(k, 0) for k in a}


def _split(specs: Sequence[Any], pairs: int, nl: int, nt: int):
    """``pairs`` latency blocks of ``nl`` and throughput blocks of ``nt``."""
    lat = [specs[b * (nl + nt):b * (nl + nt) + nl] for b in range(pairs)]
    thr = [specs[b * (nl + nt) + nl:(b + 1) * (nl + nt)] for b in range(pairs)]
    return lat, thr


class Bench:
    """One run of one workload: its daemons, phases, checks and counters."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path,
                 cpus: Sequence[int]) -> None:
        import check
        import loadgen
        import workloads

        self.check, self.loadgen, self.workloads = check, loadgen, workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir, self.cpus = workdir, list(cpus)
        self.env = loadgen.env_for(ROOT)
        self.daemons: List[Any] = []
        self.refs = check.References()
        self.tally = check.Tally()
        self.phases: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.counts: Dict[str, int] = {}
        self.setup: List[Any] = []
        self.affinity: Dict[str, set] = {"generator": set(), "daemon": set()}
        self.next_id = 1

    # -- daemons -------------------------------------------------------------
    def spawn(self, traced: bool = False, spans: Path | None = None):
        cache = (Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
                 if self.workload in DISK_TIER else None)
        bootstrap = [str(HERE / "traced_daemon.py"), str(spans)] if traced else None
        daemon = self.loadgen.Daemon(
            self.loadgen.serve_argv(cache, bootstrap), self.env,
            self.place(len(self.daemons)),
            self.workdir / "daemon.log",
        )
        self.daemons.append(daemon)
        return daemon

    def place(self, step: int, daemon=None) -> int:
        """Pin the generator (and ``daemon``) to the CPU for ``step``.

        Steps alternate over the CPUs this process may use, so a run
        samples each of them about equally and one slow CPU sets no run's
        figures alone.
        """
        cpu = self.cpus[step % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        self.affinity["generator"] |= os.sched_getaffinity(0)
        if daemon is not None:
            daemon.pin(cpu)
            self.affinity["daemon"] |= daemon.affinity()
        return cpu

    def timed_spawn(self):
        daemon = self.spawn()
        self.setup.append(daemon)
        return daemon

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()

    # -- schedules -----------------------------------------------------------
    def schedule(self):
        """``(warm, latency blocks, throughput blocks)`` as spec lists."""
        w = self.workloads
        nl, nt, per_s = BLOCKS[self.workload]
        pairs = max(4, round(self.seconds * per_s))
        seen: set = set()
        hot = w.hot_set(self.seed, seen)
        if self.workload == "hot-hits":
            self.refs.add_analytic(hot)
            timed = [hot[i % len(hot)] for i in range(pairs * (nl + nt))]
            return hot, *_split(timed, pairs, nl, nt)
        misses = w.miss_specs(self.seed, MISS_WARM + pairs * (nl + nt), seen)
        self.refs.add_analytic(misses)
        return misses[:MISS_WARM], *_split(misses[MISS_WARM:], pairs, nl, nt)

    def latency_schedule(self):
        """``(warm, specs)``: the latency schedule, which heavy-lanes runs with
        two callers and the traced run replays one request at a time."""
        if self.workload == "heavy-lanes":
            specs = self.workloads.heavy_specs(self.seed)
            self.refs.add_heavy_sample(specs, self.seed)
            return [], specs
        warm, lat_blocks, _ = self.schedule()
        return warm, [s for block in lat_blocks for s in block]

    # -- phases --------------------------------------------------------------
    def _frames(self, specs):
        first = self.next_id
        self.next_id += len(specs)
        return first, self.workloads.frames(specs, first)

    def _record(self, phase: str, tally, before, after, role: str) -> None:
        """Book one phase.  ``role`` is ``warm`` (loads the hot set or fills
        the LRU), ``timed`` (counts toward the run) or ``replay`` (traced-run
        replay: checked and reconciled, not counted)."""
        delta = _delta(after, before)
        self.problems += tally.mismatches
        self.phases.append({"phase": phase, **tally.as_dict()})
        if role == "warm":
            if delta["computed"] != tally.sent:
                self.problems.append(f"{phase}: computed {delta['computed']} of {tally.sent}")
            return
        self.problems += self.check.reconcile(self.workload, phase, delta, tally.sent)
        if role == "timed":
            for name, value in delta.items():
                self.counts[name] = self.counts.get(name, 0) + value
            self.tally.merge(tally)

    def run_serial(self, daemon, conn, phase: str, specs, role: str = "timed"):
        """One request outstanding; returns send times and round trips (ns)."""
        first, frames = self._frames(specs)
        before = daemon.stats()
        starts, lat, lines = self.loadgen.serial(conn, frames)
        after = daemon.stats()
        tally = self.check.check_responses(specs, first, lines, self.refs)
        self._record(phase, tally, before, after, role)
        return starts, lat

    def run_pipelined(self, daemon, conns, phase: str, specs, window: int,
                      on_response=None, role: str = "timed", lockstep: bool = False):
        """Round-robin ``specs`` over ``conns``, ``window`` outstanding on each.

        Returns wall seconds, round trips (ns), the daemon's user and system
        CPU seconds, the generator's CPU seconds, and the phase's tally.
        """
        parts = [specs[i::len(conns)] for i in range(len(conns))]
        framed = [self._frames(p) for p in parts]
        before = daemon.stats()
        cpu0, gen0 = daemon.cpu_s(), time.process_time()
        wall, lats, lines = self.loadgen.pipelined(
            conns, [f for _, f in framed], window, on_response, lockstep)
        cpu = tuple(b - a for a, b in zip(cpu0, daemon.cpu_s()))
        gen = time.process_time() - gen0
        after = daemon.stats()
        tally = self.check.Tally()
        for part, (first, _), got in zip(parts, framed, lines):
            tally.merge(self.check.check_responses(part, first, got, self.refs))
        self._record(phase, tally, before, after, role)
        return wall, [x for conn_lat in lats for x in conn_lat], cpu, gen, tally

    def measure(self) -> Dict[str, Any]:
        """The untraced run: every end-to-end metric."""
        heavy = self.workload == "heavy-lanes"
        if heavy:
            _, specs = self.latency_schedule()
            warm, lat_blocks, thr_blocks = [], [], []
        else:
            warm, lat_blocks, thr_blocks = self.schedule()
        for _ in range(SPAWNS_BEFORE - 1):
            self.timed_spawn().kill()
        daemon = self.timed_spawn()
        conns = [daemon.connect() for _ in range(CONNECTIONS)]
        blocks: Dict[str, List[float]] = {"p50": [], "tail": [], "rps": [], "cpu": [], "sys": []}
        totals = {"ok": 0, "wall": 0.0, "cpu": 0.0, "sent": 0}
        gen_cpu = 0.0

        def book_latency(lat_ns: List[int]) -> None:
            ms = sorted(x / 1e6 for x in lat_ns)
            q, value, beyond = self.loadgen.tail(ms)
            blocks["p50"].append(self.loadgen.percentile(ms, 50))
            blocks["tail"].append(value)
            self.tail = {"percentile": q, "beyond": beyond, "samples": len(ms)}

        def book_throughput(wall: float, cpu, tally) -> None:
            blocks["rps"].append(tally.ok / wall)
            blocks["cpu"].append(sum(cpu) / tally.sent * 1e3)
            blocks["sys"].append(cpu[1] / tally.sent * 1e3)
            for name, value in (("ok", tally.ok), ("wall", wall), ("cpu", sum(cpu)),
                                ("sent", tally.sent)):
                totals[name] += value

        try:
            start = time.perf_counter()
            if heavy:
                # Two callers, one request outstanding each: this one phase
                # gives both the latency and the throughput figures.  They
                # go in lockstep, so the same two requests always share the
                # daemon's CPU and a request's latency does not depend on
                # how far the callers have drifted apart.  The CPU
                # alternates with every response, as it does per block on
                # the other workloads.
                self.place(0, daemon)
                wall, lat, cpu, gen_cpu, tally = self.run_pipelined(
                    daemon, conns, "heavy", specs, 1,
                    lambda due: self.place(due, daemon), lockstep=True)
                book_latency(lat)
                book_throughput(wall, cpu, tally)
            if warm:
                self.run_pipelined(daemon, conns, "warm", warm, WINDOW, role="warm")
                start = time.perf_counter()
            for b, (lat_specs, thr_specs) in enumerate(zip(lat_blocks, thr_blocks)):
                self.place(b, daemon)
                book_latency(self.run_serial(daemon, conns[0], f"latency.{b}", lat_specs)[1])
                wall, _, cpu, gen, tally = self.run_pipelined(
                    daemon, conns, f"throughput.{b}", thr_specs, WINDOW)
                book_throughput(wall, cpu, tally)
                gen_cpu += gen
            self.timed_s = time.perf_counter() - start
            peak = daemon.peak_rss_mib()
        finally:
            for conn in conns:
                conn.close()
        daemon.shutdown()
        for _ in range(SPAWNS_AFTER):
            self.timed_spawn().kill()
        self.tail["blocks"] = len(blocks["tail"])
        self.blocks = blocks
        self.gen_cpu_ms_per_req = gen_cpu / totals["sent"] * 1e3
        # Latency is the mean of the blocks' figures and throughput and CPU
        # are phase totals, not medians: host speed drifts between levels
        # up to 1.5x apart, and a median jumps between them as their share
        # crosses one half where a mean follows it.
        return {
            "setup_s": (statistics.median([d.setup_s for d in self.setup]), "s"),
            "latency_p50_ms": (statistics.fmean(blocks["p50"]), "ms"),
            "latency_tail_ms": (statistics.fmean(blocks["tail"]), "ms"),
            "throughput_rps": (totals["ok"] / totals["wall"], "1/s"),
            "cpu_ms_per_req": (totals["cpu"] / totals["sent"] * 1e3, "ms"),
            "peak_rss_mib": (peak, "MiB"),
        }

    # -- traced run ----------------------------------------------------------
    def replay(self):
        """Serial replay of the latency schedule on an untraced and a traced
        daemon, alternating blocks so host drift hits both alike.

        The untraced replay is the run's timed phase (its ``stats`` deltas
        give the counts).  Returns the traced request windows, both p50s
        (ms) and the spans.
        """
        warm, specs = self.latency_schedule()
        for _ in range(SPAWNS_BEFORE + SPAWNS_AFTER - 1):
            self.timed_spawn().kill()
        spans_path = self.workdir / "spans.json"
        plain, traced = self.timed_spawn(), self.spawn(traced=True, spans=spans_path)
        block = REPLAY_BLOCK[self.workload]
        windows: List[Any] = []
        p_lat: List[int] = []
        t_lat: List[int] = []
        gen_cpu = 0.0
        with plain.connect() as p_conn, traced.connect() as t_conn:
            if warm:
                self.run_pipelined(plain, [p_conn], "warm", warm, WINDOW, role="warm")
                self.run_pipelined(traced, [t_conn], "traced.warm", warm, WINDOW,
                                   role="warm")
            for step, b in enumerate(range(0, len(specs), block)):
                traced.pin(self.place(step, plain))
                chunk = specs[b:b + block]
                gen0 = time.process_time()
                p_lat += self.run_serial(plain, p_conn, "replay", chunk)[1]
                gen_cpu += time.process_time() - gen0
                starts, lat = self.run_serial(traced, t_conn, "traced", chunk, "replay")
                windows += [(s, s + l) for s, l in zip(starts, lat)]
                t_lat += lat
        plain.shutdown()
        traced.shutdown()
        self.gen_cpu_ms_per_req = gen_cpu / len(specs) * 1e3
        p50 = [self.loadgen.percentile(sorted(x), 50) for x in (p_lat, t_lat)]
        return windows, p50[0], p50[1], json.loads(spans_path.read_text())

    def per_layer(self) -> Dict[str, Any]:
        """The traced run: every per-layer metric."""
        import tracing

        windows, plain_p50, traced_p50, spans = self.replay()
        c = self.counts
        out: Dict[str, Any] = {
            "setup.listen_s": (statistics.median([d.listen_s for d in self.setup]), "s"),
            "setup.first_ping_ms": (
                statistics.median([(d.setup_s - d.listen_s) * 1e3 for d in self.setup]), "ms"),
        }
        out.update(tracing.layer_metrics(tracing.attribute(spans, windows), windows))
        lookups = c["lru.hits"] + c["lru.misses"]
        for name in ("hits", "misses", "evictions", "integrity_failures"):
            out[f"lru.{name}"] = (c[f"lru.{name}"], "count")
        out["lru.hit_ratio"] = (c["lru.hits"] / lookups if lookups else 0.0, "ratio")
        out["diskcache.misses"] = (c.get("disk.misses", 0), "count")
        out["diskcache.quarantined"] = (c.get("disk.quarantined", 0), "count")
        for name in ("computed", "deduped", "shed", "quota_shed", "errors"):
            out[f"daemon.{name}"] = (c[name], "count")
        out["experiment.attempts"] = (self.tally.attempts, "count")
        out["experiment.failures"] = (len(self.tally.error_rows), "count")
        out["loadgen.cpu_ms_per_req"] = (self.gen_cpu_ms_per_req, "ms")
        out["tracing.overhead_frac"] = ((traced_p50 - plain_p50) / plain_p50, "ratio")
        return out


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "serve" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A terminated run still unwinds, so its daemons are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpus = sorted(os.sched_getaffinity(0))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    bench = Bench(args.workload, args.seed, args.seconds, workdir, cpus)
    try:
        metrics = bench.per_layer() if args.trace else bench.measure()
    except Exception:
        traceback.print_exc()
        log = workdir / "daemon.log"
        if log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        return 1
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    import numpy

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus": cpus,
        "affinity": {k: sorted(v) for k, v in bench.affinity.items()},
        "placement": "generator and daemon share one CPU, alternating per block",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": _git_rev(), "loadavg_1m": os.getloadavg()[0],
        "loadgen.cpu_ms_per_req": bench.gen_cpu_ms_per_req,
    }
    print("env " + json.dumps(stamp, sort_keys=True))
    for phase in bench.phases:
        print("phase " + json.dumps(phase))
    if not args.trace:
        print("tail " + json.dumps({**bench.tail, "timed_s": bench.timed_s}))
        print("blocks " + json.dumps(bench.blocks))
    for line in bench.tally.error_rows:
        print("failed-row " + line)
    for line in bench.problems[:20]:
        print("MISMATCH " + line, file=sys.stderr)
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.tally.sent,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
