"""The daemon process and the single-threaded closed-loop generator.

:class:`Daemon` spawns ``python -m repro.serve`` (or the traced
bootstrap) as a child pinned to one CPU and times its start-up.
:func:`serial` drives one connection with one request outstanding;
:func:`pipelined` drives up to two connections, each with a window of
outstanding requests, from one ``select`` loop.  Both are closed loops:
a caller sends its next request only when a response comes back, so
the generator can never run behind a schedule.

Responses are kept as raw lines and checked after the timed window
(:mod:`check`), so parsing never adds to a measured round trip.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_PDEATHSIG = 1
#: Percentiles the tail rule tries, highest first.
TAIL_PERCENTILES = (99, 90, 75)
#: Samples a percentile must have beyond it to be reported.
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The daemon or the generator could not complete a run."""


def _child_setup(cpu: int) -> None:
    """In the forked daemon: pin it, and have the kernel kill it if the
    generator dies first, so no daemon outlives a killed run."""
    os.sched_setaffinity(0, {cpu})
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Daemon:
    """One serve daemon child, pinned to ``cpu``.

    ``listen_s`` is spawn to the ``listening on`` line, ``setup_s``
    spawn to the first answered ``ping``.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cpu: int,
                 log_path: Path) -> None:
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=lambda: _child_setup(cpu),
        )
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("listening on "):
                raise BenchError(f"daemon failed to start: {line!r} (log: {log_path})")
            self.listen_s = time.perf_counter() - start
            host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
            self.address = (host, int(port))
            with self.connect() as conn:
                reply = json.loads(serial(conn, [b'{"op":"ping","id":0}\n'])[2][0])
            self.setup_s = time.perf_counter() - start
            if not reply.get("ok"):
                raise BenchError(f"ping failed: {reply}")
        except BaseException:
            self.kill()
            raise

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=120)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def op(self, name: str) -> Dict:
        with self.connect() as conn:
            frame = json.dumps({"op": name, "id": 0}).encode() + b"\n"
            return json.loads(serial(conn, [frame])[2][0])

    def stats(self) -> Dict:
        return self.op("stats")

    def cpu_s(self) -> Tuple[float, float]:
        """User and system CPU of the whole daemon, lane threads included."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return int(fields[11]) / CLK_TCK, int(fields[12]) / CLK_TCK

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def pin(self, cpu: int) -> None:
        """Move every thread of the daemon to ``cpu``; threads it starts
        later inherit the placement from its main thread."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except ProcessLookupError:
                pass  # a lane thread that just finished

    def affinity(self) -> set:
        return os.sched_getaffinity(self.proc.pid)

    def shutdown(self, timeout: float = 60.0) -> str:
        """Drain the daemon through the ``shutdown`` op; returns its last stdout."""
        try:
            self.op("shutdown")
            out, _ = self.proc.communicate(timeout=timeout)
            return out.decode(errors="replace")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def serial(
    conn: socket.socket, frames: Sequence[bytes]
) -> Tuple[List[int], List[int], List[bytes]]:
    """One caller, one request outstanding.

    Returns per-request send times (``perf_counter_ns``), round trips
    (ns, send to response line) and the raw response lines.
    """
    starts: List[int] = []
    latencies: List[int] = []
    lines: List[bytes] = []
    clock = time.perf_counter_ns
    recv = conn.recv
    for frame in frames:
        start = clock()
        conn.sendall(frame)
        buf = recv(65536)
        while not buf.endswith(b"\n"):
            chunk = recv(65536)
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
        latencies.append(clock() - start)
        starts.append(start)
        lines.append(buf[:-1])
    return starts, latencies, lines


def pipelined(
    conns: Sequence[socket.socket],
    schedules: Sequence[Sequence[bytes]],
    window: int,
    on_response: Optional[Callable[[int], None]] = None,
    lockstep: bool = False,
) -> Tuple[float, List[List[int]], List[List[bytes]]]:
    """Closed loops over several connections from one ``select`` loop.

    Each connection keeps ``window`` requests outstanding until its
    schedule runs out; with ``lockstep``, every connection sends its next
    ``window`` only once all of them have their responses, so requests at
    the same position of each schedule always run side by side.
    ``on_response`` is called with the number of responses still due
    after each batch of them arrives.  Returns the
    wall time (s) and, per connection, the round trips (ns) and the raw
    response lines in arrival order.
    """
    clock = time.perf_counter_ns
    sel = selectors.DefaultSelector()
    state = []
    for i, (conn, frames) in enumerate(zip(conns, schedules)):
        conn.setblocking(True)
        sel.register(conn, selectors.EVENT_READ, i)
        state.append({"sent": 0, "buf": b"", "starts": [0] * len(frames),
                      "lat": [], "lines": []})
    start = time.perf_counter()

    def send(i: int, upto: int) -> None:
        st, frames = state[i], schedules[i]
        upto = min(upto, len(frames))
        if upto <= st["sent"]:
            return
        now = clock()
        for j in range(st["sent"], upto):
            st["starts"][j] = now
        conns[i].sendall(b"".join(frames[st["sent"]:upto]))
        st["sent"] = upto

    for i in range(len(conns)):
        send(i, window)
    pending = sum(len(f) for f in schedules)
    try:
        while pending:
            events = sel.select(timeout=120)
            if not events:
                raise BenchError("no response for 120 s")
            for key, _ in events:
                i = key.data
                st = state[i]
                chunk = conns[i].recv(1 << 20)
                if not chunk:
                    raise BenchError("daemon closed the connection")
                now = clock()
                parts = (st["buf"] + chunk).split(b"\n")
                st["buf"] = parts.pop()
                for line in parts:
                    st["lat"].append(now - st["starts"][len(st["lines"])])
                    st["lines"].append(line)
                pending -= len(parts)
                if parts and on_response is not None:
                    on_response(pending)
                if not lockstep:
                    send(i, len(st["lines"]) + window)
                elif all(len(x["lines"]) == x["sent"] for x in state):
                    for j, x in enumerate(state):
                        send(j, x["sent"] + window)
    finally:
        sel.close()
    wall = time.perf_counter() - start
    return wall, [st["lat"] for st in state], [st["lines"] for st in state]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise BenchError("percentile of an empty sample")
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: Sequence[float]) -> Tuple[int, float, int]:
    """``(percentile, value, samples beyond it)`` for the highest of
    :data:`TAIL_PERCENTILES` with at least :data:`TAIL_MIN_BEYOND`
    samples strictly above it."""
    for q in TAIL_PERCENTILES:
        value = percentile(sorted_values, q)
        beyond = len(sorted_values) - bisect.bisect_right(sorted_values, value)
        if beyond >= TAIL_MIN_BEYOND:
            return q, value, beyond
    raise BenchError(
        f"{len(sorted_values)} samples support no tail percentile "
        f"(need {TAIL_MIN_BEYOND} beyond p{TAIL_PERCENTILES[-1]})"
    )


def env_for(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def serve_argv(cache_dir: Optional[Path], bootstrap: Optional[List[str]] = None) -> List[str]:
    """The daemon command line: default flags plus a fresh cache dir, if
    ``cache_dir`` is given."""
    head = [sys.executable] + (bootstrap if bootstrap else ["-m", "repro.serve"])
    tier = ["--cache-dir", str(cache_dir)] if cache_dir is not None else []
    return head + ["--port", "0"] + tier
