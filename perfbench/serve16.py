"""Serve workload: ``serve16``, a ``ServeDaemon`` in a child process.

The daemon serves the paper's 16-node fleet under E-Ant on a UNIX socket
with ``trust_wire_now=True`` and no timer (``tick_interval=0``).  This
process is the client: a virtual cluster of 16 TaskTrackers on a virtual
clock that submits a job stream, heartbeats every 3 simulated seconds,
reports each assigned task when its simulated duration has passed, and
sends a control-interval ``tick`` every 300 simulated seconds.  The job
stream is drawn once (``MIX_SEED``); the workload seed seeds the daemon's
engine and the trackers' heartbeat phases.

All messages share one connection and are sent in virtual-time order.
A reply can only create events at least ``MIN_GAP`` simulated seconds
after the message it answers, so the client keeps sending while the next
event is earlier than the oldest unanswered message plus ``MIN_GAP`` (and
fewer than ``MAX_IN_FLIGHT`` are unanswered).  That makes every tracker
closed-loop (its next heartbeat waits for the reply to its last one) and
the message stream independent of host timing, so the daemon's decisions
are deterministic.  The cap keeps the round-trip tail about slow
messages (submits, control-interval ticks) rather than about how many
messages one burst queued behind each other.

Client and daemon are pinned to one CPU.  One repetition is one session:
a fresh engine in the same daemon process, the whole job stream served
to completion.  The check: the first session's messages, replayed in
process through ``ServeEngine.handle``, give a bit-identical reply
stream with no error replies, and every later session's reply stream has
the same digest.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import os
import resource
import select
import socket
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from common import MIX_SEED, LayerSample, Rep, host_scale
from spans import SpanRecorder, install_layers

#: Smallest simulated delay between a message and any event its reply
#: creates; task durations are clamped to it.
MIN_GAP = 1.0
#: At most this many messages wait for a reply at once.
MAX_IN_FLIGHT = 4
HEARTBEAT_INTERVAL = 3.0
CONTROL_INTERVAL = 300.0
#: Host seconds to wait on the daemon before calling it hung.
DAEMON_TIMEOUT = 60.0

EXPECTED_REPLY = {
    "register": "ok",
    "heartbeat": "assignment",
    "report": "ok",
    "submit": "ok",
    "tick": "ok",
}


# ------------------------------------------------------------------ daemon
def send_line(stream, obj) -> None:
    """One control message: a JSON line, flushed."""
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def daemon_main(seed: int, control_in, control_out) -> None:
    """Daemon process: serve one fresh engine per session until told to stop.

    Commands arrive as JSON lines on ``control_in``: ``[socket path, traced,
    spans dump path]`` opens a session, ``null`` ends the process.  Replies
    go to ``control_out``: ``"up"``, ``"ready"`` once a session's socket
    accepts, and ``[stats, layers, rss_mb, host scales]`` when it stops.
    """
    from repro.serve import ServeDaemon, ServeEngine

    async def serve(path: str) -> Dict[str, Any]:
        engine = ServeEngine(scheduler="e-ant", seed=seed, trust_wire_now=True)
        daemon = ServeDaemon(engine, path=path, tick_interval=0)
        await daemon.start()
        send_line(control_out, "ready")
        return await daemon.wait_stopped()

    recorder: Optional[SpanRecorder] = None
    send_line(control_out, "up")
    for line in control_in:
        command = json.loads(line)
        if command is None:
            break
        path, traced, dump_path = command
        if traced and recorder is None:
            recorder = SpanRecorder()
            install_layers(recorder, daemon=True)
        layers = None
        # Host speed around the session, sampled in this process too.
        scales = [host_scale()]
        try:
            stats = asyncio.run(serve(path))
        finally:
            if os.path.exists(path):
                os.unlink(path)
        if recorder is not None:
            spans = recorder.arrays()
            roots = spans["parent"] < 0
            busy = float((spans["end"][roots] - spans["start"][roots]).sum())
            layers = [recorder.layer_totals(), dict(recorder.counters), busy]
            if dump_path:
                recorder.dump(dump_path)
            recorder.clear()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scales.append(host_scale())
        send_line(control_out, [stats, layers, rss_mb, scales])


# ------------------------------------------------------------------ client
class VirtualCluster:
    """Client-side state of one session: trackers, jobs, the event heap."""

    def __init__(self, infos, machine_specs, jobs, offsets) -> None:
        from repro.energy.model import TaskEnergyModel, UtilizationSample

        self.infos = infos
        self.machine_specs = machine_specs
        self.energy_models = [TaskEnergyModel.for_spec(spec) for spec in machine_specs]
        self._sample = UtilizationSample
        self.running = [[0, 0] for _ in infos]
        self.templates = {}  # daemon job id -> JobSpec
        self.jobs = jobs
        #: job indexes of submits awaiting their reply, in send order
        self._submits: deque = deque()
        self.heap: List[tuple] = []
        self._order = 0
        self.submitted = 0
        self.total_tasks = 0
        self.acked_reports = 0
        self.energy_j = 0.0
        self.makespan = 0.0
        for info in infos:
            self.push(0.0, "register", info.machine_id)
        for info, offset in zip(infos, offsets):
            self.push(offset, "heartbeat", info.machine_id)
        for index, job in enumerate(jobs):
            self.push(job.submit_time, "submit", index)
        self.push(CONTROL_INTERVAL, "tick", None)

    @property
    def finished(self) -> bool:
        return self.submitted == len(self.jobs) and self.acked_reports == self.total_tasks

    def push(self, vtime: float, kind: str, data) -> None:
        self._order += 1
        heapq.heappush(self.heap, (vtime, self._order, kind, data))

    def message(self, vtime: float, kind: str, data) -> Dict[str, Any]:
        """The wire message for one due event (updating client state)."""
        if kind == "register":
            return {"type": "register", "now": vtime, **self.infos[data].to_wire()}
        if kind == "heartbeat":
            info = self.infos[data]
            maps, reduces = self.running[data]
            return {
                "type": "heartbeat",
                "machine_id": data,
                "now": vtime,
                "free_map_slots": info.map_slots - maps,
                "free_reduce_slots": info.reduce_slots - reduces,
                "running_maps": maps,
                "running_reduces": reduces,
            }
        if kind == "report":
            machine_id, slot, message = data
            self.running[machine_id][slot] -= 1
            return message
        if kind == "submit":
            job = self.jobs[data]
            self._submits.append(data)
            return {
                "type": "submit",
                "now": vtime,
                "application": job.profile.name,
                "input_mb": job.input_mb,
                "num_reduces": job.num_reduces,
            }
        self.push(vtime + CONTROL_INTERVAL, "tick", None)
        return {"type": "tick", "now": vtime}

    def on_reply(self, message: Dict[str, Any], reply: Dict[str, Any]) -> None:
        kind = message["type"]
        if kind == "heartbeat":
            vtime = message["now"]
            for directive in reply.get("directives", ()):
                self._assign(message["machine_id"], vtime, directive)
            if not self.finished:
                self.push(vtime + HEARTBEAT_INTERVAL, "heartbeat", message["machine_id"])
        elif kind == "submit":
            self.templates[reply["job_id"]] = self.jobs[self._submits.popleft()]
            self.submitted += 1
            self.total_tasks += reply["num_maps"] + reply["num_reduces"]
        elif kind == "report":
            self.acked_reports += 1

    def _assign(self, machine_id: int, vtime: float, directive: Dict[str, Any]) -> None:
        spec = self.machine_specs[machine_id]
        profile = self.templates[directive["job_id"]].profile
        mb = directive["input_mb"]
        if directive["kind"] == "map":
            slot, cores = 0, profile.map_cores
            cpu = profile.map_cpu_seconds * mb / 64.0 / spec.cpu_speed
            io = profile.map_io_seconds * mb / 64.0 / spec.io_speed
        else:
            slot, cores = 1, profile.reduce_cores
            cpu = profile.reduce_cpu_per_mb * mb / spec.cpu_speed
            io = profile.reduce_io_per_mb * mb / spec.io_speed
        duration = max(MIN_GAP, cpu + io)
        utilization = min(1.0, cores * cpu / duration / spec.cores)
        finish = vtime + duration
        self.running[machine_id][slot] += 1
        self.energy_j += self.energy_models[machine_id].estimate(
            [self._sample(utilization, duration)]
        )
        self.makespan = max(self.makespan, finish)
        task_id = directive["task_id"]
        report = {
            "type": "report",
            "now": finish,
            "task_id": task_id,
            "attempt_id": f"attempt_{task_id}_0",
            "kind": directive["kind"],
            "machine_id": machine_id,
            "start_time": vtime,
            "finish_time": finish,
            "avg_utilization": utilization,
            "local": True,
            "samples": [[utilization, duration]],
            "phases": {"cpu": cpu, "io": io},
        }
        self.push(finish, "report", (machine_id, slot, report))


class Serve16:
    """Owns the daemon process; one repetition is one served session."""

    def __init__(self, seed: int, size: str, recorder: SpanRecorder, workdir: Path) -> None:
        from repro.cluster import paper_fleet
        from repro.experiments.scenarios import exchange_workload
        from repro.serve.loadgen import fleet_tracker_infos
        from repro.serve.protocol import encode
        from repro.simulation import RandomStreams

        self.seed = seed
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._encode = encode
        self.infos = fleet_tracker_infos(None)
        self.machine_specs = [spec for spec, count in paper_fleet() for _ in range(count)]
        self.jobs = exchange_workload(
            RandomStreams(MIX_SEED),
            jobs_per_app=4 if size == "full" else 1,
            input_gb=8.0 if size == "full" else 1.0,
            mean_interarrival_s=45.0,
        )
        self.offsets = [
            float(x) for x in RandomStreams(seed).stream("bench-heartbeat-offsets").uniform(
                0.0, HEARTBEAT_INTERVAL, len(self.infos)
            )
        ]
        self.traced = False
        self.dump_path = ""
        self.reference: Optional[str] = None
        self.child_rss = 0.0
        self._sessions = 0
        self._open: Optional[str] = None
        # Client and daemon (which inherits this) share one CPU, so a
        # hand-off is a context switch on a busy CPU rather than a wake-up
        # of an idle one, whose latency swings with other tenants' load
        # (unpinned, a run's throughput varied up to 2.4x).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._expect("up")
        self._open_session()

    # ------------------------------------------------------------- daemon
    def _receive(self):
        # Strictly one reply per command, so nothing waits in the buffer.
        ready, _, _ = select.select([self._process.stdout], [], [], DAEMON_TIMEOUT)
        line = self._process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("serve daemon did not answer")
        return json.loads(line)

    def _expect(self, word: str) -> None:
        got = self._receive()
        if got != word:
            raise RuntimeError(f"serve daemon said {got!r}, expected {word!r}")

    def _open_session(self) -> None:
        self._sessions += 1
        # Relative to the working directory: UNIX socket paths are short.
        path = os.path.relpath(self.workdir / f"s{self._sessions}.sock")
        dump = self.dump_path if self.traced else ""
        send_line(self._process.stdin, [path, self.traced, dump])
        self._expect("ready")
        self._open = path

    def start_tracing(self, dump_path) -> None:
        self.traced = True
        self.dump_path = str(dump_path)

    def child_rss_mb(self) -> float:
        return self.child_rss

    def close(self) -> None:
        try:
            if self._open is not None:
                self._shutdown_open_session()
            send_line(self._process.stdin, None)
        except (OSError, RuntimeError):
            pass
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait(timeout=10)

    def _shutdown_open_session(self, sock: Optional[socket.socket] = None):
        """Send ``shutdown`` (on ``sock``, or a new connection); return the
        daemon's ``(stats, layers, rss_mb, host scales)`` for the session."""
        if sock is None:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as fresh:
                fresh.settimeout(DAEMON_TIMEOUT)
                fresh.connect(self._open)
                return self._shutdown_open_session(fresh)
        sock.sendall(self._encode({"type": "shutdown"}))
        sock.makefile("rb").readline()
        self._open = None
        return self._receive()

    # ------------------------------------------------------------ session
    def rep(self) -> Rep:
        if self._open is None:
            self._open_session()
        encode = self._encode
        cluster = VirtualCluster(self.infos, self.machine_specs, self.jobs, self.offsets)
        sent: List[bytes] = []
        replies: List[bytes] = []
        latencies: List[float] = []
        inflight: deque = deque()
        failed = 0
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(DAEMON_TIMEOUT)
            sock.connect(self._open)
            reader = sock.makefile("rb")
            started = perf_counter()
            heap = cluster.heap
            while True:
                if heap and not cluster.finished and (
                    not inflight
                    or (heap[0][0] < inflight[0][0] + MIN_GAP and len(inflight) < MAX_IN_FLIGHT)
                ):
                    vtime, _order, kind, data = heapq.heappop(heap)
                    message = cluster.message(vtime, kind, data)
                    line = encode(message)
                    sock.sendall(line)
                    inflight.append((vtime, perf_counter(), message))
                    sent.append(line)
                elif inflight:
                    line = reader.readline()
                    answered = perf_counter()
                    vtime, sent_at, message = inflight.popleft()
                    if not line:
                        failed += 1 + len(inflight)
                        break
                    latencies.append(answered - sent_at)
                    replies.append(line)
                    reply = json.loads(line)
                    if reply.get("type") != EXPECTED_REPLY[message["type"]] or reply.get("duplicate"):
                        failed += 1
                    cluster.on_reply(message, reply)
                else:
                    break
            wall = perf_counter() - started
            # On this connection, so the daemon has no other reader open
            # when it stops.
            stats, layers, rss_mb, daemon_scales = self._shutdown_open_session(sock)
        self.child_rss = max(self.child_rss, rss_mb)
        notes = []
        if not cluster.finished:
            notes.append(f"{cluster.acked_reports} of {cluster.total_tasks} tasks reported")
            failed += 1
        if stats.get("errors"):
            notes.append(f"daemon counted {stats['errors']} error replies")
            failed += stats["errors"]
        digest = hashlib.sha256(b"".join(replies)).hexdigest()
        if self.reference is None:
            mismatches = self._replay(sent, replies)
            if mismatches:
                notes.append(f"{mismatches} replies differ from the in-process replay")
                failed += mismatches
            self.reference = digest
        elif digest != self.reference:
            notes.append("reply stream differs from the first session's")
            failed += len(replies)
        sample = None
        if layers is not None:
            totals, counters, busy = layers
            rtt = sum(latencies)
            sample = LayerSample(
                totals=totals,
                counters=counters,
                residual_s=max(0.0, rtt - busy),
                base_s=rtt,
                transport_us=(rtt - busy) / len(latencies) * 1e6,
            )
        tasks = cluster.acked_reports
        return Rep(
            wall_s=wall,
            ops=len(sent),
            failed=min(failed, len(sent)),
            tasks=tasks,
            requests=len(replies),
            latencies=latencies,
            sim_energy_kj=cluster.energy_j / 1e3,
            sim_makespan_s=cluster.makespan,
            digest=digest,
            layers=sample,
            notes=notes,
            inner_scales=daemon_scales,
        )

    def _replay(self, sent: List[bytes], replies: List[bytes]) -> int:
        """Replay the session in process; count replies that differ."""
        from repro.serve import ServeEngine

        engine = ServeEngine(scheduler="e-ant", seed=self.seed, trust_wire_now=True)
        mismatches = abs(len(sent) - len(replies))
        for line, expected in zip(sent, replies):
            if self._encode(engine.handle(json.loads(line))) != expected:
                mismatches += 1
        if engine.stats()["errors"]:
            mismatches += engine.stats()["errors"]
        return mismatches


if __name__ == "__main__":
    # The daemon side: ``python3 serve16.py SEED``, driven over stdin/stdout.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    control_out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # nothing else may write to the control stream
    daemon_main(int(sys.argv[1]), sys.stdin, control_out)
