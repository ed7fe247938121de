"""Shared pieces of the benchmark: host-speed calibration, the repetition
record and pinned digests."""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import SpanRecorder, install_layers

HERE = Path(__file__).resolve().parent
DEFAULT_PINS = HERE / "pins.json"

#: The seed whose outputs are pinned; other seeds check that repeats agree.
PINNED_SEED = 3
#: Seed of the job-mix draw (for the MSD mix, the Fig. 8 draw).  Holding the
#: mix fixed keeps the work per repetition the same across workload seeds.
MIX_SEED = 3

#: Seconds one calibration unit takes at the reference host speed (the
#: typical speed of the 2-vCPU container the bounds were set on).
CALIBRATION_REFERENCE_S = 0.0075
CALIBRATION_UNITS = 5


def calibration_unit() -> float:
    """Seconds for a fixed mix of stdlib work: build, encode, decode, hash
    and index a list of small dicts, then an integer loop.  It uses no code
    of the program, so a change to the program cannot move it."""
    started = perf_counter()
    rows = [{"k": i, "v": str(i) * 3, "f": i * 0.5} for i in range(1500)]
    blob = json.dumps(rows)
    hashlib.sha256(blob.encode()).hexdigest()
    index = {row["v"]: row for row in json.loads(blob)}
    total = len(index)
    for i in range(20_000):
        total += i * i
    return perf_counter() - started


def host_scale() -> float:
    """Reference-speed seconds per host second, measured now.

    The container's speed drifts by up to ~1.7x over seconds as other
    tenants come and go.  Host times are multiplied by this factor, taken
    right before and after the work they time, so that they read as if
    measured at the reference speed; across runs this cuts the spread of
    a sweep pass's median from ~0.28 to ~0.05 of its median.
    """
    median = statistics.median(calibration_unit() for _ in range(CALIBRATION_UNITS))
    return CALIBRATION_REFERENCE_S / median


@dataclass
class LayerSample:
    """Per-layer numbers from one traced repetition."""

    totals: Dict[str, Tuple[int, float]]
    counters: Dict[str, float]
    #: seconds no layer claims (the workload's unattributed bucket) ...
    residual_s: float
    #: ... out of this many seconds of traced work
    base_s: float
    #: serve only: client round trip minus server busy time, per message
    transport_us: float = 0.0


@dataclass
class Rep:
    """One measured repetition of a workload."""

    wall_s: float
    #: operations attempted / failed (tasks, messages or specs)
    ops: int
    failed: int
    tasks: int
    requests: int
    #: per-request host latencies, seconds
    latencies: List[float]
    sim_energy_kj: float
    sim_makespan_s: float
    #: output digest: must agree across repetitions (and with the pin)
    digest: str
    layers: Optional[LayerSample] = None
    notes: List[str] = field(default_factory=list)
    #: host-speed samples taken inside the repetition, if any
    inner_scales: List[float] = field(default_factory=list)
    #: reference-speed seconds per host second while this repetition ran
    scale: float = 1.0


def load_pins(path: Path) -> Dict[str, Dict[str, str]]:
    """``{"<workload>/<size>": {"<seed>": digest}}``; missing file = no pins."""
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class InProcess:
    """Shared tracing plumbing of the workloads that run in this process."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.traced = False
        self.dump_path = None

    def start_tracing(self, dump_path) -> None:
        """Wrap every layer; each traced repetition's spans go to ``dump_path``."""
        install_layers(self.recorder)
        self.traced = True
        self.dump_path = dump_path

    def layer_sample(self, wall_s: float) -> Optional[LayerSample]:
        """Fold the spans of the repetition that just ran, then clear them."""
        if not self.traced:
            return None
        totals = self.recorder.layer_totals()
        residual = sum(totals[name][1] for name in ("simulation.run", "runner.execute", "runner.sweep"))
        sample = LayerSample(
            totals=totals,
            counters=dict(self.recorder.counters),
            residual_s=residual,
            base_s=wall_s,
        )
        self.recorder.dump(self.dump_path)
        self.recorder.clear()
        return sample

    def close(self) -> None:
        self.recorder.restore()

    def child_rss_mb(self) -> float:
        return 0.0
