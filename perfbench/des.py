"""Simulation workloads: ``paper16`` and ``fleet300``.

Each repetition runs one whole scenario through ``execute_spec`` on a
fresh simulator and times it.  The job mix is drawn once, with
``MIX_SEED``; the workload seed is the scenario's seed, which drives every
random stream of the run (noise, HDFS placement, skew, E-Ant sampling).
Operations are simulated tasks; requests are TaskTracker heartbeats.  A
heartbeat that offers a free slot asks for a decision, and its latency is
timed around ``JobTracker.heartbeat`` (the in-process form of the
heartbeat round trip).  The correctness check is the run's
``record_digest``: exact for ``paper16`` (as the golden corpus pins it)
and at 10 significant digits for ``fleet300`` (the float-tolerance tier
of the differential corpus).
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import List, Optional

from common import CALIBRATION_REFERENCE_S, MIX_SEED, InProcess, Rep, calibration_unit
from spans import SpanRecorder

#: Digits after the point of the fleet-scale digest tier (10 significant).
FLEET_PRECISION = 9


class HeartbeatProbe:
    """Wraps ``JobTracker.heartbeat`` while installed, for two measurements.

    It times every heartbeat that offers a free slot, and about every
    ``CALIBRATE_EVERY_S`` host seconds it runs one calibration unit between
    heartbeats.  A repetition lasts seconds, longer than the host's speed
    stays put, so the speed is sampled inside it; the calibration time is
    kept out of the heartbeat timings and is subtracted from the
    repetition's wall time.
    """

    CALIBRATE_EVERY_S = 0.25

    def __init__(self) -> None:
        from repro.hadoop.jobtracker import JobTracker

        self._owner = JobTracker
        self._original = JobTracker.__dict__["heartbeat"]
        self.samples: List[float] = []
        self.scales: List[float] = []
        self.calibration_s = 0.0
        self._next_calibration = 0.0
        original = self._original
        samples = self.samples
        probe = self

        def heartbeat(self, tracker):
            now = perf_counter()
            if now >= probe._next_calibration:
                took = calibration_unit()
                probe.scales.append(CALIBRATION_REFERENCE_S / took)
                probe.calibration_s += took
                now = perf_counter()
                probe._next_calibration = now + probe.CALIBRATE_EVERY_S
            if tracker.free_map_slots <= 0 and tracker.free_reduce_slots <= 0:
                return original(self, tracker)
            assignments = original(self, tracker)
            samples.append(perf_counter() - now)
            return assignments

        self._probed = heartbeat

    def reset(self) -> None:
        self.samples.clear()
        self.scales.clear()
        self.calibration_s = 0.0
        self._next_calibration = perf_counter() + self.CALIBRATE_EVERY_S

    def install(self) -> None:
        self._owner.heartbeat = self._probed

    def remove(self) -> None:
        self._owner.heartbeat = self._original


class Simulation(InProcess):
    """One scenario spec, executed once per repetition."""

    precision: Optional[int] = None

    def __init__(self, seed: int, size: str, recorder: SpanRecorder) -> None:
        super().__init__(recorder)
        from repro.runner import engine, record

        self._engine = engine
        self._record = record
        self.spec = self.build_spec(seed, size)
        block_mb = self.spec.hadoop.block_mb
        self.tasks = sum(job.num_maps(block_mb) + job.num_reduces for job in self.spec.jobs)
        self.probe = HeartbeatProbe()
        self.probe.install()

    def build_spec(self, seed: int, size: str):
        raise NotImplementedError

    def start_tracing(self, dump_path) -> None:
        self.probe.remove()
        super().start_tracing(dump_path)

    def rep(self) -> Rep:
        gc.collect()
        probe = self.probe
        probe.reset()
        started = perf_counter()
        result = self._engine.execute_spec(self.spec)
        wall = perf_counter() - started - probe.calibration_s
        metrics = result.metrics
        core = result.jobtracker.core
        completed = len(result.jobtracker.reports)
        record = self._record.build_record(self.spec, result, wall_seconds=0.0)
        digest = self._record.record_digest(record, precision=self.precision)
        failed = 0
        notes = []
        if completed != self.tasks:
            failed = self.tasks
            notes.append(f"{completed} of {self.tasks} tasks completed")
        return Rep(
            wall_s=wall,
            ops=self.tasks,
            failed=failed,
            tasks=completed,
            requests=core.heartbeats_handled,
            latencies=list(probe.samples),
            sim_energy_kj=metrics.total_energy_joules / 1e3,
            sim_makespan_s=metrics.makespan,
            digest=digest,
            layers=self.layer_sample(wall),
            notes=notes,
            inner_scales=list(probe.scales),
        )


class Paper16(Simulation):
    """The 87-job MSD mix on the 16-node Section V-B fleet under E-Ant."""

    def build_spec(self, seed: int, size: str):
        from repro.experiments.scenarios import msd_scenario
        from repro.runner import ScenarioSpec

        jobs, hadoop = msd_scenario(seed=MIX_SEED, n_jobs=87 if size == "full" else 4)
        return ScenarioSpec(jobs=tuple(jobs), scheduler="e-ant", hadoop=hadoop, seed=seed)


class Fleet300(Simulation):
    """A 300-node procedural fleet under E-Ant."""

    precision = FLEET_PRECISION

    def build_spec(self, seed: int, size: str):
        from repro.experiments.scenarios import large_fleet_spec

        # Arrivals 20 s apart keep the makespan set by the job stream, not
        # by which straggler lands last (its spread across seeds is ~3%,
        # against ~30% at the default 5 s).
        nodes, tasks = (300, 6000) if size == "full" else (60, 300)
        spec = large_fleet_spec(
            n_nodes=nodes, target_tasks=tasks, seed=MIX_SEED, mean_interarrival_s=20.0
        )
        return spec.with_overrides(seed=seed)
