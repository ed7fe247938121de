"""Sweep workloads: one serial, spooled ``SweepRunner`` pass per repetition.

The grid is 80 small FIFO/Fair specs on the paper fleet, so E-Ant selection
is bypassed and the runner layers (spec hashing, record build and
digest, cache, spool) carry a large share of the time.  Three workloads
share it, one per pass:

* ``sweep_cold`` — empty cache, new spool: every spec is executed;
* ``sweep_warm`` — a filled cache, new spool: every spec is a cache hit;
* ``sweep_resume`` — the spool of a finished pass: every spec is restored.

Operations and requests are specs; a request's latency is the time
between two consecutive resolved specs (the runner's progress callback
fires once per spec).  The simulated makespan reported is the grid's
total, read back from the first pass's spool outside the timed pass.
The check: the pass's ``aggregate_digest`` equals the cold pass's, and
every spec came from the source the pass expects.
"""

from __future__ import annotations

import gc
import itertools
import shutil
from pathlib import Path
from time import perf_counter

from common import InProcess, Rep
from spans import SpanRecorder

APPLICATIONS = ("grep", "wordcount", "terasort")
SIZES_GB = (0.5, 0.75, 1.0, 1.25)
SCHEDULERS = ("fifo", "fair")


def sweep_grid(seed: int, size: str):
    """80 specs (8 tiny): app x size x scheduler, cycled; seeds from ``seed``.

    The specs run without utilization noise: the runner layers are what
    this grid measures, and with noise the grid's simulated work varied
    by ~8% across workload seeds (~2.5% without).
    """
    from repro import puma_job
    from repro.noise import NO_NOISE
    from repro.runner import ScenarioSpec

    count = 80 if size == "full" else 8
    combos = itertools.islice(
        itertools.cycle(itertools.product(APPLICATIONS, SIZES_GB, SCHEDULERS)), count
    )
    return [
        ScenarioSpec(
            jobs=(puma_job(app, gb),),
            scheduler=scheduler,
            noise=NO_NOISE,
            seed=seed * 1000 + index,
            label=f"{app}-{gb}-{scheduler}",
        )
        for index, (app, gb, scheduler) in enumerate(combos)
    ]


class Sweep(InProcess):
    #: which SweepReport counter must equal the grid size
    source = ""

    def __init__(self, seed: int, size: str, recorder: SpanRecorder, workdir: Path) -> None:
        super().__init__(recorder)
        from repro.runner import ResultCache, SweepRunner
        from repro.runner.spool import ResultSpool

        self._cache_type = ResultCache
        self._runner_type = SweepRunner
        self._spool_type = ResultSpool
        self.specs = sweep_grid(seed, size)
        self.tasks = sum(
            job.num_maps(spec.hadoop.block_mb) + job.num_reduces
            for spec in self.specs
            for job in spec.jobs
        )
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._passes = 0
        self.reference = None
        self.makespan = None

    def prepare(self) -> None:
        """One untimed cold pass: the warm and resume passes read its cache
        and spool, and every timed pass must match its aggregate digest."""
        self.reference = self._run(self._cache_type(directory=self.workdir / "cache"),
                                   self._spool_type(self.workdir / "cold.jsonl"))[0]

    def _run(self, cache, spool):
        stamps = []
        runner = self._runner_type(
            workers=1, cache=cache, progress=lambda _line: stamps.append(perf_counter())
        )
        gc.collect()
        started = perf_counter()
        aggregate = runner.run_spooled(self.specs, spool)
        wall = perf_counter() - started
        latencies = [b - a for a, b in zip([started] + stamps, stamps)]
        return aggregate, runner.last_report, wall, latencies

    def next_stores(self):
        raise NotImplementedError

    def total_makespan(self, spool) -> float:
        """Sum of the grid's simulated makespans, read back from ``spool``."""
        return sum(record.metrics.makespan for _h, _d, record in self._spool_type(spool.path).scan())

    def rep(self) -> Rep:
        cache, spool = self.next_stores()
        aggregate, report, wall, latencies = self._run(cache, spool)
        if self.makespan is None:
            self.makespan = self.total_makespan(spool)
        total = len(self.specs)
        got = getattr(report, self.source)
        failed = 0
        notes = []
        if got != total:
            failed = total - got
            notes.append(f"{got} of {total} specs via {self.source}")
        if self.reference is not None and aggregate.digest() != self.reference.digest():
            failed = total
            notes.append("aggregate digest differs from the cold pass")
        return Rep(
            wall_s=wall,
            ops=total,
            failed=failed,
            tasks=self.tasks,
            requests=total,
            latencies=latencies,
            sim_energy_kj=aggregate.total_energy_kj,
            sim_makespan_s=self.makespan,
            digest=aggregate.digest(),
            layers=self.layer_sample(wall),
            notes=notes,
        )

    def _fresh_dir(self) -> Path:
        self._passes += 1
        path = self.workdir / f"pass{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        previous = self.workdir / f"pass{self._passes - 1}"
        shutil.rmtree(previous, ignore_errors=True)
        return path


class SweepCold(Sweep):
    source = "executed"

    def next_stores(self):
        path = self._fresh_dir()
        return self._cache_type(directory=path / "cache"), self._spool_type(path / "spool.jsonl")


class SweepWarm(Sweep):
    source = "cache_hits"

    def next_stores(self):
        path = self._fresh_dir()
        return self._cache_type(directory=self.workdir / "cache"), self._spool_type(path / "spool.jsonl")


class SweepResume(Sweep):
    source = "resumed"

    def next_stores(self):
        return None, self._spool_type(self.workdir / "cold.jsonl")
