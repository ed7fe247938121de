"""Run-level metrics collection.

:class:`MetricsCollector` subscribes to the JobTracker's completion
reports and aggregates the counts behind the adaptiveness figures
(completed tasks per machine type, per application, per task kind);
:class:`JobResult` and :class:`RunMetrics` are the per-job and per-run
records every experiment harness returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster
from ..hadoop import HadoopConfig, Job, JobTracker, TaskKind, TaskReport
from ..workloads import JobSpec
from .fairness import estimate_standalone_jct, fairness_from_slowdowns, slowdown

__all__ = ["MetricsCollector", "CollectorSummary", "JobResult", "RunMetrics"]


@dataclass(frozen=True)
class JobResult:
    """Completion record of one job."""

    job_id: int
    name: str
    application: str
    size_class: Optional[str]
    submit_time: float
    finish_time: float
    completion_time: float
    standalone_estimate: float

    @property
    def slowdown(self) -> float:
        """Normalized execution time vs the standalone estimate."""
        return slowdown(self.completion_time, self.standalone_estimate)


class _CollectorProjections:
    """Projection methods shared by the live collector and its detached
    summary — both expose ``completed``/``busy_seconds``/locality counters."""

    completed: Dict[Tuple[str, str, str], int]
    local_maps: int
    total_maps: int

    def tasks_by_machine_and_app(self) -> Dict[str, Dict[str, int]]:
        """machine model -> application -> completed tasks (Fig. 9(a))."""
        out: Dict[str, Dict[str, int]] = {}
        for (model, application, _kind), count in self.completed.items():
            out.setdefault(model, {}).setdefault(application, 0)
            out[model][application] += count
        return out

    def tasks_by_machine_and_kind(self) -> Dict[str, Dict[str, int]]:
        """machine model -> map/reduce -> completed tasks (Fig. 9(b))."""
        out: Dict[str, Dict[str, int]] = {}
        for (model, _application, kind), count in self.completed.items():
            out.setdefault(model, {}).setdefault(kind, 0)
            out[model][kind] += count
        return out

    @property
    def locality_rate(self) -> float:
        """Fraction of maps that read node-local input."""
        if self.total_maps == 0:
            return 0.0
        return self.local_maps / self.total_maps


@dataclass(frozen=True)
class CollectorSummary(_CollectorProjections):
    """A detached, picklable snapshot of a :class:`MetricsCollector`.

    Holds only the aggregated counters — no cluster or simulator
    references — so it can cross ``multiprocessing`` boundaries and live
    in the result cache while keeping the projection API intact.
    """

    completed: Dict[Tuple[str, str, str], int]
    busy_seconds: Dict[Tuple[str, str], float]
    reports_seen: int
    local_maps: int
    total_maps: int
    #: Finish time of every completed task, in report order.
    completion_times: Tuple[float, ...]


@dataclass
class MetricsCollector(_CollectorProjections):
    """Aggregates task reports while a simulation runs.

    Attach with ``jobtracker.add_report_listener(collector.on_report)``.
    """

    cluster: Cluster
    #: (machine_model, application, kind) -> completed tasks
    completed: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    #: (machine_model, application) -> summed task wall-clock seconds
    busy_seconds: Dict[Tuple[str, str], float] = field(default_factory=dict)
    reports_seen: int = 0
    local_maps: int = 0
    total_maps: int = 0
    #: Finish time of every completed task, in report order — the raw
    #: series behind windowed throughput/efficiency (churn experiment).
    completion_times: List[float] = field(default_factory=list)

    def on_report(self, report: TaskReport) -> None:
        """JobTracker report listener."""
        model = self.cluster.machine(report.machine_id).spec.model
        # The report carries the application explicitly; job names are free
        # text and may themselves contain dashes, so never parse them.
        application = report.application or report.job_name
        key = (model, application, report.kind.value)
        self.completed[key] = self.completed.get(key, 0) + 1
        busy_key = (model, application)
        self.busy_seconds[busy_key] = self.busy_seconds.get(busy_key, 0.0) + report.duration
        self.reports_seen += 1
        self.completion_times.append(report.finish_time)
        if report.kind is TaskKind.MAP:
            self.total_maps += 1
            if report.local:
                self.local_maps += 1

    def detach(self) -> CollectorSummary:
        """Snapshot the counters without the cluster reference."""
        return CollectorSummary(
            completed=dict(self.completed),
            busy_seconds=dict(self.busy_seconds),
            reports_seen=self.reports_seen,
            local_maps=self.local_maps,
            total_maps=self.total_maps,
            completion_times=tuple(self.completion_times),
        )


@dataclass
class RunMetrics:
    """Everything an experiment needs from one simulation run."""

    scheduler_name: str
    seed: int
    makespan: float
    total_energy_joules: float
    energy_by_type: Dict[str, float]
    idle_energy_joules: float
    dynamic_energy_joules: float
    utilization_by_type: Dict[str, float]
    job_results: List[JobResult]
    #: Live collector during/after a run; a detached summary once the
    #: metrics have been made portable (pickled, cached, or shipped back
    #: from a worker process).
    collector: "MetricsCollector | CollectorSummary"
    #: Attempts killed by faults/speculation that had to re-execute
    #: elsewhere (0 on fault-free runs).
    reexecuted_tasks: int = 0
    #: Joules those killed attempts burned for nothing (Eq. 2 attribution;
    #: a subset of ``total_energy_joules``, never additional draw).
    wasted_energy_joules: float = 0.0

    def portable(self) -> "RunMetrics":
        """A copy safe to pickle: the collector is detached from the
        cluster/simulator object graph.  All numbers are unchanged."""
        collector = self.collector
        if isinstance(collector, MetricsCollector):
            collector = collector.detach()
        return replace(self, collector=collector)

    @property
    def total_energy_kj(self) -> float:
        return self.total_energy_joules / 1000.0

    @property
    def slowdowns(self) -> List[float]:
        return [job.slowdown for job in self.job_results]

    @property
    def fairness(self) -> float:
        """1 / variance of slowdowns (Section VI-D)."""
        return fairness_from_slowdowns(self.slowdowns)

    def mean_jct(self) -> float:
        if not self.job_results:
            raise ValueError("no completed jobs")
        return sum(j.completion_time for j in self.job_results) / len(self.job_results)

    def mean_jct_by_class(self) -> Dict[Tuple[str, str], float]:
        """(application, size_class) -> mean completion time (Fig. 8(c))."""
        sums: Dict[Tuple[str, str], List[float]] = {}
        for job in self.job_results:
            key = (job.application, job.size_class or "all")
            sums.setdefault(key, []).append(job.completion_time)
        return {key: sum(values) / len(values) for key, values in sums.items()}

    def summary(self) -> str:
        """One-paragraph human-readable roll-up."""
        lines = [
            f"scheduler={self.scheduler_name} seed={self.seed}",
            f"  jobs completed : {len(self.job_results)}",
            f"  makespan       : {self.makespan / 60:.1f} min",
            f"  total energy   : {self.total_energy_kj:.1f} kJ "
            f"(idle {self.idle_energy_joules / 1000:.1f} / "
            f"dynamic {self.dynamic_energy_joules / 1000:.1f})",
            f"  mean JCT       : {self.mean_jct() / 60:.1f} min",
            f"  fairness       : {self.fairness:.2f} (1/var slowdown)",
        ]
        if self.reexecuted_tasks:
            lines.append(
                f"  re-executed    : {self.reexecuted_tasks} attempts "
                f"({self.wasted_energy_joules / 1000:.1f} kJ wasted)"
            )
        return "\n".join(lines)


def build_job_results(
    jobtracker: JobTracker,
    cluster: Cluster,
    config: HadoopConfig,
) -> List[JobResult]:
    """Convert the JobTracker's completed jobs into :class:`JobResult` rows."""
    results: List[JobResult] = []
    for job in jobtracker.completed_jobs:
        spec: JobSpec = job.spec
        results.append(
            JobResult(
                job_id=job.job_id,
                name=job.name,
                application=spec.profile.name,
                size_class=spec.size_class,
                submit_time=job.submit_time,
                finish_time=job.finish_time if job.finish_time is not None else float("nan"),
                completion_time=job.completion_time,
                standalone_estimate=estimate_standalone_jct(spec, cluster, config),
            )
        )
    return results
