"""The JobTracker's pending-work ledger always equals a fresh scan.

Schedulers answer "no work of this kind" from
:class:`~repro.hadoop.job.PendingLedger` without scanning the active jobs,
so a ledger that drifts by one silently idles (or over-offers) slots.
These tests count the ledger against task states directly: unit-level
transitions on one job, then — under Hypothesis — after every heartbeat
of random small scenarios across schedulers, fault plans, slowstart
settings and map-only jobs.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ATOM, DESKTOP, T420
from repro.faults import FaultEvent, FaultPlan
from repro.hadoop import HadoopConfig, JobTracker
from repro.hadoop.job import PendingLedger, TaskState
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.workloads import JobSpec, puma_job, profile_by_name

from .conftest import build_stack, wordcount_spec

FLEET = ((DESKTOP, 2), (T420, 1), (ATOM, 2))
MACHINES = sum(count for _spec, count in FLEET)


def fresh_scan(jobtracker):
    """(pending maps, pending reduces, reduce-schedulable jobs) from task
    states — independent of every counter the ledger and jobs keep."""
    slowstart = jobtracker.config.reduce_slowstart
    maps = reduces = schedulable = 0
    for job in jobtracker.active_jobs:
        job_maps = sum(1 for t in job.maps if t.state is TaskState.PENDING)
        job_reduces = sum(1 for t in job.reduces if t.state is TaskState.PENDING)
        done_maps = sum(1 for t in job.maps if t.state is TaskState.COMPLETED)
        maps += job_maps
        reduces += job_reduces
        if job_reduces and done_maps >= slowstart * len(job.maps):
            schedulable += 1
    return maps, reduces, schedulable


def ledger_counts(jobtracker):
    ledger = jobtracker.ledger
    return ledger.pending_maps, ledger.pending_reduces, ledger.schedulable_jobs


# ------------------------------------------------------------------ unit level
class TestLedgerTransitions:
    def test_admission_counts_pending_work(self):
        _sim, _cluster, jt, _trackers = build_stack()
        jt.submit(wordcount_spec(num_maps=4, num_reduces=2))
        jt.submit(wordcount_spec(num_maps=3, num_reduces=0))
        assert ledger_counts(jt) == (7, 2, 0)

    def test_zero_slowstart_is_schedulable_at_admission(self):
        _sim, _cluster, jt, _trackers = build_stack(
            config=HadoopConfig(reduce_slowstart=0.0)
        )
        jt.submit(wordcount_spec(num_maps=2, num_reduces=1))
        jt.submit(wordcount_spec(num_maps=2, num_reduces=0))  # map-only: never
        assert ledger_counts(jt) == (4, 1, 1)

    def test_dispatch_requeue_and_slowstart_crossing(self):
        _sim, _cluster, jt, _trackers = build_stack(
            config=HadoopConfig(reduce_slowstart=0.5)
        )
        job = jt.submit(wordcount_spec(num_maps=2, num_reduces=1))
        first = job.take_map(0)
        assert ledger_counts(jt) == (1, 1, 0)
        job.requeue(first)
        assert ledger_counts(jt) == (2, 1, 0)
        first = job.take_map(0)
        job.complete_task(first)  # 1 of 2 maps >= 0.5 * 2: gate opens
        assert ledger_counts(jt) == (1, 1, 1)
        reduce = job.take_reduce()
        assert ledger_counts(jt) == (1, 0, 0)
        job.requeue(reduce)
        assert ledger_counts(jt) == (1, 1, 1)
        assert ledger_counts(jt) == fresh_scan(jt)

    def test_a_job_is_counted_once(self):
        _sim, _cluster, jt, _trackers = build_stack()
        job = jt.submit(wordcount_spec())
        with pytest.raises(ValueError, match="already counted"):
            job.attach_ledger(PendingLedger(0.95))
        assert ledger_counts(jt) == (4, 1, 0)

    def test_finished_run_leaves_an_empty_ledger(self):
        sim, _cluster, jt, _trackers = build_stack()
        jt.expect_jobs(2)
        jt.submit(wordcount_spec(num_maps=5, num_reduces=2))
        jt.submit(wordcount_spec(num_maps=2, num_reduces=0, submit_time=3.0))
        sim.run()
        assert not jt.active_jobs
        assert ledger_counts(jt) == (0, 0, 0)


# ------------------------------------------------------------- property level
def _job(app, gb, submit_time, map_only):
    if map_only:
        return JobSpec(
            profile=profile_by_name(app),
            input_mb=gb * 1024.0,
            num_reduces=0,
            submit_time=submit_time,
        )
    return puma_job(app, gb, submit_time=submit_time)


jobs_strategy = st.lists(
    st.builds(
        _job,
        app=st.sampled_from(("wordcount", "grep", "terasort")),
        gb=st.sampled_from((0.125, 0.25, 0.5)),
        submit_time=st.sampled_from((0.0, 10.0, 45.0)),
        map_only=st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def fault_plans(draw):
    kind = draw(st.sampled_from(("none", "crash-recover", "decommission")))
    if kind == "none":
        return None
    machine_id = draw(st.integers(min_value=0, max_value=MACHINES - 1))
    at = draw(st.sampled_from((15.0, 40.0, 80.0)))
    if kind == "crash-recover":
        return FaultPlan.crash_and_rejoin(machine_id, at=at, rejoin_after=60.0)
    return FaultPlan(
        events=(
            FaultEvent(time=at, kind="decommission", machine_id=machine_id),
            FaultEvent(
                time=at + 5.0,
                kind="flaky_heartbeats",
                machine_id=(machine_id + 1) % MACHINES,
                drop_probability=0.4,
                duration=60.0,
            ),
        )
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    jobs=jobs_strategy,
    scheduler=st.sampled_from(("e-ant", "fair", "fifo", "late")),
    slowstart=st.sampled_from((0.0, 0.05, 1.0)),
    faults=fault_plans(),
    seed=st.integers(min_value=0, max_value=50),
)
def test_ledger_equals_fresh_scan_after_every_heartbeat(
    jobs, scheduler, slowstart, faults, seed
):
    hadoop = HadoopConfig(
        reduce_slowstart=slowstart,
        # LATE only speculates (and kills losing attempts) when enabled.
        speculative_execution=scheduler == "late",
        speculative_slowness_threshold=0.5,
    )
    spec = ScenarioSpec(
        jobs=tuple(jobs),
        scheduler=scheduler,
        fleet=FLEET,
        hadoop=hadoop,
        seed=seed,
        faults=faults,
        max_sim_time=200_000.0,
    )
    original = JobTracker.heartbeat
    checked = []

    def heartbeat(self, tracker):
        assignments = original(self, tracker)
        assert ledger_counts(self) == fresh_scan(self), (
            f"ledger drifted at t={self.sim.now} on machine "
            f"{tracker.machine.machine_id}: {self.ledger!r}"
        )
        checked.append(1)
        return assignments

    with mock.patch.object(JobTracker, "heartbeat", heartbeat):
        result = execute_spec(spec)
    assert checked
    assert ledger_counts(result.jobtracker) == fresh_scan(result.jobtracker)
