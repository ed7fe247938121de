"""Property: the plain-float E-Ant scorer equals its scalar reference.

The optimized ``_selection_arrays`` and the per-candidate reference loop
that :func:`~repro.core.reference.reference_mode` swaps in must produce
the same Eq. 8 weights by ``float.hex`` for every exponent setting, and
``_sample_job`` must pick the index ``Generator.choice`` would pick on
the same draw.  Candidate lists run up to 130 jobs, across NumPy's
eight-lane and 128-element pairwise-sum thresholds.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EAntConfig, EAntScheduler, PheromoneTable
from repro.core.heuristics import FairnessView
from repro.core.reference import reference_mode
from repro.hadoop.job import TaskKind

MACHINES = list(range(6))


class _StubCluster:
    def __init__(self, map_slots, reduce_slots):
        self._totals = (map_slots, reduce_slots)

    def total_slots(self):
        return self._totals


class _ScriptedRng:
    """Hands out one fixed draw, counting how many were taken."""

    def __init__(self, draw):
        self.draw = draw
        self.taken = 0

    def random(self):
        self.taken += 1
        return self.draw


@st.composite
def offers(draw):
    count = draw(st.integers(min_value=1, max_value=130))
    config = EAntConfig(
        beta=draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])),
        selection_sharpness=draw(st.sampled_from([2.0, 1.0, 0.5, 3.0])),
        deficit_power=draw(st.sampled_from([2.0, 1.0, 0.5, 1.5])),
    )
    # Full-mantissa taus from a drawn seed: Hypothesis' own floats favour
    # short binary fractions, on which x*x and pow(x, 2) always agree.
    rows_rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = np.exp(rows_rng.uniform(np.log(0.05), np.log(1e3), (count, len(MACHINES))))
    slots = st.integers(min_value=0, max_value=40)
    jobs = [
        SimpleNamespace(
            job_id=i,
            occupied_slots=draw(slots),
            running_maps=draw(slots),
            running_reduces=draw(slots),
        )
        for i in range(count)
    ]
    active = count + draw(st.integers(min_value=0, max_value=5))
    pool = draw(st.integers(min_value=1, max_value=400))
    return {
        "config": config,
        "rows": rows,
        "jobs": jobs,
        "kind": draw(st.sampled_from([TaskKind.MAP, TaskKind.REDUCE])),
        "machine": draw(st.sampled_from(MACHINES)),
        "fairness": FairnessView(pool_slots=pool, active_jobs=active),
        "slots": (pool, draw(st.integers(min_value=1, max_value=200))),
        "active": active,
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


def _scheduler(offer):
    scheduler = EAntScheduler(offer["config"])
    table = PheromoneTable(machine_ids=MACHINES)
    for job, row in zip(offer["jobs"], offer["rows"]):
        colony = (job.job_id, offer["kind"])
        table.ensure_colony(colony)
        table._tau[colony] = np.array(row)
    scheduler.pheromones = table
    scheduler.jobtracker = SimpleNamespace(
        cluster=_StubCluster(*offer["slots"]),
        active_jobs=[None] * offer["active"],
    )
    return scheduler


@given(offers())
@settings(max_examples=150, deadline=None)
def test_optimized_weights_equal_reference_by_hex(offer):
    scheduler = _scheduler(offer)
    args = (offer["jobs"], offer["kind"], offer["machine"], offer["fairness"])
    taus, weights = scheduler._selection_arrays(*args)
    with reference_mode():
        ref_taus, ref_weights = scheduler._selection_arrays(*args)
    assert [t.hex() for t in taus] == [t.hex() for t in ref_taus]
    assert [w.hex() for w in weights] == [w.hex() for w in ref_weights]


@given(offers())
@settings(max_examples=150, deadline=None)
def test_sampled_index_matches_generator_choice(offer):
    scheduler = _scheduler(offer)
    jobs = offer["jobs"]
    args = (jobs, offer["kind"], offer["machine"], offer["fairness"])
    weights = scheduler._selection_arrays(*args)[1]
    w = np.array(weights)

    scheduler.rng = np.random.default_rng(offer["seed"])
    chosen = scheduler._sample_job(*args, weights=weights)
    expected_rng = np.random.default_rng(offer["seed"])
    expected = int(expected_rng.choice(len(w), p=w / w.sum()))
    assert chosen is jobs[expected]
    # Exactly one draw consumed, as choice() does.
    assert scheduler.rng.random() == expected_rng.random()

    # Draws landing exactly on a cumulative boundary pick the same side.
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    for boundary in {float(cdf[0]), float(cdf[len(cdf) // 2]), float(cdf[-1])}:
        scheduler.rng = _ScriptedRng(boundary)
        chosen = scheduler._sample_job(*args, weights=weights)
        index = min(int(cdf.searchsorted(boundary, side="right")), len(jobs) - 1)
        assert chosen is jobs[index]
        assert scheduler.rng.taken == 1
