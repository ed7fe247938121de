"""The fixed-order float helpers behind every digest.

``sum_sequential`` must be the pre-3.12 builtin ``sum`` order on every
interpreter, ``sum_pairwise`` must be NumPy's ``ndarray.sum()`` and
``power`` must round like ``ndarray ** p``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.model import TaskEnergyModel, UtilizationSample
from repro.numerics import power, sum_pairwise, sum_sequential

#: One large window followed by six tiny ones, each below half an ulp of
#: the running total: left to right the total never moves, while a
#: compensated sum (math.fsum, builtin sum on Python >= 3.12) keeps them.
_SPREAD = [1.0] + [1e-16] * 6

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _left_to_right(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


def test_spread_inputs_separate_the_two_orders():
    assert math.fsum(_SPREAD) != _left_to_right(_SPREAD)


def test_sum_sequential_is_left_to_right_not_compensated():
    assert sum_sequential(_SPREAD) == _left_to_right(_SPREAD) == 1.0
    assert sum_sequential([]) == 0.0


def test_eq2_estimate_accumulates_left_to_right():
    # idle 0 W and alpha 1 W make each window's joules its utilization.
    model = TaskEnergyModel(idle_watts=0.0, alpha_watts=1.0, total_slots=1)
    samples = [UtilizationSample(u, 1.0) for u in _SPREAD]
    assert model.estimate(samples) == _left_to_right(_SPREAD)
    assert model.estimate(samples) != math.fsum(_SPREAD)
    assert model.estimate(samples) == _left_to_right(
        model.sample_energy(sample) for sample in samples
    )


@given(st.lists(finite, max_size=300), st.floats(min_value=-5, max_value=5))
@settings(max_examples=200, deadline=None)
def test_sum_pairwise_matches_ndarray_sum(values, scale_exp):
    # Spread magnitudes so the eight-lane order visibly differs from a
    # left-to-right sum on long inputs.
    scaled = [v * 10.0**scale_exp * (1 + i % 7) for i, v in enumerate(values)]
    assert sum_pairwise(scaled).hex() == float(np.array(scaled, dtype=float).sum()).hex()


def test_power_rounds_like_ndarray_power():
    # 20k full-mantissa inputs: libm pow(x, 2.0) and pow(x, 0.5) each
    # differ from x*x and sqrt(x) on about one in 1,300 of them.
    values = np.random.default_rng(0).uniform(1e-3, 1e4, 20_000)
    listed = values.tolist()
    for p in (2.0, 1.0, 0.5):
        expected = (values**p).tolist()
        assert [power(v, p) for v in listed] == expected, p
    # Other exponents take libm pow, the portable choice.
    for p in (3.0, 0.25):
        assert [power(v, p) for v in listed] == [v**p for v in listed], p
