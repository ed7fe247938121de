"""Float reductions and powers with one fixed rounding sequence.

Every digest in the reproduction pins results to the last bit, so the
float operations behind them must not depend on the interpreter version
or on which array library evaluated them:

* builtin :func:`sum` accumulates floats left to right up to Python 3.11
  but is compensated (Neumaier) from 3.12 on, so the same samples can
  sum to different bits; :func:`sum_sequential` is the 3.11 order on
  every version.
* ``ndarray.sum()`` adds float64 pairwise in blocks of eight;
  :func:`sum_pairwise` reproduces that order on a Python list, so scalar
  code can normalize exactly as NumPy-era code did.
* ``ndarray ** p`` special-cases a few exponents (``x*x`` for 2,
  ``sqrt`` for 0.5) that libm ``pow`` rounds differently; :func:`power`
  applies those same special cases to Python floats.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["power", "sum_pairwise", "sum_sequential"]

#: NumPy's pairwise-summation block: runs of at most this many elements
#: are added by eight interleaved accumulators, longer ones split in two.
_PAIRWISE_BLOCK = 128


def sum_sequential(values: Iterable[float]) -> float:
    """Left-to-right float sum, ``((0.0 + v0) + v1) + ...``.

    The order builtin ``sum`` used before Python 3.12; empty input gives
    ``0.0``.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def sum_pairwise(values: Sequence[float]) -> float:
    """The float64 ``ndarray.sum()`` of ``values``, bit for bit.

    Below eight elements NumPy adds left to right; up to 128 it keeps
    eight lane accumulators, folds them as ``((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7))`` and adds the leftover tail; longer inputs split
    at a multiple of eight near the middle and recurse.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
        end = lo + n - n % 8
        i = lo + 8
        while i < end:
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
            i += 8
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def power(x: float, p: float) -> float:
    """``x ** p`` with the rounding of ``ndarray ** p`` for a scalar ``p``.

    NumPy evaluates ``p == 2`` as ``x*x``, ``p == 1`` as ``x`` and
    ``p == 0.5`` as ``sqrt(x)``; libm ``pow`` differs from the first on
    about one input in 1,300.  Every other exponent goes to ``pow``,
    which is the portable choice: NumPy's own vectorized ``power`` is
    CPU-dispatched there and not reproducible across hosts.
    """
    if p == 2.0:
        return x * x
    if p == 1.0:
        return x
    if p == 0.5:
        return math.sqrt(x)
    return x**p
