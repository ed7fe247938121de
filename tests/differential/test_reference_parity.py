"""Differential proof: the optimized hot paths equal the naive reference.

Every scenario in the corpus is executed twice — once on the optimized
kernel/assignment paths and once inside
:func:`repro.core.reference.reference_mode`, which swaps in the retained
pre-optimization implementations — and the two
:func:`~repro.runner.record.record_digest` values must match exactly.
The digest covers every float in the portable record via ``float.hex()``
projections, so "match" here means bit-identical simulations, not
approximately-equal metrics.

E-Ant's ``slot_stats`` (offered / filled / no-work slot counts) are not
part of the digest, so they are compared separately: the optimized path
books a kind with no work in one addition, the reference one slot at a
time, and the counts must agree exactly.
"""

import pytest

from repro.core.reference import REFERENCE_PATCHES, reference_mode
from repro.runner.engine import execute_spec
from repro.runner.record import build_record, record_digest

from .corpus import LARGE_FLEET_PRECISION, build_corpus, build_large_fleet_corpus

CORPUS = build_corpus()
LARGE_FLEET_CORPUS = build_large_fleet_corpus()


def _run(spec, precision=None):
    """(record digest, E-Ant slot_stats or None) of one execution."""
    result = execute_spec(spec)
    digest = record_digest(build_record(spec, result, wall_seconds=0.0), precision=precision)
    return digest, getattr(result.scheduler, "slot_stats", None)


@pytest.mark.parametrize("name,spec", CORPUS, ids=[name for name, _ in CORPUS])
def test_optimized_matches_reference(name, spec):
    optimized, optimized_slots = _run(spec)
    with reference_mode():
        reference, reference_slots = _run(spec)
    assert optimized == reference, (
        f"{name}: optimized run diverged from the naive reference — "
        "an optimization changed observable behaviour"
    )
    assert optimized_slots == reference_slots, (
        f"{name}: E-Ant slot_stats diverged from the per-slot reference booking"
    )


@pytest.mark.parametrize(
    "name,spec", LARGE_FLEET_CORPUS, ids=[name for name, _ in LARGE_FLEET_CORPUS]
)
def test_large_fleet_matches_reference_at_tolerance(name, spec):
    """Procedural-fleet runs agree with the scalar reference at tolerance.

    At hundreds of machines the dense kernel's reductions are no longer
    contractually bit-exact against the scalar loops, so this tier digests
    with :data:`LARGE_FLEET_PRECISION` rounded floats; structure and every
    non-float value are still compared exactly.  ``reference_mode()``
    exercises the full scalar scoring/update path at scale.
    """
    optimized, optimized_slots = _run(spec, precision=LARGE_FLEET_PRECISION)
    with reference_mode():
        reference, reference_slots = _run(spec, precision=LARGE_FLEET_PRECISION)
    assert optimized == reference, (
        f"{name}: large-fleet run diverged from the naive reference "
        f"beyond 1 part in 1e{LARGE_FLEET_PRECISION}"
    )
    assert optimized_slots == reference_slots, (
        f"{name}: E-Ant slot_stats diverged from the per-slot reference booking"
    )


def test_reference_mode_swaps_and_restores():
    """The context manager installs every patch and restores on exit."""
    originals = {
        (cls, attr): cls.__dict__[attr] for (cls, attr) in REFERENCE_PATCHES
    }
    with reference_mode():
        for (cls, attr), naive in REFERENCE_PATCHES.items():
            assert cls.__dict__[attr] is naive
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original


def test_reference_mode_restores_on_exception():
    originals = {
        (cls, attr): cls.__dict__[attr] for (cls, attr) in REFERENCE_PATCHES
    }
    with pytest.raises(RuntimeError, match="boom"):
        with reference_mode():
            raise RuntimeError("boom")
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original
