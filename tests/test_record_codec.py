"""The RunRecord JSON codec: exact round trips, one projection per record,
and no code execution when cache or spool files are read.

The codec is the only on-disk form of a record (cache entries and spool
lines share it), so its contract is checked on every differential-corpus
scenario and on records carrying every optional section.
"""

import base64
import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.runner import ResultCache, ResultSpool, SweepRunner, merge_spools
from repro.runner import record as record_module
from repro.runner.engine import execute_spec
from repro.runner.record import RunRecord, build_record, record_digest
from repro.runner.spool import decode_line, encode_record

from .differential.corpus import build_corpus
from .test_spool import tiny_record, tiny_spec

CORPUS = build_corpus()


def round_trip(record: RunRecord) -> None:
    line, digest = encode_record(record)
    spec_hash, decoded_digest, decoded = decode_line(line)
    assert decoded == record
    assert spec_hash == record.spec_hash
    assert decoded_digest == digest == record_digest(record)
    assert record_digest(decoded) == digest
    # Re-encoding the decoded record reproduces the line byte for byte.
    assert encode_record(decoded)[0] == line


@pytest.mark.parametrize("name,spec", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_records_round_trip(name, spec):
    round_trip(build_record(spec, execute_spec(spec), wall_seconds=1.25))


@pytest.mark.parametrize(
    "name", ["eant-churn-metered-seed11", "fair-trace-openloop-seed12"]
)
def test_records_with_telemetry_round_trip(name):
    """Telemetry and profile sections, next to a meter and fault
    recoveries (churn) or an open-loop backlog (trace)."""
    spec = dict(CORPUS)[name]
    record = build_record(spec, execute_spec(spec, telemetry=True), wall_seconds=0.5)
    assert record.telemetry is not None and record.profile is not None
    assert record.telemetry.samples > 0
    if record.backlog is None:
        assert record.meter is not None and record.faults
    round_trip(record)


def test_each_spooled_record_is_projected_once(tmp_path, monkeypatch):
    """Spooling a record projects it once; its digest is never walked
    again, and resuming from the spool projects nothing."""
    projected = []
    digestable = record_module._digestable

    def counting(value, precision=None):
        if isinstance(value, RunRecord):
            projected.append(value.spec_hash)
        return digestable(value, precision)

    monkeypatch.setattr(record_module, "_digestable", counting)
    specs = [tiny_spec(seed) for seed in range(3)]
    path = tmp_path / "s.jsonl"

    runner = SweepRunner(workers=1)
    cold = runner.run_spooled(specs, ResultSpool(path))
    assert runner.last_report.executed == 3
    assert sorted(projected) == sorted(spec.spec_hash() for spec in specs)

    projected.clear()
    resumed = runner.run_spooled(specs, ResultSpool(path))
    assert runner.last_report.resumed == 3
    assert projected == []
    assert resumed.digest() == cold.digest()


# ------------------------------------------------- reading never runs code
class _Touch:
    """Pickles to a call of ``Path.touch(marker)``: proof of execution."""

    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (Path.touch, (self.marker,))


def crafted_v1_line(spec_hash: str, marker: Path) -> str:
    """A v1 spool line whose ``sha`` is right and whose payload runs code."""
    payload = base64.b64encode(pickle.dumps(_Touch(marker))).decode("ascii")
    return json.dumps(
        {
            "v": 1,
            "spec": spec_hash,
            "digest": record_digest(tiny_record()),
            "sha": hashlib.sha256(payload.encode("ascii")).hexdigest()[:16],
            "payload": payload,
        }
    )


def test_crafted_spool_line_is_not_executed_by_scan_or_merge(tmp_path):
    marker = tmp_path / "executed"
    path = tmp_path / "foreign.jsonl"
    path.write_text(crafted_v1_line(tiny_spec(0).spec_hash(), marker) + "\n")

    warnings: list = []
    assert list(ResultSpool(path).scan(warnings.append)) == []
    assert not marker.exists()
    assert merge_spools([path], out=tmp_path / "merged.jsonl", warn=warnings.append) == {}
    assert not marker.exists()
    assert len(warnings) == 2
    assert all("unsupported spool version 1" in w for w in warnings)

    runner = SweepRunner(workers=1)
    runner.run_spooled([tiny_spec(0)], ResultSpool(path))
    assert runner.last_report.executed == 1  # the spec re-ran
    assert not marker.exists()


def test_crafted_pickle_in_the_cache_is_a_miss(tmp_path):
    marker = tmp_path / "executed"
    cache = ResultCache(tmp_path / "cache")
    spec = tiny_spec(0)
    entry = cache.path_for(spec)
    entry.parent.mkdir(parents=True)
    crafted = pickle.dumps(_Touch(marker))
    entry.with_suffix(".pkl").write_bytes(crafted)  # the old entry name
    entry.write_bytes(crafted)

    assert cache.get(spec) is None
    assert cache.stats.misses == 1
    assert not entry.exists()  # evicted
    assert not marker.exists()
