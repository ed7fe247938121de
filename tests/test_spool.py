"""Result-spool line format, damage tolerance, and deterministic merging.

Damage cases mirror what a SIGKILL or a disk hiccup actually produces —
a truncated final line, a garbage line, duplicate entries — and the
contract under all of them is the same: exit clean, warn in the
``file:line: warning:`` convention, redo exactly the damaged specs, and
never silently lose or invent a result.
"""

import base64
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ResultSpool,
    ScenarioSpec,
    SpoolLineError,
    SweepAggregate,
    SweepRunner,
    aggregate_digest,
    digest_listing,
    merge_spools,
    record_digest,
)
from repro.runner.spool import decode_line, encode_record
from repro.workloads import puma_job

# One tiny record per scheduler/seed, executed once per test session.
_RECORDS: dict = {}


def tiny_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        jobs=(puma_job("grep", 0.25),),
        scheduler="fifo",
        seed=seed,
        label=f"fifo@{seed}",
    )


def tiny_record(seed: int = 0):
    if seed not in _RECORDS:
        _RECORDS[seed] = tiny_spec(seed).run_record()
    return _RECORDS[seed]


def line_of(record) -> str:
    return encode_record(record)[0]


def resealed(data: dict) -> str:
    """Re-render an edited line with a ``sha`` that matches its record."""
    body = json.dumps(data["record"], separators=(",", ":"))
    data["sha"] = hashlib.sha256(body.encode()).hexdigest()[:16]
    return json.dumps(data)


# ------------------------------------------------------------- line format
class TestLineFormat:
    def test_roundtrip(self):
        record = tiny_record()
        spec_hash, digest, decoded = decode_line(line_of(record))
        assert spec_hash == record.spec_hash
        assert digest == record_digest(record)
        assert decoded == record
        assert record_digest(decoded) == digest

    def test_encoding_is_deterministic(self):
        record = tiny_record()
        assert line_of(record) == line_of(record)

    def test_line_is_plain_json(self):
        """Readable without repro: floats are ``float.hex`` strings."""
        record = tiny_record()
        data = json.loads(line_of(record))
        assert data["v"] == 2
        assert data["spec"] == data["record"]["spec_hash"] == record.spec_hash
        makespan = data["record"]["metrics"]["makespan"]
        assert float.fromhex(makespan) == record.metrics.makespan

    @pytest.mark.parametrize(
        "mutate,reason",
        [
            (lambda d: d.pop("record"), "missing key"),
            (lambda d: d.update(v=99), "unsupported spool version"),
            (lambda d: d.update(sha="0" * 16), "checksum mismatch"),
            (lambda d: d.update(spec=123), "must be strings"),
        ],
    )
    def test_field_damage_is_detected(self, mutate, reason):
        record = tiny_record()
        data = json.loads(line_of(record))
        mutate(data)
        with pytest.raises(SpoolLineError, match=reason):
            decode_line(json.dumps(data))

    def test_wrong_payload_type_is_detected(self):
        """A checksummed JSON object that is not a RunRecord is damage."""
        line = resealed(
            {
                "v": 2,
                "spec": "a" * 64,
                "digest": "b" * 64,
                "record": {"not": "a record"},
            }
        )
        with pytest.raises(SpoolLineError, match="does not decode"):
            decode_line(line)

    def test_spec_hash_mismatch_is_detected(self):
        record = tiny_record()
        data = json.loads(line_of(record))
        # The sha covers the record only, so the *semantic* check fires.
        data["spec"] = "f" * 64
        with pytest.raises(SpoolLineError, match="belongs to spec"):
            decode_line(json.dumps(data))

    def test_digest_mismatch_is_detected(self):
        record = tiny_record()
        data = json.loads(line_of(record))
        data["digest"] = "0" * 64
        with pytest.raises(SpoolLineError, match="claimed digest"):
            decode_line(json.dumps(data))

    def test_edited_record_with_resealed_sha_fails_its_digest(self):
        record = tiny_record()
        data = json.loads(line_of(record))
        data["record"]["metrics"]["makespan"] = (1.0).hex()
        with pytest.raises(SpoolLineError, match="claimed digest"):
            decode_line(resealed(data))

    def test_not_json(self):
        with pytest.raises(SpoolLineError, match="not valid JSON"):
            decode_line("{truncated")
        with pytest.raises(SpoolLineError, match="not a JSON object"):
            decode_line("[1, 2, 3]")

    def test_v1_pickle_line_is_unsupported_and_its_spec_reruns(self, tmp_path):
        """A v1 spool (base64 pickle payloads) resumes by re-running."""
        record = tiny_record()
        payload = base64.b64encode(pickle.dumps(record)).decode("ascii")
        v1_line = json.dumps(
            {
                "v": 1,
                "spec": record.spec_hash,
                "digest": record_digest(record),
                "sha": hashlib.sha256(payload.encode()).hexdigest()[:16],
                "payload": payload,
            }
        )
        with pytest.raises(SpoolLineError, match="unsupported spool version 1"):
            decode_line(v1_line)

        path = tmp_path / "v1.jsonl"
        path.write_text(v1_line + "\n")
        warnings: list = []
        runner = SweepRunner(workers=1, warn=warnings.append)
        aggregate = runner.run_spooled([tiny_spec(0)], ResultSpool(path))
        assert runner.last_report.executed == 1
        assert runner.last_report.resumed == 0
        assert aggregate.entries == {record.spec_hash: record_digest(record)}
        assert any(
            w.startswith(f"{path}:1: warning: unsupported spool version 1")
            for w in warnings
        )


# ------------------------------------------------------------ damage scans
def write_spool(path, records) -> None:
    with ResultSpool(path) as spool:
        for record in records:
            spool.append(record)


class TestDamageTolerance:
    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path):
        """The canonical SIGKILL-mid-write shape: half a line at EOF."""
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0), tiny_record(1)])
        text = path.read_text()
        lines = text.splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        warnings: list = []
        entries = dict(
            (h, d) for h, d, _ in ResultSpool(path).scan(warnings.append)
        )
        assert list(entries) == [tiny_record(0).spec_hash]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{path}:2: warning:")
        assert "re-run" in warnings[0]

    def test_garbage_line_is_skipped_others_survive(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write("complete garbage, not even json\n")
        write_spool(path, [tiny_record(1)])  # append mode: keeps going

        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert set(completed) == {
            tiny_record(0).spec_hash,
            tiny_record(1).spec_hash,
        }
        assert [w.split(" warning:")[0] for w in warnings] == [f"{path}:2:"]

    def test_duplicate_spec_hash_keeps_first(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0), tiny_record(0)])
        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert len(completed) == 1
        assert len(warnings) == 1
        assert "duplicate entry" in warnings[0]

    def test_resume_append_seals_a_torn_final_line(self, tmp_path):
        """Appending to a spool whose last line is torn must not glue the
        new record onto the fragment (that would lose *both*)."""
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write('{"v":2,"spec":"torn')  # no newline — mid-write kill
        write_spool(path, [tiny_record(1)])

        warnings: list = []
        completed = ResultSpool(path).completed(warnings.append)
        assert set(completed) == {
            tiny_record(0).spec_hash,
            tiny_record(1).spec_hash,
        }
        assert len(warnings) == 1  # only the sealed fragment

    def test_missing_file_scans_empty(self, tmp_path):
        assert ResultSpool(tmp_path / "absent.jsonl").completed() == {}

    def test_blank_lines_are_ignored_silently(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_spool(path, [tiny_record(0)])
        with open(path, "a") as handle:
            handle.write("\n   \n")
        warnings: list = []
        assert len(ResultSpool(path).completed(warnings.append)) == 1
        assert warnings == []


# ------------------------------------------------------------------- merge
class TestMerge:
    def test_merge_is_order_invariant_to_the_byte(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(2)])
        write_spool(b, [tiny_record(1), tiny_record(3)])

        out_ab, out_ba = tmp_path / "ab.jsonl", tmp_path / "ba.jsonl"
        entries_ab = merge_spools([a, b], out=out_ab)
        entries_ba = merge_spools([b, a], out=out_ba)
        assert entries_ab == entries_ba
        assert out_ab.read_bytes() == out_ba.read_bytes()
        assert aggregate_digest(entries_ab) == aggregate_digest(entries_ba)

    def test_merge_equals_single_spool_of_everything(self, tmp_path):
        shard0, shard1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        full = tmp_path / "full.jsonl"
        write_spool(shard0, [tiny_record(0), tiny_record(2)])
        write_spool(shard1, [tiny_record(1)])
        write_spool(full, [tiny_record(s) for s in range(3)])
        merged = merge_spools([shard0, shard1])
        assert aggregate_digest(merged) == aggregate_digest(
            ResultSpool(full).completed()
        )

    def test_overlapping_shards_with_equal_digests_merge_silently(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(1)])
        write_spool(b, [tiny_record(1), tiny_record(2)])
        warnings: list = []
        merged = merge_spools([a, b], warn=warnings.append)
        assert len(merged) == 3
        assert warnings == []

    def test_conflicting_digests_resolve_deterministically(self, tmp_path):
        """Same spec hash, different record digest (cross-version spools):
        both merge orders pick the lexicographically smaller digest."""
        import dataclasses

        record = tiny_record(0)
        imposter = dataclasses.replace(
            record, phase_breakdown_by_job={"fake": {"map": 1.0}}
        )
        assert record_digest(imposter) != record_digest(record)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spool(a, [record])
        write_spool(b, [imposter])

        warnings: list = []
        merged_ab = merge_spools([a, b], warn=warnings.append)
        merged_ba = merge_spools([b, a])
        assert merged_ab == merged_ba
        assert merged_ab[record.spec_hash] == min(
            record_digest(record), record_digest(imposter)
        )
        assert any("conflicting digests" in w for w in warnings)

    def test_merged_output_is_itself_a_valid_spool(self, tmp_path):
        a = tmp_path / "a.jsonl"
        out = tmp_path / "merged.jsonl"
        write_spool(a, [tiny_record(0), tiny_record(1)])
        entries = merge_spools([a], out=out)
        assert ResultSpool(out).completed() == entries


# -------------------------------------------------------------- aggregates
class TestAggregate:
    def test_incremental_matches_scan(self, tmp_path):
        path = tmp_path / "s.jsonl"
        aggregate = SweepAggregate()
        with ResultSpool(path) as spool:
            for seed in range(3):
                record = tiny_record(seed)
                aggregate.add(record, spool.append(record))
        assert aggregate.records == 3
        assert aggregate.digest() == aggregate_digest(
            ResultSpool(path).completed()
        )
        assert aggregate.digest()[:12] in aggregate.summary()

    def test_digest_listing_is_sorted_and_diffable(self):
        entries = {"b" * 64: "2" * 64, "a" * 64: "1" * 64}
        listing = digest_listing(entries)
        assert listing == sorted(listing)
        assert listing[0] == f"{'a' * 64} {'1' * 64}"

    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.dictionaries(
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
            st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
            max_size=16,
        ),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_aggregate_digest_is_insertion_order_invariant(
        self, entries, order_seed
    ):
        items = list(entries.items())
        order_seed.shuffle(items)
        assert aggregate_digest(dict(items)) == aggregate_digest(entries)
