"""Result-cache compaction: age/size bounds, keep-set immunity, dry-run.

The GC contract in one line: a dry run is a *promise* — the subsequent
real run removes exactly the listed hashes, nothing else — and spec
hashes protected by a keep set (a live shard manifest's members) are
never evicted by any bound.
"""

import dataclasses
import os

import pytest

from repro.runner import (
    GcReport,
    ResultCache,
    ScenarioSpec,
    shard_specs,
)
from repro.workloads import puma_job

# A generous fake "now" so tests can age entries by rewinding mtimes.
NOW = 1_700_000_000.0
DAY = 86_400.0


def spec_for(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        jobs=(puma_job("grep", 0.25),),
        scheduler="fifo",
        seed=seed,
        label=f"fifo@{seed}",
    )


@pytest.fixture(scope="module")
def record():
    return spec_for(0).run_record()


def entry_files(root) -> list:
    """Stored record files under ``root`` (spec sidecars excluded)."""
    return [
        path for path in root.rglob("*.json")
        if not path.name.endswith(".spec.json")
    ]


def fill(cache: ResultCache, record, n: int, age_days=None) -> list:
    """Store ``n`` entries; ``age_days[i]`` rewinds entry i's mtime.

    Each entry is ``record`` re-addressed to its spec: the cache rejects
    an entry whose record belongs to another spec.
    """
    specs = [spec_for(seed) for seed in range(n)]
    for index, spec in enumerate(specs):
        path = cache.put(spec, dataclasses.replace(record, spec_hash=spec.spec_hash()))
        if age_days is not None:
            mtime = NOW - age_days[index] * DAY
            os.utime(path, (mtime, mtime))
    return specs


class TestAgeBound:
    def test_old_entries_evicted_young_kept(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 4, age_days=[0.5, 2, 10, 30])
        report = cache.gc(max_age_seconds=7 * DAY, now=NOW)
        assert report.scanned == 4
        assert report.removed == 2
        assert report.removed_hashes == sorted(
            s.spec_hash() for s in specs[2:]
        )
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[2]) is None

    def test_get_refreshes_age(self, tmp_path, record):
        """A hit re-warms the entry: GC is LRU, not FIFO."""
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 2, age_days=[20, 20])
        assert cache.get(specs[0]) is not None  # touch -> mtime ~ real now
        report = cache.gc(max_age_seconds=7 * DAY, now=NOW)
        assert report.removed_hashes == [specs[1].spec_hash()]

    def test_sidecars_are_removed_with_entries(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        fill(cache, record, 2, age_days=[30, 30])
        assert list(tmp_path.rglob("*.spec.json"))
        cache.gc(max_age_seconds=1 * DAY, now=NOW)
        assert not entry_files(tmp_path)
        assert not list(tmp_path.rglob("*.spec.json"))
        # Empty fan-out directories pruned too.
        assert not list(tmp_path.glob("v1-*"))


class TestSizeBound:
    def test_oldest_evicted_until_fit(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 4, age_days=[1, 2, 3, 4])
        entry_size = next(cache.entries()).size_bytes
        report = cache.gc(max_size_bytes=2 * entry_size + 1, now=NOW)
        # The two oldest go; the two youngest fit the budget.
        assert set(report.removed_hashes) == {
            specs[2].spec_hash(), specs[3].spec_hash()
        }
        assert cache.get(specs[0]) is not None

    def test_zero_budget_clears_everything_unkept(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        fill(cache, record, 3)
        report = cache.gc(max_size_bytes=0)
        assert report.removed == 3
        assert report.kept == 0

    def test_no_bounds_removes_nothing(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        fill(cache, record, 3)
        report = cache.gc()
        assert report.removed == 0
        assert report.scanned == report.kept == 3
        assert report.total_bytes > 0


class TestKeepSet:
    def test_kept_hashes_survive_both_bounds(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 4, age_days=[100, 100, 100, 100])
        keep = {specs[1].spec_hash(), specs[3].spec_hash()}
        report = cache.gc(
            max_age_seconds=1 * DAY, max_size_bytes=0, keep=keep, now=NOW
        )
        assert set(report.removed_hashes) == {
            specs[0].spec_hash(), specs[2].spec_hash()
        }
        assert cache.get(specs[1]) is not None
        assert cache.get(specs[3]) is not None

    def test_manifest_members_as_keep_set(self, tmp_path, record):
        """The CLI wiring: --keep-manifest protects a shard's specs."""
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 6, age_days=[50] * 6)
        manifest, members = shard_specs(specs, 2, 0)
        report = cache.gc(
            max_age_seconds=1 * DAY, keep=manifest.spec_hashes, now=NOW
        )
        member_hashes = {m.spec_hash() for m in members}
        assert member_hashes.isdisjoint(report.removed_hashes)
        assert report.removed == 6 - len(members)


class TestDryRun:
    def test_dry_run_deletes_nothing_and_predicts_exactly(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        specs = fill(cache, record, 5, age_days=[1, 5, 10, 20, 40])
        keep = {specs[2].spec_hash()}

        dry = cache.gc(max_age_seconds=7 * DAY, keep=keep, dry_run=True, now=NOW)
        assert dry.dry_run
        assert all(cache.get(spec) is not None for spec in specs), (
            "dry run must not delete"
        )
        # get() touched every mtime; rewind again so the real pass sees
        # the same ages the dry run saw.
        fill(cache, record, 5, age_days=[1, 5, 10, 20, 40])

        real = cache.gc(max_age_seconds=7 * DAY, keep=keep, now=NOW)
        assert real.removed_hashes == dry.removed_hashes
        assert real.removed == dry.removed
        assert real.freed_bytes == dry.freed_bytes
        assert "would remove" in dry.summary()
        assert "would" not in real.summary()

    def test_report_summary_shape(self):
        report = GcReport(dry_run=False, scanned=3, kept=2, removed=1,
                          total_bytes=3_000_000, freed_bytes=1_000_000)
        assert "scanned 3 entries" in report.summary()
        assert "removed 1" in report.summary()


class TestCrossGeneration:
    def test_stale_generations_compete_under_the_same_bounds(self, tmp_path, record):
        old = ResultCache(tmp_path, salt="a" * 64)
        new = ResultCache(tmp_path, salt="b" * 64)
        old_specs = fill(old, record, 2, age_days=[30, 30])
        new_specs = fill(new, record, 2, age_days=[1, 1])

        report = new.gc(max_age_seconds=7 * DAY, now=NOW)
        assert report.scanned == 4
        assert sorted(report.removed_hashes) == sorted(
            s.spec_hash() for s in old_specs
        )
        assert new.get(new_specs[0]) is not None

    def test_legacy_pickle_generation_is_inventoried_and_evicted(self, tmp_path, record):
        """``.pkl`` entries of an older generation are never read, but GC
        still counts them and removes them with their sidecars."""
        legacy = tmp_path / f"v1-{'0' * 12}"
        hashes = sorted(spec_for(seed).spec_hash() for seed in (10, 11))
        for spec_hash in hashes:
            fan_out = legacy / spec_hash[:2]
            fan_out.mkdir(parents=True, exist_ok=True)
            entry = fan_out / f"{spec_hash}.pkl"
            entry.write_bytes(b"\x80\x05legacy pickle bytes")
            (fan_out / f"{spec_hash}.spec.json").write_text("{}\n")
            mtime = NOW - 30 * DAY
            os.utime(entry, (mtime, mtime))
        cache = ResultCache(tmp_path)
        fill(cache, record, 1, age_days=[1])

        inventory = {entry.spec_hash: entry.generation for entry in cache.entries()}
        assert {h: inventory[h] for h in hashes} == {h: legacy.name for h in hashes}
        assert len(inventory) == 3

        report = cache.gc(max_age_seconds=7 * DAY, now=NOW)
        assert report.removed_hashes == hashes
        assert not legacy.exists()  # entries, sidecars and empty dirs gone
        assert len(entry_files(tmp_path)) == 1


class TestCliSmoke:
    def test_cache_gc_cli_dry_then_real(self, tmp_path, record, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        fill(cache, record, 3)
        base = ["cache", "gc", "--cache-dir", str(tmp_path)]

        assert main(base + ["--max-size-mb", "0", "--dry-run"]) == 0
        assert "would remove 3" in capsys.readouterr().out
        assert len(entry_files(tmp_path)) == 3

        assert main(base + ["--max-size-mb", "0"]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert not entry_files(tmp_path)

    def test_cache_gc_requires_a_bound(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "error: cache gc needs at least one bound" in capsys.readouterr().err

    def test_cache_info_lists_generations(self, tmp_path, record, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        fill(cache, record, 2)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert f"v1-{cache.salt[:12]}" in out
