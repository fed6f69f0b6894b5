"""Per-column update deltas: the value cache and the receiver merge."""

import pytest

from repro.core.cursor import ValueCache
from repro.core.differential import DifferentialRefresher
from repro.core.manager import SnapshotManager
from repro.core.messages import EntryMessage, UpdateDeltaMessage
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import RetryExhaustedError, SnapshotError
from repro.net.faults import FaultyLink
from repro.net.retry import RetryPolicy
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType, StringType
from repro.storage.rid import Rid


def build(n=60):
    db = Database()
    schema = Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType(), nullable=True),
            Column("v", IntType()),
        ]
    )
    table = db.create_table("items", schema, annotations="lazy")
    rids = [table.insert([i, f"name-{i:04d}", i % 7]) for i in range(n)]
    return db, table, rids


def truth(table, predicate):
    return {
        rid: row.values
        for rid, row in table.scan(visible=True)
        if predicate(row.values)
    }


class TestDeltaRefresh:
    def test_second_refresh_sends_deltas(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        assert snap.table.applied_merges == 0
        before = len(snap.value_mirror)
        assert before == len(snap.table)  # initial refresh filled the mirror

        for i in range(10, 30):
            table.update(rids[i], {"v": 1})
        snap.refresh()
        assert snap.table.applied_merges > 0
        assert snap.table.as_map() == truth(table, lambda v: v[2] < 5)

    def test_delta_bytes_beat_full_entries(self):
        results = {}
        for delta in (False, True):
            db, table, rids = build(120)
            manager = SnapshotManager(db)
            snap = manager.create_snapshot(
                "s", "items", where="v >= 0", delta_updates=delta
            )
            for i in range(30, 90):
                table.update(rids[i], {"v": (i * 3) % 7})
            result = snap.refresh()
            results[delta] = (result.bytes_sent, result.entries_sent)
        assert results[True][1] == results[False][1]  # same logical stream
        assert results[True][0] < results[False][0]

    def test_new_rows_fall_back_to_full_entries(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        merges_before = snap.table.applied_merges
        table.insert([999, "new-row", 0])
        snap.refresh()
        # A row the receiver has never seen cannot be delta-merged.
        assert snap.table.applied_merges == merges_before
        assert snap.table.as_map() == truth(table, lambda v: v[2] < 5)

    def test_requires_differential_method(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        with pytest.raises(SnapshotError):
            manager.create_snapshot(
                "s", "items", method="full", delta_updates=True
            )

    def test_group_refresh_with_deltas(self):
        db, table, rids = build(100)
        manager = SnapshotManager(db)
        one = manager.create_snapshot(
            "one", "items", where="v < 5", delta_updates=True
        )
        two = manager.create_snapshot(
            "two", "items", where="v >= 2", delta_updates=True
        )
        for i in range(20, 70):
            table.update(rids[i], {"v": (i * 5) % 7})
        outcome = manager.refresh_all("items")
        assert not outcome.errors
        assert one.table.as_map() == truth(table, lambda v: v[2] < 5)
        assert two.table.as_map() == truth(table, lambda v: v[2] >= 2)
        assert one.table.applied_merges + two.table.applied_merges > 0


class TestValueCacheLifecycle:
    def test_failed_epoch_does_not_commit_stage(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        link = FaultyLink()
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", channel=link, delta_updates=True
        )
        committed = dict(snap.value_mirror.pages)
        before_map = snap.table.as_map()
        before_time = snap.table.snap_time

        for i in range(5, 25):
            table.update(rids[i], {"v": 2})
        link.fail_at(10)  # die mid-stream on the next refresh
        with pytest.raises(RetryExhaustedError):
            manager.refresh("s", retry=RetryPolicy(max_attempts=1))
        # Neither side moved: snapshot intact, mirror stage dropped.
        assert snap.table.as_map() == before_map
        assert snap.table.snap_time == before_time
        assert snap.value_mirror.pages == committed
        assert snap.value_mirror.staged is None

        link.clear_faults()
        snap.refresh()
        assert snap.table.as_map() == truth(table, lambda v: v[2] < 5)

    def test_retry_after_failure_still_correct(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        link = FaultyLink()
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", channel=link, delta_updates=True
        )
        for i in range(5, 25):
            table.update(rids[i], {"v": 2})
        link.fail_at(4)
        result = manager.refresh("s", retry=RetryPolicy(max_attempts=3))
        assert result.attempts == 2
        assert snap.table.as_map() == truth(table, lambda v: v[2] < 5)

    def test_standalone_refresher_uses_the_callers_cache(self):
        """A refresher keeps no cache: the caller passes the snapshot's
        value mirror and commits it once the receiver has applied."""
        db, table, rids = build()
        refresher = DifferentialRefresher(table)
        from repro.expr.predicate import Projection, Restriction

        restriction = Restriction.parse("v < 5", table.schema)
        projection = Projection(table.schema)
        receiver = SnapshotTable(Database("remote"), "s", projection.schema)
        mirror = ValueCache()

        first = []
        refresher.refresh(
            0,
            restriction,
            projection,
            lambda m: (first.append(m), receiver.apply(m)),
            value_cache=mirror,
        )
        assert all(not isinstance(m, UpdateDeltaMessage) for m in first)
        assert len(mirror) == 0  # staged until the caller commits
        mirror.commit()
        assert len(mirror) > 0

        for i in range(10, 20):
            table.update(rids[i], {"v": 1})
        second = []
        refresher.refresh(
            receiver.snap_time,
            restriction,
            projection,
            lambda m: (second.append(m), receiver.apply(m)),
            value_cache=mirror,
        )
        assert any(isinstance(m, UpdateDeltaMessage) for m in second)
        assert receiver.as_map() == truth(table, lambda v: v[2] < 5)
        # Without the mirror the same refresher runs the paper's rule.
        third = []
        refresher.refresh(0, restriction, projection, third.append)
        assert all(not isinstance(m, UpdateDeltaMessage) for m in third)


class TestReceiverMerge:
    def make_receiver(self):
        schema = Schema(
            [
                Column("a", IntType()),
                Column("b", StringType(), nullable=True),
            ]
        )
        return SnapshotTable(Database(), "s", schema)

    def test_merge_overlays_masked_columns_only(self):
        snap = self.make_receiver()
        addr = Rid(0, 0)
        snap.apply(EntryMessage(addr, Rid.BEGIN, (1, "keep"), 10))
        snap.apply(UpdateDeltaMessage(addr, Rid.BEGIN, 0b01, (2,), 2))
        assert snap.as_map() == {addr: (2, "keep")}
        assert snap.applied_merges == 1

    def test_merge_for_unknown_address_is_protocol_violation(self):
        snap = self.make_receiver()
        with pytest.raises(SnapshotError):
            snap.apply(UpdateDeltaMessage(Rid(3, 3), Rid.BEGIN, 0b01, (1,), 2))

    def test_merge_clears_preceding_interval(self):
        snap = self.make_receiver()
        for slot in range(3):
            snap.apply(
                EntryMessage(
                    Rid(0, slot),
                    Rid(0, slot - 1) if slot else Rid.BEGIN,
                    (slot, "x"),
                    10,
                )
            )
        # Delta for slot 2 claiming prev_qual slot 0: slot 1 was deleted.
        snap.apply(UpdateDeltaMessage(Rid(0, 2), Rid(0, 0), 0b01, (9,), 2))
        assert snap.as_map() == {Rid(0, 0): (0, "x"), Rid(0, 2): (9, "x")}


class TestValueCacheUnit:
    def test_commit_adopts_stage(self):
        cache = ValueCache()
        cache.stage({0: {Rid(0, 0): (1,)}})
        assert len(cache) == 0
        assert cache.commit()
        assert cache.lookup(Rid(0, 0)) == (1,)
        assert not cache.commit()  # nothing staged now

    def test_abort_drops_stage(self):
        cache = ValueCache()
        cache.stage({0: {Rid(0, 0): (1,)}})
        cache.abort()
        assert not cache.commit()
        assert cache.lookup(Rid(0, 0)) is None
