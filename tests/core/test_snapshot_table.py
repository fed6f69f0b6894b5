"""Snapshot table receiver (Figure 4 semantics)."""

import pytest

from repro.core.messages import (
    ClearMessage,
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    FullRowMessage,
    RefreshBeginMessage,
    RefreshCommitMessage,
    SnapTimeMessage,
    UpdateDeltaMessage,
    UpsertMessage,
)
from repro.core.manager import SnapshotManager
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import SnapshotError
from repro.relation.schema import Schema
from repro.storage.rid import Rid

SCHEMA = Schema.of(("name", "string"), ("salary", "int"))


@pytest.fixture
def snap():
    return SnapshotTable(Database("site"), "s", SCHEMA)


def addr(slot):
    return Rid(0, slot)


def preload(snap, entries):
    for slot, values in entries.items():
        snap._upsert(addr(slot), values)


class TestEntryMessage:
    def test_insert_when_absent(self, snap):
        snap.apply(EntryMessage(addr(2), Rid.BEGIN, ("Laura", 6), 10))
        assert snap.as_map() == {addr(2): ("Laura", 6)}

    def test_update_when_present(self, snap):
        preload(snap, {2: ("Laura", 5)})
        snap.apply(EntryMessage(addr(2), Rid.BEGIN, ("Laura", 6), 10))
        assert snap.lookup(addr(2)).values == ("Laura", 6)
        assert len(snap) == 1

    def test_clears_open_interval(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2), 3: ("c", 3), 4: ("d", 4)})
        snap.apply(EntryMessage(addr(4), addr(1), ("d", 40), 10))
        # Entries strictly between 1 and 4 vanish; endpoints survive.
        assert set(snap.base_addrs()) == {addr(1), addr(4)}

    def test_interval_excludes_endpoints(self, snap):
        preload(snap, {1: ("a", 1), 3: ("c", 3)})
        snap.apply(EntryMessage(addr(3), addr(1), ("c", 30), 10))
        assert snap.lookup(addr(1)) is not None
        assert snap.lookup(addr(3)).values == ("c", 30)


class TestEndOfScan:
    def test_deletes_tail(self, snap):
        preload(snap, {1: ("a", 1), 5: ("e", 5), 6: ("f", 6)})
        snap.apply(EndOfScanMessage(addr(1)))
        assert snap.base_addrs() == [addr(1)]

    def test_begin_clears_everything(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2)})
        snap.apply(EndOfScanMessage(Rid.BEGIN))
        assert len(snap) == 0


class TestOtherMessages:
    def test_snap_time(self, snap):
        snap.apply(SnapTimeMessage(430))
        assert snap.snap_time == 430

    def test_snap_time_cannot_regress(self, snap):
        snap.apply(SnapTimeMessage(430))
        with pytest.raises(SnapshotError):
            snap.apply(SnapTimeMessage(100))

    def test_delete_range(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2), 3: ("c", 3)})
        snap.apply(DeleteRangeMessage(addr(1), addr(3)))
        assert set(snap.base_addrs()) == {addr(1), addr(3)}

    def test_delete_range_unbounded(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2), 3: ("c", 3)})
        snap.apply(DeleteRangeMessage(addr(1), None))
        assert snap.base_addrs() == [addr(1)]

    def test_upsert_and_delete(self, snap):
        snap.apply(UpsertMessage(addr(1), ("a", 1), 10))
        snap.apply(UpsertMessage(addr(1), ("a", 2), 10))
        assert snap.lookup(addr(1)).values == ("a", 2)
        snap.apply(DeleteMessage(addr(1)))
        assert len(snap) == 0

    def test_delete_absent_is_noop(self, snap):
        snap.apply(DeleteMessage(addr(9)))
        assert len(snap) == 0

    def test_clear_and_full_rows(self, snap):
        preload(snap, {1: ("a", 1)})
        snap.apply(ClearMessage())
        assert len(snap) == 0
        snap.apply(FullRowMessage(addr(2), ("b", 2), 10))
        assert snap.as_map() == {addr(2): ("b", 2)}

    def test_unknown_message_rejected(self, snap):
        with pytest.raises(SnapshotError):
            snap.apply(object())


class TestReads:
    def test_rows_ordered_by_base_addr(self, snap):
        preload(snap, {5: ("e", 5), 1: ("a", 1), 3: ("c", 3)})
        assert [r.values for r in snap.rows()] == [("a", 1), ("c", 3), ("e", 5)]

    def test_entries_pairs(self, snap):
        preload(snap, {1: ("a", 1)})
        assert list(snap.entries()) == [(addr(1), snap.lookup(addr(1)))]

    def test_reserved_column_name_rejected(self):
        bad = Schema.of(("$BASEADDR$", "int"),)
        with pytest.raises(SnapshotError):
            SnapshotTable(Database("x"), "s", bad)

    def test_apply_counters(self, snap):
        snap.apply(UpsertMessage(addr(1), ("a", 1), 10))
        snap.apply(DeleteMessage(addr(1)))
        assert snap.applied_upserts == 1
        assert snap.applied_deletes == 1

    def test_clear_counts_its_deletes(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2)})
        snap.apply(ClearMessage())
        assert snap.applied_deletes == 2
        assert snap.storage.row_count == 0


def image(snap):
    """Every stored record, byte for byte, with its heap address."""
    return list(snap.storage.heap.scan())


def commit(snap, epoch, messages):
    snap.apply(RefreshBeginMessage(epoch))
    for message in messages:
        snap.apply(message)
    snap.apply(RefreshCommitMessage(epoch, len(messages)))


class TestNetChange:
    """The receiver writes what changed, not what was sent."""

    def cascaded(self, snap):
        down = SnapshotManager(snap.db).create_snapshot(
            "down", snap.name, method="differential", target_db=Database("leaf")
        )
        return down

    def test_noop_upsert_writes_nothing(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2)})
        down = self.cascaded(snap)  # its fix-up stamps every stored row
        before = image(snap)
        snap.apply(UpsertMessage(addr(1), ("a", 1), 10))
        snap.apply(EntryMessage(addr(2), addr(1), ("b", 2), 10))
        assert image(snap) == before
        assert snap.skipped_upserts == 2
        assert snap.applied_upserts == 2  # the preload's two inserts
        assert down.refresh().entries_sent == 0

    def test_changed_upsert_is_sent_downstream(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2)})
        down = self.cascaded(snap)
        snap.apply(UpsertMessage(addr(1), ("a", 7), 10))
        assert snap.skipped_upserts == 0
        assert down.refresh().entries_sent == 1
        assert sorted(down.as_map().values()) == [("a", 7), ("b", 2)]

    def test_revived_row_keeps_its_heap_rid(self, snap):
        preload(snap, {0: ("z", 0), 1: ("a", 1), 2: ("b", 2)})
        heap_rids = dict(snap._index.items())
        before = image(snap)
        # refresh_online's repair block: wipe the page, upsert it back.
        commit(snap, 1, [
            DeleteRangeMessage(Rid(0, 0), Rid(1, 0)),
            DeleteMessage(Rid(0, 0)),
            UpsertMessage(addr(0), ("z", 0), 10),
            UpsertMessage(addr(2), ("b", 20), 10),
        ])
        assert snap.as_map() == {addr(0): ("z", 0), addr(2): ("b", 20)}
        assert snap._index.get(addr(0).key()) == heap_rids[addr(0).key()]
        assert snap._index.get(addr(2).key()) == heap_rids[addr(2).key()]
        # One row rewritten, one deleted, one not touched at all.
        assert (snap.applied_upserts, snap.applied_deletes) == (3 + 1, 1)
        assert snap.skipped_upserts == 1
        assert image(snap)[0] == before[0]
        assert snap.storage.row_count == 2

    def test_delta_for_a_row_deleted_in_the_same_epoch(self, snap):
        preload(snap, {1: ("a", 1)})
        with pytest.raises(SnapshotError, match="no entry exists"):
            commit(snap, 1, [
                DeleteMessage(addr(1)),
                UpdateDeltaMessage(addr(1), Rid.BEGIN, 0b10, (5,), 4),
            ])
        assert not snap.epoch_open
        assert snap.last_committed_epoch == 0
        assert snap.storage.row_count == len(snap) == 0  # no orphan row

    def test_empty_delta_is_skipped_unread(self, snap):
        preload(snap, {1: ("a", 1)})
        before = image(snap)
        snap.apply(UpdateDeltaMessage(addr(1), Rid.BEGIN, 0, (), 1))
        assert image(snap) == before
        assert (snap.skipped_upserts, snap.applied_merges) == (1, 0)

    def test_upsert_is_one_pin_and_a_skipped_one_leaves_the_frame_clean(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2)})
        pool = snap.storage.heap.pool
        summary = snap.storage.heap.summaries.get(0)
        pool.flush_all()
        before, version = image(snap), summary.page_version
        pins, writebacks = pool.stats.hits + pool.stats.misses, pool.stats.writebacks
        snap.apply(UpsertMessage(addr(1), ("a", 1), 10))  # holds these values
        assert pool.stats.hits + pool.stats.misses == pins + 1
        pool.flush_all()
        assert pool.stats.writebacks == writebacks  # nothing was dirtied
        assert (image(snap), summary.page_version) == (before, version)
        pins = pool.stats.hits + pool.stats.misses  # image() pinned too
        snap.apply(UpsertMessage(addr(1), ("a", 5), 10))
        snap.apply(UpdateDeltaMessage(addr(2), addr(1), 0b10, (7,), 4))
        assert pool.stats.hits + pool.stats.misses == pins + 2
        assert summary.page_version == version + 2
        assert snap.as_map() == {addr(1): ("a", 5), addr(2): ("b", 7)}

    def test_relocated_row_is_followed_by_the_index(self, snap):
        preload(snap, {slot: ("x" * 1300, slot) for slot in range(3)})
        old = snap._index.get(addr(1).key())
        snap.apply(UpsertMessage(addr(1), ("y" * 2700, 1), 10))  # outgrows its page
        new = snap._index.get(addr(1).key())
        assert new != old and not snap.storage.exists(old)
        assert snap.lookup(addr(1)).values == ("y" * 2700, 1)
        assert snap.storage.row_count == len(snap) == 3

    def test_delta_for_a_missing_address_writes_no_byte(self, snap):
        preload(snap, {1: ("a", 1)})
        before, writes = image(snap), snap.storage.heap.writes.total
        with pytest.raises(SnapshotError, match="no entry exists"):
            snap.apply(UpdateDeltaMessage(addr(2), addr(1), 0b10, (5,), 4))
        assert image(snap) == before
        assert snap.storage.heap.writes.total == writes

    def writes(self, snap):
        counts = snap.storage.heap.writes
        return counts.inserts, counts.updates, counts.deletes

    def test_departure_and_arrival_are_one_rewrite(self, snap):
        preload(snap, {1: ("a", 1), 2: ("b", 2), 4: ("d", 4)})
        down = self.cascaded(snap)
        departed = snap._index.get(addr(2).key())
        inserts, updates, deletes = self.writes(snap)
        upserts, removed = snap.applied_upserts, snap.applied_deletes
        # Address 2 leaves (the interval before 3) and 3 arrives.
        commit(snap, 1, [EntryMessage(addr(3), addr(1), ("c", 3), 10)])
        assert snap.as_map() == {
            addr(1): ("a", 1), addr(3): ("c", 3), addr(4): ("d", 4)
        }
        assert snap._index.get(addr(3).key()) == departed  # its row, taken
        assert self.writes(snap) == (inserts, updates + 1, deletes)
        assert snap.storage.row_count == len(snap) == 3
        assert snap.applied_upserts == upserts + 1
        assert snap.applied_deletes == removed + 1
        # Downstream it is one changed storage entry, and nothing else.
        assert down.refresh().entries_sent == 1
        assert down.as_map() == {
            rid: row.values[: len(SCHEMA)]
            for rid, row in snap.storage.scan_full()
        }

    def test_a_repair_block_with_a_new_address_revives_before_it_pairs(
        self, snap
    ):
        preload(snap, {slot: (f"r{slot}", slot) for slot in range(1, 5)})
        heap_rids = dict(snap._index.items())
        before = dict(image(snap))
        # The page is wiped and re-sent whole: 3 left, 0 is new and comes
        # first, while 1, 2 and 4 (4 the most recently doomed) still wait
        # for their re-send.
        commit(snap, 1, [
            DeleteRangeMessage(Rid(0, 0), Rid(1, 0)),
            DeleteMessage(Rid(0, 0)),
            UpsertMessage(addr(0), ("new", 0), 10),
            UpsertMessage(addr(1), ("r1", 1), 10),
            UpsertMessage(addr(2), ("r2", 2), 10),
            UpsertMessage(addr(4), ("r4", 4), 10),
        ])
        assert snap._index.get(addr(0).key()) == heap_rids[addr(3).key()]
        for slot in (1, 2, 4):  # unchanged: same row, same bytes
            heap_rid = heap_rids[addr(slot).key()]
            assert snap._index.get(addr(slot).key()) == heap_rid
            assert dict(image(snap))[heap_rid] == before[heap_rid]
        assert snap.skipped_upserts == 3
        assert snap.storage.row_count == len(snap) == 4

    def test_an_arrival_that_outgrows_the_row_it_takes_relocates(self, snap):
        preload(snap, {slot: ("x" * 1300, slot) for slot in range(3)})
        taken = snap._index.get(addr(1).key())
        upserts, removed = snap.applied_upserts, snap.applied_deletes
        commit(snap, 1, [
            DeleteMessage(addr(1)),
            UpsertMessage(addr(5), ("y" * 2700, 5), 10),  # outgrows the page
        ])
        moved = snap._index.get(addr(5).key())
        assert moved != taken and not snap.storage.exists(taken)
        assert snap.lookup(addr(5)).values == ("y" * 2700, 5)
        assert snap.storage.read(moved, visible=False).values[-3] == addr(5)
        assert snap.storage.row_count == len(snap) == 3
        assert (snap.applied_upserts, snap.applied_deletes) == (
            upserts + 1, removed + 1
        )
