"""Log-scan refresh: culling, net effects, truncation fallback."""

import pytest

from repro.core.logbased import LogRefresher
from repro.core.messages import DeleteMessage, UpsertMessage
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction


@pytest.fixture
def setup(db):
    table = db.create_table("t", [("name", "string"), ("v", "int")])
    for i in range(10):
        table.insert([f"r{i}", i])  # logged inserts (not bulk load)
    restriction = Restriction.parse("v < 5", table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
    refresher = LogRefresher(table)
    return table, restriction, projection, snapshot, refresher


def refresh(setup, from_lsn):
    table, restriction, projection, snapshot, refresher = setup
    messages = []

    def deliver(message):
        messages.append(message)
        snapshot.apply(message)

    result = refresher.refresh(
        0, restriction, projection, deliver, from_lsn=from_lsn
    )
    return result, messages


class TestCulling:
    def test_scans_everything_ships_relevant(self, setup, db):
        table = setup[0]
        db.create_table("other", [("x", "int")]).insert([1])
        mark = db.wal.next_lsn
        rids = [rid for rid, _ in table.scan()]
        table.update(rids[0], {"v": 1})
        db.table("other").insert([2])  # noise the cull must skip
        result, _ = refresh(setup, mark)
        assert result.relevant_records == 1
        assert result.log_records_scanned > result.relevant_records

    def test_replays_history_from_lsn_1(self, setup):
        result, _ = refresh(setup, 1)
        snapshot = setup[3]
        assert len(snapshot) == 5  # v in 0..4

    def test_net_effect_only(self, setup, db):
        table, _, _, snapshot, _ = setup
        refresh(setup, 1)
        mark = db.wal.next_lsn
        rids = [rid for rid, _ in table.scan()]
        for value in (1, 2, 3):
            table.update(rids[0], {"v": value})
        result, messages = refresh(setup, mark)
        upserts = [m for m in messages if isinstance(m, UpsertMessage)]
        assert len(upserts) == 1  # last change wins
        assert snapshot.lookup(rids[0]).values == ("r0", 3)

    def test_delete_of_qualified_entry(self, setup, db):
        table, _, _, snapshot, _ = setup
        refresh(setup, 1)
        mark = db.wal.next_lsn
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[0])
        result, messages = refresh(setup, mark)
        deletes = [m for m in messages if isinstance(m, DeleteMessage)]
        assert [m.addr for m in deletes] == [rids[0]]

    def test_delete_of_unqualified_entry_suppressed(self, setup, db):
        table = setup[0]
        refresh(setup, 1)
        mark = db.wal.next_lsn
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[9])  # v=9, never in the snapshot
        result, _ = refresh(setup, mark)
        assert result.entries_sent == 0

    def test_insert_then_delete_nets_to_nothing(self, setup, db):
        table = setup[0]
        refresh(setup, 1)
        mark = db.wal.next_lsn
        rid = table.insert(["flash", 1])
        table.delete(rid)
        result, _ = refresh(setup, mark)
        assert result.entries_sent == 0

    def test_delete_then_reinsert_unqualified(self, setup, db):
        table, _, _, snapshot, _ = setup
        refresh(setup, 1)
        mark = db.wal.next_lsn
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[0])  # was qualified
        reborn = table.insert(["ghost", 999])
        assert reborn == rids[0]
        result, messages = refresh(setup, mark)
        deletes = [m for m in messages if isinstance(m, DeleteMessage)]
        assert [m.addr for m in deletes] == [rids[0]]
        assert snapshot.lookup(rids[0]) is None

    def test_aborted_changes_excluded(self, setup, db):
        table = setup[0]
        refresh(setup, 1)
        mark = db.wal.next_lsn
        txn = db.txns.begin()
        table.insert(["never", 0], txn=txn)
        txn.abort()
        result, _ = refresh(setup, mark)
        assert result.entries_sent == 0


class TestTruncationFallback:
    def test_falls_back_to_full(self):
        db = Database("tiny-log", wal_capacity_bytes=400)
        table = db.create_table("t", [("v", "int")])
        for i in range(30):  # blows past the log capacity
            table.insert([i])
        restriction = Restriction.parse("v < 15", table.schema)
        projection = Projection(table.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        refresher = LogRefresher(table)
        messages = []

        def deliver(message):
            messages.append(message)
            snapshot.apply(message)

        result = refresher.refresh(
            0, restriction, projection, deliver, from_lsn=1
        )
        assert result.fell_back_full
        assert result.entries_sent == 15
        truth = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[0] < 15
        }
        assert snapshot.as_map() == truth


class TestManagedTruncation:
    """The manager truncates the log after every committed refresh,
    below what a log-method snapshot still reads."""

    def _world(self, page_size=4096):
        from repro.core.manager import SnapshotManager

        db = Database("bounded", page_size=page_size)
        table = db.create_table("t", [("v", "int"), ("w", "int")])
        rids = [table.insert([i, i]) for i in range(60)]
        manager = SnapshotManager(db)
        return db, table, rids, manager

    def test_differential_refreshes_keep_the_log_bounded(self):
        db, table, rids, manager = self._world()
        diff = manager.create_snapshot("d", "t", where="v < 30")
        log = manager.create_snapshot("l", "t", where="w < 30", method="log")
        longest = 0
        for round_no in range(500):
            rid = rids[(round_no * 7) % len(rids)]
            table.update(rid, {"v": round_no % 60, "w": (round_no * 3) % 60})
            manager.refresh("d")
            longest = max(longest, len(db.wal))
            if round_no % 50 == 49:
                result = manager.refresh("l")
                assert not result.fell_back_full
                truth = {
                    r: row.values for r, row in table.scan() if row.values[1] < 30
                }
                assert log.as_map() == truth
        # Between log refreshes the log holds what "l" has yet to read:
        # 50 updates and their commits at most.
        assert longest <= 100
        manager.refresh("l")
        assert len(db.wal) == 0
        truth = {r: row.values for r, row in table.scan() if row.values[0] < 30}
        assert diff.as_map() == truth

    def test_without_a_log_snapshot_the_log_ends_at_the_seal(self):
        db, table, rids, manager = self._world()
        manager.create_snapshot("d", "t", where="v < 30")
        for round_no in range(500):
            table.update(rids[round_no % len(rids)], {"v": round_no % 60})
            manager.refresh("d")
            assert len(db.wal) == 0 and db.wal.size_bytes == 0

    def test_an_online_pass_keeps_what_its_last_window_wrote(self):
        db, table, _, manager = self._world(page_size=256)
        manager.create_snapshot("d", "t", where="v < 30")
        rids = [rid for rid, _ in table.scan()]  # annotating moved some
        chunks = []

        def writer(chunk):
            chunks.append(chunk)
            table.update(rids[len(chunks)], {"v": 1})

        result = manager.refresh_online("d", chunk_pages=1, on_chunk_boundary=writer)
        # The write after the seal is the next refresh's: still logged.
        assert [r.rtype.value for r in db.wal.scan(db.wal.truncated_before)] == [
            "update",
            "commit",
        ]
        assert result.chunks_scanned == chunks[-1] > 1
