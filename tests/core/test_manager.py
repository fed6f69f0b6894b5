"""SnapshotManager: DDL, refresh orchestration, locking, multi-snapshot."""

import pytest

from benchmarks.e2e import adapter as e2e_adapter
from repro.catalog.compiler import RefreshMethod
from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.errors import CatalogError, LockTimeoutError, SnapshotError
from repro.txn.locks import LockMode


@pytest.fixture
def env(db):
    table = db.create_table("emp", [("name", "string"), ("salary", "int")])
    table.bulk_load([[f"e{i}", i % 20] for i in range(100)])
    return db, table, SnapshotManager(db)


class TestCreate:
    def test_differential_enables_annotations(self, env):
        db, table, manager = env
        assert table.annotation_mode == "none"
        manager.create_snapshot(
            "low", "emp", where="salary < 10", method="differential"
        )
        assert table.annotation_mode == "lazy"

    def test_second_snapshot_adds_no_fields(self, env):
        db, table, manager = env
        manager.create_snapshot("a", "emp", method="differential")
        schema_after_first = table.schema
        manager.create_snapshot("b", "emp", method="differential")
        assert table.schema is schema_after_first

    def test_initial_population(self, env):
        db, table, manager = env
        snap = manager.create_snapshot(
            "low", "emp", where="salary < 10", method="differential"
        )
        assert len(snap.table) == 50
        assert snap.as_map() == {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[1] < 10
        }

    def test_projection(self, env):
        db, table, manager = env
        snap = manager.create_snapshot(
            "names", "emp", columns=["name"], method="full"
        )
        assert all(len(row) == 1 for row in snap.rows())

    def test_remote_target_db(self, env):
        db, table, manager = env
        branch = Database("branch")
        snap = manager.create_snapshot(
            "low", "emp", where="salary < 10", method="full", target_db=branch
        )
        assert snap.table.db is branch

    def test_full_method_leaves_table_plain(self, env):
        db, table, manager = env
        manager.create_snapshot("copy", "emp", method="full")
        assert table.annotation_mode == "none"

    def test_duplicate_name_rejected(self, env):
        db, table, manager = env
        manager.create_snapshot("s", "emp", method="full")
        with pytest.raises(CatalogError):
            manager.create_snapshot("s", "emp", method="full")

    def test_no_initial_refresh(self, env):
        db, table, manager = env
        snap = manager.create_snapshot(
            "lazy", "emp", method="differential", initial_refresh=False
        )
        assert len(snap.table) == 0

    def test_auto_resolves_to_concrete_method(self, env):
        db, table, manager = env
        snap = manager.create_snapshot("auto", "emp", method="auto")
        assert snap.method in (RefreshMethod.DIFFERENTIAL, RefreshMethod.FULL)


class TestRefresh:
    def test_refresh_advances_snap_time(self, env):
        db, table, manager = env
        snap = manager.create_snapshot("s", "emp", method="differential")
        first_time = snap.snap_time
        table.insert(["new", 5])
        result = snap.refresh()
        assert snap.snap_time == result.new_snap_time > first_time
        assert snap.info.refresh_count == 2  # initial + this one

    def test_unknown_snapshot(self, env):
        _, _, manager = env
        with pytest.raises(SnapshotError):
            manager.refresh("ghost")

    def test_refresh_blocked_by_active_transaction(self, env):
        db, table, manager = env
        snap = manager.create_snapshot("s", "emp", method="differential")
        txn = db.txns.begin()
        table.insert(["held", 1], txn=txn)  # holds IX on the table
        with pytest.raises(LockTimeoutError):
            snap.refresh()
        txn.commit()
        snap.refresh()  # succeeds once the lock is gone

    def test_blocked_online_refresh_leaks_no_write_observer(self, env):
        """The write observer is subscribed only once the lock is held."""
        db, table, manager = env
        snap = manager.create_snapshot("s", "emp", method="differential")
        txn = db.txns.begin()
        table.insert(["held", 1], txn=txn)  # holds IX on the table
        for _ in range(3):
            with pytest.raises(LockTimeoutError):
                manager.refresh_online("s", chunk_pages=1)
        assert table.heap._write_observers == []
        txn.commit()
        manager.refresh_online("s", chunk_pages=1)
        assert table.heap._write_observers == []
        assert snap.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }

    def test_blocked_online_refresh_leaves_channel_untouched(self, env):
        """Lock first in every mode: a conflict costs no Begin + abort."""
        db, table, manager = env
        snap = manager.create_snapshot("s", "emp", method="differential")
        txn = db.txns.begin()
        table.insert(["held", 1], txn=txn)
        traffic = snap.channel.stats.snapshot()
        aborted = snap.table.aborted_epochs
        with pytest.raises(LockTimeoutError):
            manager.refresh_online("s", chunk_pages=1)
        assert snap.channel.stats.snapshot() == traffic
        assert snap.table.aborted_epochs == aborted
        assert not snap.table.epoch_open
        txn.commit()
        manager.refresh_online("s", chunk_pages=1)
        assert snap.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }

    def test_lock_released_after_refresh(self, env):
        db, table, manager = env
        snap = manager.create_snapshot("s", "emp", method="differential")
        snap.refresh()
        db.locks.acquire("probe", ("table", "emp"), LockMode.X)

    def test_refresh_all(self, env):
        db, table, manager = env
        manager.create_snapshot("a", "emp", where="salary < 5", method="differential")
        manager.create_snapshot("b", "emp", method="full")
        table.insert(["x", 1])
        results = manager.refresh_all("emp")
        assert set(results) == {"a", "b"}

    def test_blocking_channel(self, env):
        db, table, manager = env
        snap = manager.create_snapshot(
            "blocked", "emp", method="differential", block_size=8
        )
        # Initial refresh flowed through frames; contents still correct.
        assert len(snap.table) == 100
        assert snap.channel.stats.messages < snap.channel.logical.messages


class TestMultipleSnapshots:
    def test_independent_refresh_schedules(self, env):
        db, table, manager = env
        fast = manager.create_snapshot(
            "fast", "emp", where="salary < 10", method="differential"
        )
        slow = manager.create_snapshot(
            "slow", "emp", where="salary >= 10", method="differential"
        )
        rids = [rid for rid, _ in table.scan()]
        table.update(rids[0], {"salary": 3})
        fast.refresh()  # slow is now stale, fast is current
        truth_fast = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[1] < 10
        }
        assert fast.as_map() == truth_fast
        # slow catches up later and is also exact.
        slow.refresh()
        truth_slow = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[1] >= 10
        }
        assert slow.as_map() == truth_slow

    def test_amortized_fixup(self, env):
        db, table, manager = env
        first = manager.create_snapshot("a", "emp", method="differential")
        second = manager.create_snapshot("b", "emp", method="differential")
        rids = [rid for rid, _ in table.scan()]
        for rid in rids[:10]:
            table.update(rid, {"salary": 1})
        result_first = first.refresh()  # performs the fix-up work
        result_second = second.refresh()  # finds clean annotations
        assert result_first.fixup_writes == 10
        assert result_second.fixup_writes == 0
        # ... but still learns about every change.
        assert result_second.entries_sent >= 10


class TestLogMethod:
    def test_log_snapshot_populates_then_tracks(self, env):
        db, table, manager = env
        snap = manager.create_snapshot(
            "logged", "emp", where="salary < 10", method="log"
        )
        assert len(snap.table) == 50  # populated despite the bulk load
        rid = table.insert(["tracked", 1])
        result = snap.refresh()
        assert result.entries_sent == 1
        assert snap.table.lookup(rid).values == ("tracked", 1)


class TestDrop:
    def test_drop_removes_catalog_entry(self, env):
        db, table, manager = env
        manager.create_snapshot("s", "emp", method="full")
        manager.drop_snapshot("s")
        assert not db.catalog.has_snapshot("s")
        with pytest.raises(SnapshotError):
            manager.refresh("s")

    def test_drop_unknown(self, env):
        _, _, manager = env
        with pytest.raises(SnapshotError):
            manager.drop_snapshot("ghost")


class TestResultContract:
    """What ``benchmarks/e2e/adapter.py`` reads off a ``RefreshResult``."""

    def test_every_entry_point_exposes_the_folded_attributes(self, env):
        db, table, manager = env
        table.bulk_load([[f"x{i}", i % 20] for i in range(400)])  # > 1 page
        for name in ("a", "b", "c"):
            manager.create_snapshot(
                name, "emp", where="salary < 10", method="differential"
            )
        rids = list(table.heap.scan_rids())
        table.update(rids[3], {"salary": 2})
        shared = manager.refresh_all("emp")
        assert not shared.errors and len(shared) == 3
        table.update(rids[4], {"salary": 3})
        solo = manager.refresh("a")
        table.update(rids[5], {"salary": 4})
        online = manager.refresh_online("a", chunk_pages=1)

        folded = (
            e2e_adapter._CURSOR_FIELDS
            + e2e_adapter._PASS_FIELDS
            + ("group_cursors",)
        )
        for result in [solo, online, *shared.values()]:
            for field in folded:
                assert isinstance(getattr(result, field), int), field
        assert solo.group_cursors == online.group_cursors == 1
        assert online.chunks_scanned > 1 and solo.chunks_scanned == 0
        # Pass-level costs were paid once: every member of the shared
        # pass reports the same value, so a reader takes them once.
        members = list(shared.values())
        for field in e2e_adapter._PASS_FIELDS + ("group_cursors",):
            assert {getattr(m, field) for m in members} == {
                getattr(members[0], field)
            }, field
        assert members[0].group_cursors == 3
        # Every pass here read the written page's one changed record
        # (once, through the batch path), and each cursor ran its
        # restriction on exactly that: what changed for it, never more
        # than the pass read.
        for result in [solo, online, *members]:
            assert 0 < result.entries_evaluated <= result.rows_decoded
            assert result.pages_batch_decoded == result.pages_scanned > 0
