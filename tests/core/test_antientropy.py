"""Hash-bisection anti-entropy: drift detection and minimal repair.

Convergence contract: after ``resync``, the receiver equals the current
restriction of the base — whatever the drift was (rows deleted behind
the protocol's back, corrupted values, a lost epoch, surplus rows) —
and repair traffic is proportional to the drift, not the table.
"""

import pytest

from repro.core.antientropy import (
    AntiEntropySession,
    verify_snapshot_table,
)
from repro.core.manager import SnapshotManager
from repro.core.messages import DeleteMessage
from repro.database import Database
from repro.errors import SnapshotError

from tests.core.test_online_refresh import config  # noqa: F401 (fixture)


def build(n_rows=2000, manager_kwargs=None, **snapshot_kwargs):
    db = Database("hq", buffer_capacity=64)
    table = db.create_table("emp", [("name", "string"), ("salary", "int")])
    table.bulk_load([[f"e{i}", i % 20] for i in range(n_rows)])
    manager = SnapshotManager(db, **(manager_kwargs or {}))
    snap = manager.create_snapshot(
        "low", "emp", where="salary < 10", method="differential",
        **snapshot_kwargs,
    )
    manager.refresh("low")
    return db, table, manager, snap


def truth(table):
    return {
        rid: (row[0], row[1]) for rid, row in table.scan() if row[1] < 10
    }


def contents(snap):
    return {
        addr: tuple(values)[:2]
        for addr, values in snap.table.as_map().items()
    }


class TestVerify:
    def test_fresh_snapshot_verifies(self):
        db, table, manager, snap = build()
        in_sync, stats = manager.verify_snapshot("low")
        assert in_sync
        assert stats.segments_hashed == 1
        assert stats.bytes_hashes > 0

    def test_verify_detects_drift(self):
        db, table, manager, snap = build()
        addr = snap.table.base_addrs()[5]
        snap.table._apply_now([DeleteMessage(addr)])
        in_sync, _ = manager.verify_snapshot("low")
        assert not in_sync

    def test_verify_detects_base_changes(self):
        """A write after the last refresh is drift from verify's view."""
        db, table, manager, snap = build()
        table.update(next(table.heap.scan_rids()), {"salary": 0})
        in_sync, _ = manager.verify_snapshot("low")
        assert not in_sync

    def test_direct_session_helper(self):
        db, table, manager, snap = build(n_rows=200)
        handle = manager.snapshot("low")
        in_sync, stats = verify_snapshot_table(
            table, handle.restriction, handle.projection, snap.table
        )
        assert in_sync and stats.in_sync


class TestResync:
    def test_drifted_receiver_converges(self):
        db, table, manager, snap = build()
        addrs = snap.table.base_addrs()
        for addr in addrs[10:14]:
            snap.table._apply_now([DeleteMessage(addr)])
        snap.table._upsert(addrs[100], ("corrupt", -1))
        stats = manager.resync_snapshot("low")
        assert stats.in_sync
        assert stats.leaves_repaired >= 1
        assert contents(snap) == truth(table)

    def test_surplus_rows_are_deleted(self):
        """Rows the base no longer qualifies must disappear on resync."""
        db, table, manager, snap = build()
        from repro.storage.rid import Rid

        ghost_page = table.heap.page_count + 5
        snap.table._upsert(Rid(ghost_page, 1), ("ghost", 1))
        stats = manager.resync_snapshot("low")
        assert stats.rows_deleted >= 1
        assert contents(snap) == truth(table)

    def test_lost_epoch_drift_converges(self):
        """Writes whose refresh never landed are repaired by resync."""
        db, table, manager, snap = build()
        rids = list(table.heap.scan_rids())
        table.update(rids[4], {"salary": 3})
        table.delete(rids[9])
        table.insert(["lost", 2])
        # No refresh runs: the receiver is now behind (a lost-epoch
        # world — the sender thinks it is fresh, the data says no).
        assert contents(snap) != truth(table)
        stats = manager.resync_snapshot("low")
        assert stats.in_sync
        assert contents(snap) == truth(table)

    def test_duplicate_repair_is_idempotent(self):
        """Applying the same repair stream twice leaves the same state."""
        db, table, manager, snap = build(n_rows=600)
        handle = manager.snapshot("low")
        addrs = snap.table.base_addrs()
        snap.table._apply_now([DeleteMessage(addrs[3])])

        repairs = []

        def duplicating_send(message):
            repairs.append(message)
            snap.table.apply(message)

        session = AntiEntropySession(
            table,
            handle.restriction,
            handle.projection,
            snap.table,
            send=duplicating_send,
        )
        session.resync()
        assert contents(snap) == truth(table)
        # Replay the captured stream wholesale (a duplicated delivery).
        for message in repairs:
            snap.table.apply(message)
        assert contents(snap) == truth(table)

    def test_resync_does_not_advance_snap_time(self):
        db, table, manager, snap = build()
        first = snap.table.base_addrs()[0]
        snap.table._apply_now([DeleteMessage(first)])
        before = manager.snapshot("low").snap_time
        manager.resync_snapshot("low")
        assert manager.snapshot("low").snap_time == before
        assert snap.table.snap_time == before

    def test_refresh_after_resync_is_correct(self):
        db, table, manager, snap = build(delta_updates=True)
        addrs = snap.table.base_addrs()
        snap.table._upsert(addrs[50], ("corrupt", -2))
        manager.resync_snapshot("low")
        rids = list(table.heap.scan_rids())
        table.update(rids[2], {"salary": 1})
        table.delete(rids[30])
        manager.refresh("low")
        assert contents(snap) == truth(table)

    def test_in_sync_resync_sends_no_repairs(self):
        db, table, manager, snap = build()
        stats = manager.resync_snapshot("low")
        assert stats.segments_hashed == 1
        assert stats.leaves_repaired == 0
        assert stats.bytes_repair == 0


class TestResyncPublishes:
    """A repairing resync tells the page cache what it left behind."""

    def test_resynced_insert_deleted_before_the_next_refresh(self, config):
        db, table, manager, snap = build(manager_kwargs=config)
        rids = list(table.heap.scan_rids())
        table.delete(rids[5])
        manager.refresh("low")
        late = table.insert(["late", 3])  # first-fit: the interior hole
        assert late == rids[5]
        assert manager.resync_snapshot("low").leaves_repaired == 1
        assert late in contents(snap)
        # Its PrevAddr is NULL: no successor ever pointed at it, so
        # Figure 7 sees no anomaly when it goes.
        table.delete(late)
        manager.refresh("low")
        assert late not in contents(snap)
        assert contents(snap) == truth(table)

    def test_resynced_qualifier_updated_out_before_the_next_refresh(
        self, config
    ):
        """The mirror's own hazard: only the resync knows the snapshot
        ever held a row that qualified between two refreshes."""
        db, table, manager, snap = build(manager_kwargs=config)
        victim = list(table.heap.scan_rids())[15]
        assert victim not in contents(snap)
        table.update(victim, {"salary": 3})
        manager.resync_snapshot("low")
        assert victim in contents(snap)
        table.update(victim, {"salary": 15})
        manager.refresh("low")
        assert victim not in contents(snap)
        assert contents(snap) == truth(table)
        assert manager.refresh("low").entries_sent == 0

    def test_unrecorded_pages_get_holdings_only_entries(self):
        """Pages appended since the last refresh were never recorded: the
        resync's entry for them says what the snapshot holds there and
        nothing else — it may arm the flag, it never fast-forwards."""
        db, table, manager, snap = build(n_rows=600)
        cache = manager.snapshot("low").page_mirror
        recorded = table.heap.page_count
        assert sorted(cache) == list(range(recorded))
        grown = [table.insert([f"g{i}", i % 20]) for i in range(400)]
        assert table.heap.page_count > recorded + 1
        manager.resync_snapshot("low")
        assert sorted(cache) == list(range(table.heap.page_count))
        fresh = cache[recorded + 1]
        assert fresh.page_version is None and fresh.last_live is None
        assert [
            addr.slot_no
            for addr in snap.table.base_addrs()
            if addr.page_no == recorded + 1
        ] == list(fresh.qual_slots)
        assert cache[0].page_version is not None  # layout kept
        gone = next(
            rid
            for rid in grown
            if rid.page_no == recorded + 1 and rid in contents(snap)
        )
        table.delete(gone)
        result = manager.refresh("low")
        assert result.pages_scanned >= table.heap.page_count - recorded
        assert contents(snap) == truth(table)
        assert cache[recorded + 1].page_version is not None
        assert manager.refresh("low").entries_sent == 0


class TestCost:
    def test_small_drift_transfers_far_less_than_full_refresh(self):
        """0.1% drift: resync bytes are a small fraction of a resend."""
        db, table, manager, snap = build(n_rows=4000)
        addrs = snap.table.base_addrs()
        for addr in addrs[:: len(addrs) // 2][:2]:  # 2 of ~2000 rows
            snap.table._apply_now([DeleteMessage(addr)])
        stats = manager.resync_snapshot("low")
        assert contents(snap) == truth(table)
        full_bytes = sum(
            message_bytes
            for message_bytes in _full_resend_bytes(manager, table)
        )
        assert stats.bytes_total * 10 < full_bytes

    def test_bisection_prunes_clean_segments(self):
        db, table, manager, snap = build(n_rows=4000)
        first = snap.table.base_addrs()[0]
        snap.table._apply_now([DeleteMessage(first)])
        stats = manager.resync_snapshot("low")
        # One dirty leaf: hashed segments ~ log2(pages), not pages.
        assert stats.leaves_repaired == 1
        assert stats.segments_hashed < table.heap.page_count


def _full_resend_bytes(manager, table):
    """Wire bytes of upserting the whole restriction (the naive resync)."""
    handle = manager.snapshot("low")
    from repro.core.messages import UpsertMessage
    from repro.relation.row import encode_row

    for rid, row in table.scan_full():
        if not handle.restriction(list(row.values)):
            continue
        projected = handle.projection(row)
        blob = encode_row(handle.projection.schema, projected)
        yield UpsertMessage(rid, projected.values, len(blob)).wire_size()


class TestValidation:
    def test_leaf_pages_must_be_positive(self):
        db, table, manager, snap = build(n_rows=100)
        handle = manager.snapshot("low")
        with pytest.raises(SnapshotError, match="leaf"):
            AntiEntropySession(
                table,
                handle.restriction,
                handle.projection,
                snap.table,
                leaf_pages=0,
            )
