"""Periodic refresh scheduling and staleness accounting."""

import pytest

from repro.core.manager import SnapshotManager
from repro.core.scheduler import RefreshScheduler
from repro.errors import SnapshotError


@pytest.fixture
def world(db):
    table = db.create_table("t", [("v", "int")])
    rids = table.bulk_load([[i] for i in range(50)])
    manager = SnapshotManager(db)
    snapshot = manager.create_snapshot("s", "t", method="differential")
    scheduler = RefreshScheduler(manager)
    return db, table, rids, manager, snapshot, scheduler


class TestScheduling:
    def test_refresh_fires_every_k_ops(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=5)
        for i in range(12):
            table.update(rids[i], {"v": 1000 + i})
        assert entry.refreshes == 2  # at ops 5 and 10
        assert entry.pending == 2

    def test_flush_catches_stragglers(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=100)
        for i in range(7):
            table.update(rids[i], {"v": i})
        scheduler.flush()
        assert entry.refreshes == 1
        assert entry.pending == 0
        assert snapshot.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }

    def test_only_relevant_tables_counted(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        other = db.create_table("other", [("x", "int")])
        entry = scheduler.schedule("s", every_ops=2)
        other.insert([1])
        other.insert([2])
        other.insert([3])
        assert entry.refreshes == 0
        assert entry.pending == 0

    def test_multi_op_transaction_counts_each_change(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=3)
        txn = db.txns.begin()
        table.update(rids[0], {"v": 1}, txn=txn)
        table.update(rids[1], {"v": 2}, txn=txn)
        table.update(rids[2], {"v": 3}, txn=txn)
        assert entry.refreshes == 0  # nothing until commit
        txn.commit()
        assert entry.refreshes == 1

    def test_aborted_transactions_ignored(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=1)
        txn = db.txns.begin()
        table.update(rids[0], {"v": 1}, txn=txn)
        txn.abort()
        assert entry.refreshes == 0

    def test_bad_period_rejected(self, world):
        scheduler = world[5]
        with pytest.raises(SnapshotError):
            scheduler.schedule("s", every_ops=0)

    def test_unknown_snapshot_rejected(self, world):
        scheduler = world[5]
        with pytest.raises(SnapshotError):
            scheduler.schedule("ghost", every_ops=5)

    def test_snapshot_over_a_snapshot_is_refused(self, world):
        """The receiver's writes reach no commit listener, so a scheduled
        snapshot-on-snapshot would never come due: it is refused, and
        refreshed by hand after its base it is current."""
        db, table, rids, manager, snapshot, scheduler = world
        cascade = manager.create_snapshot(
            "low", "s", where="v < 20", method="differential"
        )
        entry = scheduler.schedule("s", every_ops=1)
        with pytest.raises(SnapshotError, match="by hand"):
            scheduler.schedule("low", every_ops=1)
        assert [e.snapshot.name for e in scheduler.entries()] == ["s"]
        for rid in rids[15:20]:
            table.update(rid, {"v": 25})
        assert entry.refreshes == 5
        manager.refresh("low")
        assert sorted(row[0] for row in cascade.as_map().values()) == list(
            range(15)
        )

    def test_close_stops_observing(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=1)
        scheduler.close()
        table.update(rids[0], {"v": 9})
        assert entry.refreshes == 0


class TestReentrancy:
    def test_commit_inside_a_fired_refresh_reenters_the_hook(self, world):
        """The scheduler fires refreshes from the commit hook; a
        transaction committed from inside one (here the channel logs
        each refresh to an audit table at the same site) comes back
        through the hook into ``registry.observe`` and fires a nested
        refresh before the outer one has been marked.  Both end up
        counted exactly once."""
        from repro.core.messages import RefreshBeginMessage

        db, table, rids, manager, snapshot, scheduler = world
        audit = db.create_table("audit", [("n", "int")])
        audited = manager.create_snapshot("a", "audit", method="differential")
        outer = scheduler.schedule("s", every_ops=1)
        nested = scheduler.schedule("a", every_ops=1)
        order = []
        original_send = snapshot.channel.send
        original_mark = scheduler.registry.mark_refreshed

        def auditing_send(message):
            if isinstance(message, RefreshBeginMessage):
                audit.insert([len(order)])  # commits mid-refresh
            return original_send(message)

        def recording_mark(name, shipped=0):
            order.append(name)
            return original_mark(name, shipped=shipped)

        snapshot.channel.send = auditing_send
        scheduler.registry.mark_refreshed = recording_mark
        table.update(rids[0], {"v": 1000})
        assert order == ["a", "s"]  # the nested refresh finished first
        assert (outer.refreshes, outer.pending) == (1, 0)
        assert (nested.refreshes, nested.pending) == (1, 0)
        assert scheduler.registry.stats["observe_calls"] == 2
        assert scheduler.registry.due() == []
        assert snapshot.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }
        assert audited.as_map() == {
            rid: row.values for rid, row in audit.scan(visible=True)
        }


class TestFailedRefreshes:
    def test_down_link_skips_not_crashes(self, db):
        # The refresh runs inside the writer's commit hook; a dead link
        # must not fail the writer's transaction.
        from repro.net.channel import Link

        table = db.create_table("t", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(10)])
        manager = SnapshotManager(db)
        link = Link()
        manager.create_snapshot("s", "t", method="differential", channel=link)
        scheduler = RefreshScheduler(manager)
        entry = scheduler.schedule("s", every_ops=2)
        link.go_down()
        table.update(rids[0], {"v": 100})
        table.update(rids[1], {"v": 101})  # period hit; commit must survive
        assert entry.refreshes == 0
        assert entry.failed_refreshes == 1
        assert entry.pending == 2  # kept, so recovery retries them
        assert scheduler.failed_refreshes == 1
        link.come_up()
        table.update(rids[2], {"v": 102})
        assert entry.refreshes == 1
        assert entry.pending == 0
        snap = manager.snapshot("s")
        assert snap.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }

    def _coalesce_world(self, db):
        from repro.net.faults import FaultyLink

        table = db.create_table("t", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(10)])
        manager = SnapshotManager(db)
        manager.create_snapshot("lead", "t", method="differential")
        link = FaultyLink()
        manager.create_snapshot(
            "rider", "t", method="differential", channel=link
        )
        scheduler = RefreshScheduler(manager, coalesce_window=3)
        lead = scheduler.schedule("lead", every_ops=4)
        rider = scheduler.schedule("rider", every_ops=6)
        return table, rids, manager, link, scheduler, lead, rider

    def test_failed_rider_is_rearmed_solo(self, db):
        # Regression: a rider pulled into a shared pass ahead of its own
        # deadline used to keep its pre-ride counter when the pass failed
        # for it, coasting past the window it was about to hit.  The
        # scheduler now re-arms the casualty solo inside the same hook.
        table, rids, manager, link, scheduler, lead, rider = (
            self._coalesce_world(db)
        )
        for i in range(3):
            table.update(rids[i], {"v": 100 + i})
        link.fail_at(0, 1)  # the group pass dies on the rider's Begin
        table.update(rids[3], {"v": 103})  # 4th op: lead due, rider rides
        assert lead.refreshes == 1 and lead.pending == 0
        assert rider.refreshes == 1 and rider.pending == 0
        assert rider.failed_refreshes == 0
        assert scheduler.rearmed_solo == 1
        assert scheduler.coalesced_refreshes == 1
        assert scheduler.failed_refreshes == 0
        snap = manager.snapshot("rider")
        assert snap.as_map() == {
            rid: row.values for rid, row in table.scan(visible=True)
        }

    def test_rider_rearm_failure_keeps_pending(self, db):
        table, rids, manager, link, scheduler, lead, rider = (
            self._coalesce_world(db)
        )
        for i in range(3):
            table.update(rids[i], {"v": 100 + i})
        link.fail_at(0, 10**9)  # both the pass and the solo re-arm die
        table.update(rids[3], {"v": 103})
        assert lead.refreshes == 1
        assert rider.refreshes == 0
        assert rider.failed_refreshes == 1
        assert rider.pending == 4  # kept, so the next period retries
        assert rider.last_failure is not None
        assert scheduler.rearmed_solo == 0
        assert scheduler.failed_refreshes == 1

    def test_retries_exhausted_also_skips(self, db):
        from repro.net.faults import FaultyLink
        from repro.net.retry import RetryPolicy

        table = db.create_table("t", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(10)])
        manager = SnapshotManager(
            db, retry_policy=RetryPolicy(max_attempts=2, jitter=0.0)
        )
        link = FaultyLink(outages=[(0, 10**9)])
        manager.create_snapshot(
            "s", "t", method="differential", channel=link,
            initial_refresh=False,
        )
        scheduler = RefreshScheduler(manager)
        entry = scheduler.schedule("s", every_ops=1)
        table.update(rids[0], {"v": 100})  # no raise
        assert entry.failed_refreshes == 1
        assert entry.last_failure is not None


class TestStaleness:
    def test_multi_op_transaction_staleness_counts_each_op(self, world):
        # Regression: staleness used to be sampled once per *commit*, so
        # a 3-op transaction contributed one sample of 3 instead of the
        # per-operation ramp 1+2+3 — biasing A11's staleness axis low
        # for batched workloads.
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=100)
        txn = db.txns.begin()
        table.update(rids[0], {"v": 1}, txn=txn)
        table.update(rids[1], {"v": 2}, txn=txn)
        table.update(rids[2], {"v": 3}, txn=txn)
        txn.commit()
        assert entry.ops_observed == 3
        assert entry.staleness_area == 1 + 2 + 3
        assert entry.average_staleness == 2.0

    def test_batched_and_singleton_commits_accumulate_identically(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=100)
        txn = db.txns.begin()
        for i in range(4):
            table.update(rids[i], {"v": i}, txn=txn)
        txn.commit()
        batched_area = entry.staleness_area
        # Same number of ops as singleton commits, starting from the
        # same pending level, must add the same area shifted by it.
        for i in range(4):
            table.update(rids[10 + i], {"v": i})
        singleton_area = entry.staleness_area - batched_area
        assert batched_area == 1 + 2 + 3 + 4
        assert singleton_area == 5 + 6 + 7 + 8
    def test_average_staleness_grows_with_period(self, db):
        table = db.create_table("t", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(50)])
        manager = SnapshotManager(db)
        manager.create_snapshot("fast", "t", method="differential")
        manager.create_snapshot("slow", "t", method="differential")
        scheduler = RefreshScheduler(manager)
        fast = scheduler.schedule("fast", every_ops=2)
        slow = scheduler.schedule("slow", every_ops=20)
        for i in range(40):
            table.update(rids[i % len(rids)], {"v": i})
        assert fast.average_staleness < slow.average_staleness
        assert fast.refreshes > slow.refreshes

    def test_coalescing_with_longer_period(self, db):
        # Hot-row updates: a long period ships fewer entries in total.
        table = db.create_table("t", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(20)])
        manager = SnapshotManager(db)
        manager.create_snapshot("eager_s", "t", method="differential")
        manager.create_snapshot("lazy_s", "t", method="differential")
        scheduler = RefreshScheduler(manager)
        per_op = scheduler.schedule("eager_s", every_ops=1)
        batched = scheduler.schedule("lazy_s", every_ops=50)
        for i in range(50):
            table.update(rids[0], {"v": i})  # one hot row
        scheduler.flush()
        assert per_op.entries_shipped == 50
        assert batched.entries_shipped == 1  # coalesced


class TestFleetScale:
    """Regression: the per-commit hook must not walk the whole fleet.

    The original scheduler visited every scheduled entry on every
    observed commit — O(fleet) per op.  The registry's deadline heap
    makes the hook O(ops + newly_due log n), while keeping the staleness
    accounting byte-for-byte identical to the eager walk.
    """

    def test_10k_entries_constant_per_op_work(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=10)
        # A 10k-strong fleet sharing the scheduler's registry, none of
        # it due for ~forever: per-op work must not touch any of it.
        for i in range(10_000):
            scheduler.registry.register(f"ghost{i}", "t", every_ops=10**9)
        pops_before = scheduler.registry.stats["heap_pops"]
        for i in range(30):
            table.update(rids[i], {"v": i})
        # Only the real entry's deadline crossings popped the heap: 3
        # refresh firings at ops 10/20/30, regardless of fleet size.
        assert scheduler.registry.stats["heap_pops"] - pops_before == 3
        assert entry.refreshes == 3

    def test_10k_entries_staleness_byte_identical_to_eager_walk(self, world):
        db, table, rids, manager, snapshot, scheduler = world
        entry = scheduler.schedule("s", every_ops=7)
        for i in range(10_000):
            scheduler.registry.register(f"ghost{i}", "t", every_ops=10**9)
        # Eager reference: per-op pending ramp, reset at each firing.
        pending = area = 0
        for i in range(25):
            table.update(rids[i], {"v": i})
            pending += 1
            area += pending
            if pending == 7:
                pending = 0
            assert entry.pending == pending
            assert entry.staleness_area == area
        assert entry.ops_observed == 25
        # The ghosts' accounting is exact too, with zero per-op work.
        ghost = scheduler.registry.record("ghost42")
        assert ghost.pending == 25
        assert ghost.staleness_area == sum(range(1, 26))
