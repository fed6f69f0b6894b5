"""SnapshotRegistry: deadline buckets, staleness closed forms, the drain.

``next_cohort`` takes the stalest cohort out of the due pool and the
driver reports each member back (``mark_refreshed`` / ``mark_failed``).
The drain scenarios pin what that serial loop owes the fleet: every due
member refreshed exactly once; a failed member marked once per drain and
left due for the next one (a member whose link stays down must not hold
the drain forever); a pass that dies mid-stream commits nothing at the
receiver; and a pass that raises leaves no member stranded outside the
due pool.
"""

import random

import pytest

from repro.core.manager import SnapshotManager
from repro.core.registry import SnapshotRegistry, _tri
from repro.database import Database
from repro.errors import ChannelError, SnapshotError
from repro.txn.clock import ManualClock


class TestDueTracking:
    def test_not_due_before_period(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=5)
        assert registry.observe("t", 4) == []
        assert registry.due() == []

    def test_due_at_period(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=5)
        due = registry.observe("t", 5)
        assert [r.name for r in due] == ["s"]
        assert due[0].pending == 5

    def test_refresh_rearms(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=3)
        registry.observe("t", 3)
        registry.mark_refreshed("s", shipped=7)
        record = registry.record("s")
        assert record.pending == 0
        assert record.refreshes == 1
        assert record.entries_shipped == 7
        assert registry.due() == []
        assert [r.name for r in registry.observe("t", 3)] == ["s"]

    def test_failed_refresh_stays_due(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=2)
        registry.observe("t", 2)
        error = RuntimeError("link down")
        registry.mark_failed("s", error)
        record = registry.record("s")
        assert record.failed_refreshes == 1
        assert record.last_failure is error
        assert record.pending == 2
        # Still due: the next relevant commit retries it.
        assert [r.name for r in registry.observe("t", 1)] == ["s"]

    def test_observe_unknown_base_is_noop(self):
        registry = SnapshotRegistry()
        assert registry.observe("ghost", 10) == []

    def test_unregister_tombstones(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=2)
        registry.unregister("s")
        assert registry.observe("t", 10) == []
        assert "s" not in registry
        assert len(registry) == 0

    def test_reregister_resets(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=2)
        registry.observe("t", 2)
        registry.register("s", "t", every_ops=4)
        assert registry.record("s").pending == 0
        assert registry.due() == []

    def test_rejects_bad_period(self):
        with pytest.raises(SnapshotError):
            SnapshotRegistry().register("s", "t", every_ops=0)

    def test_near_due_matches_scheduler_predicate(self):
        registry = SnapshotRegistry()
        registry.register("close", "t", every_ops=10)
        registry.register("far", "t", every_ops=100)
        registry.register("idle", "u", every_ops=10)
        registry.observe("t", 8)
        names = [r.name for r in registry.near_due("t", window=2)]
        assert names == ["close"]
        assert registry.near_due("t", window=2, exclude=("close",)) == []


class TestStalenessAccounting:
    def test_closed_form_matches_eager_loop(self):
        """The lazy triangular form reproduces the eager per-op walk."""
        registry = SnapshotRegistry()
        fleet = [("a", 3), ("b", 7), ("c", 5)]
        for name, every in fleet:
            registry.register(name, "t", every_ops=every)
        # Eager reference: the original scheduler's accounting.
        eager = {name: {"pending": 0, "area": 0, "ops": 0} for name, _ in fleet}
        rng = random.Random(42)
        for _ in range(200):
            k = rng.randint(1, 4)
            due = registry.observe("t", k)
            for state in eager.values():
                for _ in range(k):
                    state["pending"] += 1
                    state["area"] += state["pending"]
                state["ops"] += k
            for record in due:
                registry.mark_refreshed(record.name)
                eager[record.name]["pending"] = 0
            for name, _ in fleet:
                record = registry.record(name)
                assert record.pending == eager[name]["pending"]
                assert record.staleness_area == eager[name]["area"]
                assert record.ops_observed == eager[name]["ops"]

    def test_average_staleness(self):
        registry = SnapshotRegistry()
        registry.register("s", "t", every_ops=100)
        assert registry.record("s").average_staleness == 0.0
        registry.observe("t", 3)
        # Area 1+2+3 over 3 ops.
        assert registry.record("s").average_staleness == pytest.approx(2.0)

    def test_tri(self):
        assert _tri(0) == 0
        assert _tri(4) == 10


class TestScaling:
    def test_per_op_cost_independent_of_fleet_size(self):
        """10k registered snapshots: observing ops touches no heap entry
        until a deadline is actually crossed."""
        registry = SnapshotRegistry()
        for i in range(10_000):
            registry.register(f"s{i}", "t", every_ops=1_000_000)
        pushes = registry.stats["heap_pushes"]
        assert pushes == 10_000
        for _ in range(1_000):
            registry.observe("t", 1)
        assert registry.stats["heap_pops"] == 0
        assert registry.stats["ops_observed"] == 1_000
        # And the accounting is still exact for every member.
        record = registry.record("s123")
        assert record.pending == 1_000
        assert record.staleness_area == _tri(1_000)

    def test_due_work_proportional_to_due_count(self):
        registry = SnapshotRegistry()
        for i in range(1_000):
            registry.register(f"s{i}", "t", every_ops=5 if i < 10 else 10_000)
        due = registry.observe("t", 5)
        assert len(due) == 10
        # Only the crossed deadlines were popped.
        assert registry.stats["heap_pops"] == 10


class TestClaimProtocol:
    """``next_cohort`` against the due pool (no manager involved)."""

    def _register_due(self, registry, n=4, base="t", every=2):
        for i in range(n):
            registry.register(f"s{i}", base, every_ops=every)
        registry.observe(base, every)

    def test_claim_takes_whole_cohort(self):
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry)
        cohort = registry.next_cohort()
        assert sorted(cohort.members) == ["s0", "s1", "s2", "s3"]
        assert registry.due() == []
        assert registry.next_cohort() is None

    def test_stalest_cohort_first(self):
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry, n=2, base="fresh", every=2)
        for i in range(2):
            registry.register(f"u{i}", "stale", every_ops=2)
        registry.observe("stale", 16)
        first = registry.next_cohort()
        assert first.key.base_table == "stale"
        assert registry.next_cohort().key.base_table == "fresh"

    def test_distinct_bases_claim_concurrently(self):
        """Several bases drain one after another, each its own cohort;
        a taken cohort stays out of the pool while the next is taken."""
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry, n=2, base="t1")
        for i in range(2):
            registry.register(f"u{i}", "t2", every_ops=2)
        registry.observe("t2", 2)
        a = registry.next_cohort()
        b = registry.next_cohort()
        assert a is not None and b is not None
        assert a.key.base_table != b.key.base_table
        assert registry.next_cohort() is None

    def test_members_out_of_due_until_reported(self):
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry, n=2)
        registry.next_cohort()
        # Past their deadlines, but taken: neither observe nor due()
        # hands them out again, and near_due's caller never fires
        # inside a drain.
        assert registry.observe("t", 5) == []
        assert registry.due() == []
        assert registry.next_cohort() is None
        registry.mark_failed("s0")
        assert [r.name for r in registry.observe("t", 1)] == ["s0"]

    def test_complete_rearms_members(self):
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry, n=2)
        registry.next_cohort()
        registry.mark_refreshed("s0", shipped=3)
        registry.mark_refreshed("s1", shipped=4)
        assert registry.record("s0").refreshes == 1
        assert registry.record("s0").entries_shipped == 3
        assert registry.record("s0").pending == 0
        assert registry.due() == []

    def test_complete_with_failures_requeues(self):
        registry = SnapshotRegistry(cohort_size=8)
        self._register_due(registry, n=2)
        registry.next_cohort()
        boom = RuntimeError("boom")
        registry.mark_refreshed("s0", shipped=1)
        registry.mark_failed("s1", boom)
        assert registry.record("s0").refreshes == 1
        assert registry.record("s1").refreshes == 0
        assert registry.record("s1").failed_refreshes == 1
        assert registry.record("s1").last_failure is boom
        assert [r.name for r in registry.due()] == ["s1"]
        assert list(registry.next_cohort().members) == ["s1"]


def _fleet_world(workers_bases=2, per_base=3):
    """A database with several base tables and differential snapshots."""
    db = Database("fleet", clock=ManualClock(), buffer_capacity=64)
    manager = SnapshotManager(db)
    registry = SnapshotRegistry(cohort_size=8)
    tables = {}
    for b in range(workers_bases):
        name = f"t{b}"
        table = db.create_table(name, [("v", "int"), ("w", "int")])
        table.bulk_load([[i, i * 2] for i in range(40)])
        tables[name] = table
        for s in range(per_base):
            snap_name = f"{name}_s{s}"
            manager.create_snapshot(
                snap_name, name, where="v >= 0", method="differential"
            )
            handle = manager.snapshot(snap_name)
            registry.register(
                snap_name, name, every_ops=1, restriction=handle.restriction
            )
    return db, manager, registry, tables


def _truth(table, where=lambda v: True):
    return {
        rid: row.values for rid, row in table.scan(visible=True)
        if where(row.values[0])
    }


def _dirty(registry, tables, ops=5):
    for name, table in tables.items():
        rids = [rid for rid, _ in table.scan(visible=True)]
        for i in range(ops):
            table.update(rids[i], {"v": 1000 + i})
        registry.observe(name, ops)


def _drop_sends(channel, count, after=0):
    """Fail ``count`` sends of ``channel`` after its first ``after``.

    Bounded, not forever: a drain that retook its failures would still
    return, reading more than one failure per drain.  Returns the send
    counter.
    """
    original_send = channel.send
    sent = {"n": 0}

    def send(message):
        sent["n"] += 1
        if after < sent["n"] <= after + count:
            raise ChannelError("link down")
        return original_send(message)

    channel.send = send
    return sent


class TestDrain:
    """The manager-level next cohort → refresh → mark loop."""

    def test_drain_refreshes_everything_exactly_once(self):
        db, manager, registry, tables = _fleet_world(workers_bases=3, per_base=2)
        _dirty(registry, tables)
        before = {
            name: manager.snapshot(name).info.refresh_count
            for name in list(registry._records)
        }
        drain = manager.drain_registry(registry)
        assert drain.refreshed == 6
        assert drain.cohorts == 3
        assert drain.errors == {}
        for name in before:
            handle = manager.snapshot(name)
            assert handle.info.refresh_count == before[name] + 1
            assert handle.as_map() == _truth(tables[handle.info.base_table])
            assert registry.record(name).refreshes == 1
        assert registry.due() == []

    def test_failing_member_is_offered_once_per_drain(self):
        """A member whose link is down is marked failed once and left due
        for the next drain; the drain returns instead of retaking it."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=2)
        _dirty(registry, tables)
        down, healthy = "t0_s0", "t0_s1"
        _drop_sends(manager.snapshot(down).channel, count=50)
        drain = manager.drain_registry(registry)
        assert list(drain.errors) == [down]
        assert drain.refreshed == 1
        record = registry.record(down)
        assert record.failed_refreshes == 1
        assert isinstance(record.last_failure, ChannelError)
        assert record.refreshes == 0
        assert [r.name for r in registry.due()] == [down]
        assert registry.record(healthy).refreshes == 1
        # Still down: the next drain adds one failure, and returns.
        drain = manager.drain_registry(registry)
        assert list(drain.errors) == [down]
        assert record.failed_refreshes == 2
        assert [r.name for r in registry.due()] == [down]

    def test_raising_pass_requeues_the_drains_earlier_failures(self):
        """A pass that raises requeues the members that failed in an
        earlier cohort of the same drain, not only its own."""
        db, manager, registry, tables = _fleet_world(workers_bases=2, per_base=1)
        _dirty(registry, tables)
        # Equally stale: t0's cohort goes first (key order).
        _drop_sends(manager.snapshot("t0_s0").channel, count=50)
        original = manager.refresh_many

        def t1_pass_raises(members, retry=None):
            if "t1_s0" in members:
                raise RuntimeError("pass crashed")
            return original(members, retry=retry)

        manager.refresh_many = t1_pass_raises
        with pytest.raises(RuntimeError, match="crashed"):
            manager.drain_registry(registry)
        assert sorted(r.name for r in registry.due()) == ["t0_s0", "t1_s0"]
        t0, t1 = registry.record("t0_s0"), registry.record("t1_s0")
        assert t0.failed_refreshes == t1.failed_refreshes == 1
        assert isinstance(t0.last_failure, ChannelError)
        assert isinstance(t1.last_failure, RuntimeError)

    def test_crashing_refresh_releases_claim_and_requeues(self):
        """A pass that dies on an unexpected error propagates it, and its
        cohort's members are marked failed and due again, not stranded."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=2)
        _dirty(registry, tables)
        names = sorted(r.name for r in registry.due())

        def crashing(members, retry=None):
            raise RuntimeError("pass crashed mid-cohort")

        manager.refresh_many = crashing
        try:
            with pytest.raises(RuntimeError, match="crashed"):
                manager.drain_registry(registry)
        finally:
            del manager.refresh_many
        for name in names:
            record = registry.record(name)
            assert record.failed_refreshes == 1
            assert record.refreshes == 0
        assert sorted(r.name for r in registry.due()) == names
        # The next drain heals the fleet.
        drain2 = manager.drain_registry(registry)
        assert drain2.refreshed == len(names)
        for name in names:
            handle = manager.snapshot(name)
            assert handle.as_map() == _truth(tables[handle.info.base_table])

    def test_dead_worker_mid_stream_commits_nothing(self):
        """The pass dies *inside* the refresh stream (the channel drops
        mid-epoch).  The receiver's staged epoch is aborted — zero
        durable effect — and the next drain's refresh is the only
        committed one."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=1)
        _dirty(registry, tables)
        (name,) = [r.name for r in registry.due()]
        handle = manager.snapshot(name)
        receiver_before = handle.as_map()

        sent = _drop_sends(handle.channel, count=1, after=2)
        drain = manager.drain_registry(registry)
        assert list(drain.errors) == [name]
        assert sent["n"] > 2  # it really died mid-stream
        # Death mid-stream: nothing durable reached the receiver.
        assert handle.as_map() == receiver_before
        assert handle.info.refresh_count == 1  # the initial load only
        assert [r.name for r in registry.due()] == [name]
        # The next drain refreshes it exactly once.
        drain = manager.drain_registry(registry)
        assert drain.refreshed == 1
        assert handle.info.refresh_count == 2
        assert registry.record(name).refreshes == 1
        assert handle.as_map() == _truth(tables[handle.info.base_table])
