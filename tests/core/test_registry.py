"""SnapshotRegistry: deadline buckets, staleness closed forms, claims.

The worker-death scenarios (satellite of the claim protocol): a worker
that claims a cohort and vanishes must neither strand its snapshots nor
let them refresh twice — lease expiry hands the cohort to the next
claimer, the epoch protocol guarantees the dead worker transmitted
nothing durable, and completion fencing keeps a zombie from
double-counting.
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
    def _registry(self, lease=100):
        clock = ManualClock()
        registry = SnapshotRegistry(clock=clock, lease=lease, cohort_size=8)
        return registry, clock

    def _register_due(self, registry, n=4, base="t", every=2):
        for i in range(n):
            registry.register(f"s{i}", base, every_ops=every)
        registry.observe(base, every)

    def test_claim_takes_whole_cohort(self):
        registry, clock = self._registry()
        self._register_due(registry)
        claim = registry.claim_cohort("w1")
        assert sorted(claim.members) == ["s0", "s1", "s2", "s3"]
        assert claim.state == "live"
        assert registry.due() == []

    def test_one_live_claim_per_base(self):
        registry, clock = self._registry()
        for i in range(20):
            registry.register(f"s{i}", "t", every_ops=2)
        registry.observe("t", 2)
        first = registry.claim_cohort("w1", max_size=4)
        assert first is not None
        # 16 due snapshots remain, but their base is busy.
        assert registry.claim_cohort("w2", max_size=4) is None
        registry.complete(first)
        assert registry.claim_cohort("w2", max_size=4) is not None

    def test_distinct_bases_claim_concurrently(self):
        registry, clock = self._registry()
        self._register_due(registry, n=2, base="t1")
        for i in range(2):
            registry.register(f"u{i}", "t2", every_ops=2)
        registry.observe("t2", 2)
        a = registry.claim_cohort("w1")
        b = registry.claim_cohort("w2")
        assert a is not None and b is not None
        assert a.cohort.key.base_table != b.cohort.key.base_table

    def test_complete_rearms_members(self):
        registry, clock = self._registry()
        self._register_due(registry, n=2)
        claim = registry.claim_cohort("w1")
        assert registry.complete(claim, shipped={"s0": 3, "s1": 4})
        assert registry.record("s0").refreshes == 1
        assert registry.record("s0").entries_shipped == 3
        assert registry.record("s0").pending == 0
        assert registry.due() == []

    def test_complete_with_failures_requeues(self):
        registry, clock = self._registry()
        self._register_due(registry, n=2)
        claim = registry.claim_cohort("w1")
        boom = RuntimeError("boom")
        registry.complete(claim, shipped={"s0": 1}, failed={"s1": boom})
        assert registry.record("s0").refreshes == 1
        assert registry.record("s1").refreshes == 0
        assert registry.record("s1").failed_refreshes == 1
        assert [r.name for r in registry.due()] == ["s1"]

    def test_release_requeues_unrefreshed(self):
        registry, clock = self._registry()
        self._register_due(registry, n=2)
        claim = registry.claim_cohort("w1")
        assert registry.release(claim)
        assert sorted(r.name for r in registry.due()) == ["s0", "s1"]
        assert registry.record("s0").refreshes == 0

    def test_lease_expiry_reclaims(self):
        registry, clock = self._registry(lease=100)
        self._register_due(registry)
        dead = registry.claim_cohort("w-dead")
        assert registry.claim_cohort("w2") is None  # base busy
        clock.advance(101)
        reclaimed = registry.claim_cohort("w2")
        assert reclaimed is not None
        assert sorted(reclaimed.members) == sorted(dead.members)
        assert dead.state == "expired"
        assert registry.stats["claims_expired"] == 1

    def test_renew_extends_lease(self):
        registry, clock = self._registry(lease=100)
        self._register_due(registry)
        claim = registry.claim_cohort("w1")
        clock.advance(90)
        assert registry.renew(claim)
        clock.advance(90)
        # 180 ticks total but renewed at 90: still live.
        assert registry.claim_cohort("w2") is None
        assert claim.state == "live"

    def test_zombie_complete_is_fenced(self):
        """A worker finishing after its lease expired changes nothing."""
        registry, clock = self._registry(lease=10)
        self._register_due(registry, n=2)
        zombie = registry.claim_cohort("w-zombie")
        clock.advance(11)
        live = registry.claim_cohort("w2")
        registry.complete(live, shipped={"s0": 5, "s1": 5})
        refreshes = registry.record("s0").refreshes
        assert not registry.complete(zombie, shipped={"s0": 99, "s1": 99})
        assert registry.record("s0").refreshes == refreshes
        assert registry.record("s0").entries_shipped == 5
        assert registry.stats["completes_fenced"] == 1


def _fleet_world(workers_bases=2, per_base=3):
    """A database with several base tables and differential snapshots."""
    db = Database("fleet", clock=ManualClock(), buffer_capacity=64)
    manager = SnapshotManager(db)
    registry = SnapshotRegistry(clock=db.clock, lease=500, cohort_size=8)
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


class TestDrain:
    """The manager-level claim → refresh → complete loop."""

    def test_drain_refreshes_everything_exactly_once(self):
        db, manager, registry, tables = _fleet_world(workers_bases=3, per_base=2)
        _dirty(registry, tables)
        before = {
            name: manager.snapshot(name).info.refresh_count
            for name in list(registry._records)
        }
        drain = manager.drain_registry(registry)
        assert drain.refreshed == 6
        assert drain.errors == {}
        assert drain.worker_errors == {}
        for name in before:
            handle = manager.snapshot(name)
            assert handle.info.refresh_count == before[name] + 1
            assert handle.as_map() == _truth(tables[handle.info.base_table])
        assert registry.due() == []
        assert registry.claims() == []

    def test_worker_death_mid_cohort_reclaimed_exactly_once(self):
        """Dead worker → lease expiry → reclaim; one committed refresh,
        nothing transmitted by the dead worker."""
        db, manager, registry, tables = _fleet_world(workers_bases=2, per_base=2)
        _dirty(registry, tables)
        # The dead worker claims t0's cohort and vanishes mid-cohort:
        # its partial attempt transmitted nothing durable (the epoch
        # protocol aborts uncommitted epochs), modeled here by the claim
        # simply never completing.
        dead = registry.claim_cohort("w-dead")
        assert dead is not None
        dead_names = sorted(dead.members)
        receivers_before = {
            name: manager.snapshot(name).as_map() for name in dead_names
        }
        counts_before = {
            name: manager.snapshot(name).info.refresh_count
            for name in dead_names
        }
        # While the lease is live, a drain serves every OTHER base.
        drain1 = manager.drain_registry(registry)
        for name in dead_names:
            assert manager.snapshot(name).as_map() == receivers_before[name]
            assert manager.snapshot(name).info.refresh_count == counts_before[name]
        # Lease expires; the next drain reclaims and refreshes the
        # cohort exactly once.
        db.clock.advance(501)
        drain2 = manager.drain_registry(registry)
        assert drain2.refreshed == len(dead_names)
        for name in dead_names:
            handle = manager.snapshot(name)
            assert handle.info.refresh_count == counts_before[name] + 1
            assert handle.as_map() == _truth(tables[handle.info.base_table])
        assert registry.stats["claims_expired"] == 1
        assert registry.due() == []
        assert drain1.worker_errors == {} and drain2.worker_errors == {}

    def test_crashing_refresh_releases_claim_and_requeues(self):
        """A worker whose pass dies on an unexpected error releases its
        claim: members stay due, failure recorded, nothing committed."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=2)
        _dirty(registry, tables)
        names = sorted(r.name for r in registry.due())
        crashes = {"left": 1}

        original = manager.refresh_cohort

        def crashing(claim, retry=None):
            if crashes["left"]:
                crashes["left"] -= 1
                raise RuntimeError("worker crashed mid-cohort")
            return original(claim, retry=retry)

        manager.refresh_cohort = crashing
        try:
            drain = manager.drain_registry(registry)
        finally:
            manager.refresh_cohort = original
        assert list(drain.worker_errors) == ["worker-0"]
        assert drain.refreshed == 0
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
        """Sharper death model: the worker dies *inside* the refresh
        stream (channel drops mid-epoch).  The receiver's staged epoch
        is aborted — zero durable effect — and the reclaiming worker's
        refresh is the only committed one."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=1)
        _dirty(registry, tables)
        (name,) = [r.name for r in registry.due()]
        handle = manager.snapshot(name)
        receiver_before = handle.as_map()
        claim = registry.claim_cohort("w-dead")

        channel = handle.channel
        original_send = channel.send
        sent = {"n": 0}

        def dying_send(message):
            sent["n"] += 1
            if sent["n"] > 2:
                raise ChannelError("process killed mid-stream")
            return original_send(message)

        channel.send = dying_send
        try:
            outcomes = manager.refresh_cohort(claim)
        finally:
            channel.send = original_send
        assert list(outcomes.errors) == [name]
        assert sent["n"] > 2  # it really died mid-stream
        # Death mid-stream: nothing durable reached the receiver.
        assert handle.as_map() == receiver_before
        assert handle.info.refresh_count == 1  # the initial load only
        # Lease expires; the cohort is reclaimed and refreshed once.
        db.clock.advance(501)
        drain = manager.drain_registry(registry)
        assert drain.refreshed == 1
        assert handle.info.refresh_count == 2
        assert handle.as_map() == _truth(tables[handle.info.base_table])

    def test_max_claims_bounds_drain(self):
        db, manager, registry, tables = _fleet_world(workers_bases=3, per_base=1)
        _dirty(registry, tables)
        drain = manager.drain_registry(registry, max_claims=2)
        assert drain.claims == 2
        assert len(registry.due()) == 1

    def test_fenced_completion_is_not_counted(self):
        """A lease that expires mid-pass (what a second claimer process
        does to a slow worker) fences the completion: the cohort is not
        a refresh of this drain until it is claimed and completed again."""
        db, manager, registry, tables = _fleet_world(workers_bases=1, per_base=3)
        _dirty(registry, tables)
        names = sorted(r.name for r in registry.due())
        passes = []
        original = manager.refresh_cohort

        def slow_pass(claim, retry=None):
            passes.append(claim)
            if len(passes) == 1:
                db.clock.advance(registry.lease + 1)
                assert registry.expire_claims() == [claim]
                assert sorted(r.name for r in registry.due()) == names
            return original(claim, retry=retry)

        manager.refresh_cohort = slow_pass
        try:
            drain = manager.drain_registry(registry)
        finally:
            manager.refresh_cohort = original
        assert registry.stats["completes_fenced"] == 1
        assert [claim.state for claim in passes] == ["expired", "completed"]
        assert [sorted(claim.members) for claim in passes] == [names, names]
        assert drain.claims == 2
        assert drain.cohorts == 1
        assert drain.refreshed == len(names)
        assert drain.errors == {} and drain.worker_errors == {}
        for name in names:
            assert registry.record(name).refreshes == 1
            handle = manager.snapshot(name)
            assert handle.as_map() == _truth(tables[handle.info.base_table])
        assert registry.due() == []
