"""Shared-scan group refresh through the manager and scheduler.

Covers the orchestration layer above :mod:`repro.core.group`:
``refresh_many``/``refresh_all`` grouping differential snapshots per
base table, per-snapshot epochs and fault isolation inside a shared
pass, the scheduler's coalescing window, and the group statistics the
pass reports.  (The byte-identity property itself lives in
``tests/properties/test_group_props.py``.)
"""

from contextlib import contextmanager

import pytest

from repro.core import manager as manager_module
from repro.core.manager import SnapshotManager
from repro.core.per_row import run_row_scan
from repro.core.scheduler import RefreshScheduler
from repro.database import Database
from repro.errors import SnapshotError
from repro.expr.predicate import Restriction
from repro.net.faults import FaultyLink
from repro.net.retry import RetryPolicy


def build_fleet(n=3, rows=60, link_for=None, page_size=None, **manager_kwargs):
    """A base table with ``n`` differential snapshots on disjoint bands.

    ``link_for`` maps snapshot index -> FaultyLink to wire in.
    """
    hq = Database("hq", page_size=page_size) if page_size else Database("hq")
    emp = hq.create_table("emp", [("v", "int")])
    rids = [emp.insert([i]) for i in range(rows)]
    manager = SnapshotManager(hq, **manager_kwargs)
    links = dict(link_for or {})
    snaps = []
    band = rows // n
    for i in range(n):
        lo, hi = i * band, (i + 1) * band
        snaps.append(
            manager.create_snapshot(
                f"s{i}",
                "emp",
                where=f"v >= {lo} and v < {hi}",
                method="differential",
                channel=links.get(i),
            )
        )
    return hq, emp, rids, manager, snaps


@contextmanager
def on_the_reference():
    """Within the block, the manager's passes run on the per-row
    reference (``core/per_row.py``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manager_module, "run_refresh_scan", run_row_scan)
        yield


def truth(emp, snap):
    restriction = snap.restriction
    return {
        rid: row.values
        for rid, row in emp.scan(visible=True)
        if restriction(row)
    }


def churn(emp, rids, seed=0):
    for i in range(0, len(rids), 4):
        emp.update(rids[i], {"v": (i * 7 + seed) % 60})
    emp.delete(rids[1])
    return [emp.insert([v]) for v in (3, 23, 43)]


class TestGroupPass:
    def test_refresh_all_serves_fleet_from_one_pass(self):
        hq, emp, rids, manager, snaps = build_fleet()
        churn(emp, rids)
        results = manager.refresh_all()
        assert sorted(results) == ["s0", "s1", "s2"]
        assert not results.errors
        for snap in snaps:
            assert results[snap.name].group_cursors == 3
            assert snap.as_map() == truth(emp, snap)

    def test_group_pass_advances_each_snap_time(self):
        hq, emp, rids, manager, snaps = build_fleet()
        before = [snap.snap_time for snap in snaps]
        churn(emp, rids)
        results = manager.refresh_all()
        for snap, old in zip(snaps, before):
            assert snap.snap_time > old
            assert snap.snap_time == results[snap.name].new_snap_time

    def test_quiet_group_pass_sends_no_entries(self):
        hq, emp, rids, manager, snaps = build_fleet()
        manager.refresh_all()
        results = manager.refresh_all()
        assert all(r.entries_sent == 0 for r in results.values())

    def test_group_false_refreshes_solo(self):
        hq, emp, rids, manager, snaps = build_fleet()
        churn(emp, rids)
        results = manager.refresh_all(group=False)
        for snap in snaps:
            assert results[snap.name].group_cursors == 1
            assert snap.as_map() == truth(emp, snap)

    def test_singleton_group_demotes_to_solo(self):
        hq, emp, rids, manager, snaps = build_fleet(n=1)
        churn(emp, rids)
        results = manager.refresh_many(["s0"])
        assert results["s0"].group_cursors == 1

    def test_mixed_methods_group_only_differential(self):
        hq, emp, rids, manager, snaps = build_fleet(n=2)
        full = manager.create_snapshot("copy", "emp", method="full")
        churn(emp, rids)
        results = manager.refresh_all()
        assert sorted(results) == ["copy", "s0", "s1"]
        assert results["s0"].group_cursors == 2
        assert results["copy"].group_cursors == 1
        assert full.as_map() == truth(emp, full)

    def test_snapshots_of_different_bases_group_separately(self):
        hq = Database("hq")
        emp = hq.create_table("emp", [("v", "int")])
        dept = hq.create_table("dept", [("v", "int")])
        for i in range(20):
            emp.insert([i])
            dept.insert([i])
        manager = SnapshotManager(hq)
        for i, base in enumerate(["emp", "emp", "dept", "dept"]):
            manager.create_snapshot(
                f"s{i}", base, where="v < 10", method="differential"
            )
        emp.insert([5])
        dept.insert([5])
        results = manager.refresh_all()
        assert all(r.group_cursors == 2 for r in results.values())

    def test_unknown_name_raises(self):
        hq, emp, rids, manager, snaps = build_fleet(n=1)
        with pytest.raises(SnapshotError):
            manager.refresh_many(["s0", "nope"])


class TestGroupStats:
    def test_rows_decoded_once_for_the_whole_fleet(self):
        hq, emp, rids, manager, snaps = build_fleet(
            n=3, use_page_summaries=False
        )
        churn(emp, rids)
        results = manager.refresh_all()
        # Pass-level decode work is shared: without summaries no cursor
        # holds a record of any page, so each ran its restriction on
        # every live entry (the paper's rule), but each entry's fields
        # were extracted once for the pass — and every member reports
        # that one pass-level count.
        assert len({r.rows_decoded for r in results.values()}) == 1
        for result in results.values():
            assert result.entries_evaluated == emp.row_count
            assert result.rows_decoded == result.entries_evaluated
            assert result.group_cursors == 3
        # With the manager's defaults each cursor crosses the page from
        # its committed entry and evaluates what changed for it: the 15
        # updates and 3 inserts.  The page is visited, not read whole:
        # the pass reads those 18 records and the reused slot's
        # successor — 19 of the 62.  A qualifier a Deletion flag forces
        # out is held unchanged and goes as a range delete, unread.
        _, emp1, rids1, manager1, _ = build_fleet(n=3)
        churn(emp1, rids1)
        for result in manager1.refresh_all().values():
            assert result.entries_evaluated == 18
            assert result.scanned == 19 and result.rows_decoded == 19
        # The per-row reference decodes exactly once per entry.
        _, emp2, rids2, manager2, _ = build_fleet(n=3, use_page_summaries=False)
        churn(emp2, rids2)
        with on_the_reference():
            results2 = manager2.refresh_all()
        for result in results2.values():
            assert result.rows_decoded == result.entries_evaluated
            assert result.pages_batch_decoded == 0

    def test_stale_cursor_does_not_rescan_for_fresh_ones(self):
        hq, emp, rids, manager, snaps = build_fleet(
            n=3, rows=120, page_size=512
        )
        manager.refresh_all()
        # Touch one band only, then refresh the fleet: the group pass
        # fast-forwards every cursor over the untouched pages.
        emp.update(rids[0], {"v": 1})
        results = manager.refresh_all()
        assert all(
            r.pages_fast_forwarded > 0 for r in results.values()
        )
        for snap in snaps:
            assert snap.as_map() == truth(emp, snap)


def one_page_pair(where, **manager_kwargs):
    """Sixty rows on one page, two snapshots ``a`` and ``b`` on ``where``."""
    hq = Database("hq")
    emp = hq.create_table("emp", [("v", "int")])
    rids = [emp.insert([i]) for i in range(60)]
    assert emp.heap.page_count == 1
    manager = SnapshotManager(hq, **manager_kwargs)
    snaps = [
        manager.create_snapshot(name, "emp", where=where, method="differential")
        for name in ("a", "b")
    ]
    return emp, rids, manager, snaps


class TestWholePageFromTheMirror:
    """One read of a page, each cursor paying for what changed for *it*."""

    def test_each_cursor_evaluates_what_is_newer_than_its_own_snap_time(self):
        emp, rids, manager, snaps = one_page_pair("v < 100")
        emp.update(rids[3], {"v": 70})
        manager.refresh("a")  # stamps rids[3] above b's SnapTime
        emp.update(rids[7], {"v": 71})
        emp.delete(rids[9])  # a structural change: the page is read whole
        a, b = snaps
        assert a.snap_time > b.snap_time
        results = manager.refresh_all()
        assert results["a"].group_cursors == 2
        assert results["a"].rows_decoded == results["a"].scanned == 59
        # rids[3] is old news to a, news to b; rids[7] is news to both;
        # rids[10] answers the delete's flag for both, unevaluated.
        assert results["a"].entries_evaluated == 1
        assert results["b"].entries_evaluated == 2
        assert results["a"].entries_sent == 2
        assert results["b"].entries_sent == 3
        for snap in snaps:
            assert snap.as_map() == truth(emp, snap)
        quiet = manager.refresh_all()
        assert all(r.entries_evaluated == 0 for r in quiet.values())

    def test_cursor_without_an_entry_runs_the_papers_rule_beside_one_with(self):
        def play(**manager_kwargs):
            emp, rids, manager, snaps = one_page_pair("v >= 30", **manager_kwargs)
            snaps[1].page_mirror.clear()  # b lost its record of the page
            emp.update(rids[10], {"v": 11})  # never qualified, still does not
            return emp, rids, manager, snaps, manager.refresh_all()

        emp, rids, manager, snaps, results = play()
        assert results["a"].group_cursors == 2
        # a knows the snapshot never held rids[10]: one evaluation,
        # nothing to send.  b must assume it "may have qualified
        # before": every entry evaluated, the next qualifier re-sent.
        assert results["a"].entries_evaluated == 1
        assert results["a"].entries_sent == 0
        assert results["b"].entries_evaluated == emp.row_count
        assert results["b"].entries_sent == 1
        for snap in snaps:
            assert snap.as_map() == truth(emp, snap)
        # b's stream is the per-row reference's, to the byte count.
        with on_the_reference():
            *_, paper = play()
        for field in ("entries_sent", "messages_sent", "bytes_sent"):
            assert getattr(results["b"], field) == getattr(paper["b"], field)
            assert getattr(paper["a"], field) == getattr(paper["b"], field)
        # Having crossed it, b holds an entry again.
        emp.update(rids[40], {"v": 41})
        again = manager.refresh_all()
        assert again["a"].entries_evaluated == again["b"].entries_evaluated == 1


class TestGroupFaultIsolation:
    def test_one_dead_link_aborts_only_its_epoch(self):
        link = FaultyLink()
        hq, emp, rids, manager, snaps = build_fleet(link_for={1: link})
        churn(emp, rids)
        committed_before = [s.table.committed_epochs for s in snaps]
        link.go_down()
        results = manager.refresh_all()
        assert sorted(results) == ["s0", "s2"]
        assert results.failed == ["s1"]
        # The dead link failed at RefreshBegin: nothing was ever staged
        # at s1's receiver, so nothing committed — while the siblings'
        # epochs committed normally.
        assert snaps[1].table.committed_epochs == committed_before[1]
        for i in (0, 2):
            assert snaps[i].table.committed_epochs == committed_before[i] + 1
            assert snaps[i].as_map() == truth(emp, snaps[i])

    def test_mid_stream_failure_isolated(self):
        link = FaultyLink()
        hq, emp, rids, manager, snaps = build_fleet(link_for={1: link})
        churn(emp, rids)
        link.fail_at(2)  # dies after Begin + one entry of the group pass
        results = manager.refresh_all()
        assert results.failed == ["s1"]
        assert snaps[1].table.aborted_epochs == 1
        for i in (0, 2):
            assert snaps[i].as_map() == truth(emp, snaps[i])

    def test_failed_snapshot_converges_on_next_pass(self):
        link = FaultyLink()
        hq, emp, rids, manager, snaps = build_fleet(link_for={1: link})
        churn(emp, rids)
        stale_time = snaps[1].snap_time
        link.go_down()
        manager.refresh_all()
        assert snaps[1].snap_time == stale_time  # unchanged by the abort
        link.come_up()
        results = manager.refresh_all()
        assert not results.errors
        assert snaps[1].snap_time > stale_time
        assert snaps[1].as_map() == truth(emp, snaps[1])

    def test_group_failure_retries_solo_under_policy(self):
        link = FaultyLink()
        hq, emp, rids, manager, snaps = build_fleet(link_for={1: link})
        churn(emp, rids)
        link.fail_at(2)  # one scripted outage; the solo retry gets through
        results = manager.refresh_all(
            retry=RetryPolicy(max_attempts=3, jitter=0.0)
        )
        assert not results.errors
        assert results["s1"].attempts >= 1
        assert snaps[1].as_map() == truth(emp, snaps[1])

    def test_begin_failure_skips_cursor_entirely(self):
        link = FaultyLink()
        hq, emp, rids, manager, snaps = build_fleet(link_for={1: link})
        churn(emp, rids)
        link.fail_at(0, 10**9)  # permanent outage from the next send on
        results = manager.refresh_all()
        assert results.failed == ["s1"]
        # s1's stream died at RefreshBegin — no epoch was ever staged,
        # so its contents and SnapTime are exactly the pre-pass state.
        assert snaps[1].table.aborted_epochs == 0
        for i in (0, 2):
            assert snaps[i].as_map() == truth(emp, snaps[i])


class TestSchedulerCoalescing:
    def build(self, window):
        hq = Database("hq")
        emp = hq.create_table("emp", [("v", "int")])
        rids = [emp.insert([i]) for i in range(40)]
        manager = SnapshotManager(hq)
        for i, period in enumerate([4, 5, 50]):
            manager.create_snapshot(
                f"s{i}", "emp", where="v < 100", method="differential"
            )
        scheduler = RefreshScheduler(manager, coalesce_window=window)
        for i, period in enumerate([4, 5, 50]):
            scheduler.schedule(f"s{i}", period)
        return hq, emp, rids, manager, scheduler

    def test_near_due_sibling_rides_the_pass(self):
        hq, emp, rids, manager, scheduler = self.build(window=2)
        for i in range(4):
            emp.update(rids[i], {"v": 100 + i})
        # s0 (period 4) is due; s1 (period 5, pending 4) is within the
        # window and rides; s2 (period 50) stays scheduled.
        assert scheduler.group_passes == 1
        assert scheduler.coalesced_refreshes == 1
        assert scheduler.entry("s0").pending == 0
        assert scheduler.entry("s1").pending == 0
        assert scheduler.entry("s2").pending == 4
        assert scheduler.entry("s1").refreshes == 1

    def test_zero_window_never_coalesces(self):
        hq, emp, rids, manager, scheduler = self.build(window=0)
        for i in range(8):
            emp.update(rids[i], {"v": 100 + i})
        assert scheduler.group_passes == 0
        assert scheduler.coalesced_refreshes == 0
        assert scheduler.entry("s0").refreshes == 2
        assert scheduler.entry("s1").refreshes == 1

    def test_negative_window_rejected(self):
        hq = Database("hq")
        manager = SnapshotManager(hq)
        with pytest.raises(SnapshotError):
            RefreshScheduler(manager, coalesce_window=-1)


class TestParseMemoization:
    def setup_method(self):
        Restriction.clear_parse_cache()

    def test_same_text_same_schema_returns_same_object(self):
        db = Database("memo")
        table = db.create_table("t", [("v", "int")])
        first = Restriction.parse("v < 10", table.schema)
        hits = Restriction.parse_cache_hits
        second = Restriction.parse("v < 10", table.schema)
        assert second is first
        assert Restriction.parse_cache_hits == hits + 1

    def test_different_schema_misses(self):
        a = Database("memo").create_table("t", [("v", "int")])
        b = Database("memo2").create_table("t", [("v", "int"), ("w", "int")])
        first = Restriction.parse("v < 10", a.schema)
        second = Restriction.parse("v < 10", b.schema)
        assert second is not first

    def test_snapshot_handles_share_the_compiled_plan(self):
        hq = Database("hq")
        # Pre-enable annotations: the first differential CREATE SNAPSHOT
        # would otherwise extend the schema, and the second snapshot's
        # restriction would compile against a different schema (a cache
        # miss by design — the memo key is (text, schema)).
        emp = hq.create_table("emp", [("v", "int")], annotations="lazy")
        emp.insert([1])
        manager = SnapshotManager(hq)
        a = manager.create_snapshot(
            "a", "emp", where="v < 10", method="differential"
        )
        b = manager.create_snapshot(
            "b", "emp", where="v < 10", method="differential"
        )
        assert a.restriction is b.restriction

    def test_cache_clears_at_limit(self):
        db = Database("memo")
        table = db.create_table("t", [("v", "int")])
        limit = Restriction._parse_cache_limit
        for i in range(limit + 1):
            Restriction.parse(f"v < {i}", table.schema)
        assert len(Restriction._parse_cache) <= limit
