"""The invited optimizations: correctness preserved, costs reduced."""

import random

import pytest

from repro.core.differential import DifferentialRefresher
from repro.core.messages import DeleteRangeMessage, EntryMessage
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.storage.summary import PageMirror


#: What the manager builds: the address mirror, which sends a qualifier
#: the Deletion flag forces out as a range delete.
MIRROR = {"optimize_deletes": True, "mirror": True}


def build(db, rows, where="v < 100", optimize_deletes=False, mirror=False):
    table = db.create_table(
        "base", [("name", "string"), ("v", "int")], annotations="lazy"
    )
    table.bulk_load(rows)
    restriction = Restriction.parse(where, table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "snap", projection.schema)
    refresher = DifferentialRefresher(table, optimize_deletes=optimize_deletes)
    cache = PageMirror() if mirror else None
    state = {"snap_time": 0}

    def refresh():
        messages = []

        def deliver(message):
            messages.append(message)
            snapshot.apply(message)

        result = refresher.refresh(
            state["snap_time"], restriction, projection, deliver, cache=cache
        )
        state["snap_time"] = result.new_snap_time
        return result, messages

    def converged():
        expected = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[1] < 100
        }
        assert snapshot.as_map() == expected

    return table, refresh, converged


class TestOptimizeDeletes:
    def test_unchanged_survivor_sent_as_delete_range(self, db):
        table, refresh, converged = build(
            db, [["a", 10], ["b", 10], ["c", 10]], optimize_deletes=True
        )
        refresh()
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[1])
        result, messages = refresh()
        ranges = [m for m in messages if isinstance(m, DeleteRangeMessage)]
        entries = [m for m in messages if isinstance(m, EntryMessage)]
        assert len(ranges) == 1 and len(entries) == 0
        assert (ranges[0].lo, ranges[0].hi) == (rids[0], rids[2])
        converged()

    def test_changed_survivor_still_sent_in_full(self, db):
        table, refresh, converged = build(
            db, [["a", 10], ["b", 10], ["c", 10]], optimize_deletes=True
        )
        refresh()
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[1])
        table.update(rids[2], {"v": 11})  # survivor itself changed
        result, messages = refresh()
        entries = [m for m in messages if isinstance(m, EntryMessage)]
        assert [m.addr for m in entries] == [rids[2]]
        converged()

    def test_same_entry_count_fewer_bytes(self, db):
        rows = [[f"name-{i:04d}", 10] for i in range(60)]
        baseline_table, baseline_refresh, _ = build(db, rows)
        baseline_refresh()
        optimized_db = Database("opt")
        opt_table, opt_refresh, opt_converged = build(
            optimized_db, rows, optimize_deletes=True
        )
        opt_refresh()
        for t in (baseline_table, opt_table):
            victims = [rid for rid, _ in t.scan()][10:30:2]
            for rid in victims:
                t.delete(rid)
        base_result, _ = baseline_refresh()
        opt_result, _ = opt_refresh()
        assert opt_result.entries_sent == base_result.entries_sent
        assert opt_result.bytes_sent < base_result.bytes_sent
        opt_converged()


class TestSuppressPureInserts:
    """An unqualified pure insert arms no ``Deletion`` flag under the
    address mirror (``MIRROR``, the manager's configuration): no held
    address left, so nothing is forced out.  The paper's rule re-sends
    the next qualifier; a reused address is still purged."""

    def test_unqualified_insert_no_longer_forces_successor(self, db):
        table, refresh, converged = build(
            db, [["a", 10], ["z", 5000], ["c", 10]], **MIRROR
        )
        refresh()
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[1])
        refresh()
        assert table.insert(["ghost", 7777]) == rids[1]  # a pure insert
        result, messages = refresh()
        sent = [
            m for m in messages if isinstance(m, (EntryMessage, DeleteRangeMessage))
        ]
        assert sent == []  # the baseline would have resent "c"
        converged()

    def test_baseline_does_retransmit(self, db):
        table, refresh, converged = build(
            db, [["a", 10], ["z", 5000], ["c", 10]]
        )
        refresh()
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[1])
        refresh()
        table.insert(["ghost", 7777])
        result, messages = refresh()
        entries = [m for m in messages if isinstance(m, EntryMessage)]
        assert [m.addr for m in entries] == [rids[2]]
        converged()

    def test_address_reuse_deletion_still_detected(self, db):
        # Reuse of a *qualified* entry's address by an unqualified
        # insert must still purge the snapshot entry.
        table, refresh, converged = build(
            db, [["a", 10], ["b", 10], ["c", 10]], **MIRROR
        )
        refresh()
        rids = [rid for rid, _ in table.scan()]
        table.delete(rids[1])
        reborn = table.insert(["ghost", 9999])
        assert reborn == rids[1]
        result, _ = refresh()
        converged()


class TestOptimizedEquivalence:
    def test_randomized_equivalence_with_baseline(self):
        """The manager's configuration always produces the same snapshot
        contents as the paper's baseline."""
        rng = random.Random(23)
        rows = [[f"r{i}", rng.randrange(200)] for i in range(40)]
        plain_db, opt_db = Database("plain"), Database("opt")
        table_a, refresh_a, converged_a = build(plain_db, list(rows))
        opt_table = opt_db.create_table(
            "base", [("name", "string"), ("v", "int")], annotations="lazy"
        )
        opt_table.bulk_load(rows)
        restriction = Restriction.parse("v < 100", opt_table.schema)
        projection = Projection(opt_table.schema)
        opt_snapshot = SnapshotTable(Database("r2"), "s2", projection.schema)
        opt_refresher = DifferentialRefresher(opt_table, optimize_deletes=True)
        opt_cache = PageMirror()
        opt_time = [0]

        def refresh_b():
            def deliver(message):
                opt_snapshot.apply(message)

            result = opt_refresher.refresh(
                opt_time[0], restriction, projection, deliver, cache=opt_cache
            )
            opt_time[0] = result.new_snap_time
            return result

        refresh_a()
        refresh_b()
        for _ in range(6):
            ops = []
            live_a = [rid for rid, _ in table_a.scan()]
            for _ in range(12):
                roll = rng.random()
                if roll < 0.25 and len(live_a) > 3:
                    index = rng.randrange(len(live_a))
                    ops.append(("delete", index, None))
                elif roll < 0.7:
                    ops.append(
                        ("update", rng.randrange(len(live_a)), rng.randrange(200))
                    )
                else:
                    ops.append(("insert", None, rng.randrange(200)))
            for t in (table_a, opt_table):
                live = [rid for rid, _ in t.scan()]
                for op, index, value in ops:
                    if op == "delete" and index < len(live):
                        t.delete(live.pop(index))
                    elif op == "update" and live:
                        target = live[min(index or 0, len(live) - 1)]
                        t.update(target, {"v": value})
                    elif op == "insert":
                        live.append(t.insert(["x", value]))
            refresh_a()
            refresh_b()
            converged_a()
            expected = {
                rid: row.values
                for rid, row in opt_table.scan(visible=True)
                if row.values[1] < 100
            }
            assert opt_snapshot.as_map() == expected
