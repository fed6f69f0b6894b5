"""Stage 3: eager annotation maintenance + Figure-3 refresh.

The eager variant pays for annotations on every insert/delete so refresh
can run without fix-up.  These tests check the maintenance invariants
and that eager refresh converges exactly like the lazy pipeline.
"""

import random

import pytest

from repro.core.differential import base_refresh
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.relation.types import NULL
from repro.storage.rid import Rid


@pytest.fixture
def eager(db):
    table = db.create_table("t", [("v", "int")], annotations="eager")
    for i in range(12):
        table.insert([i * 10])
    return table


def chain_is_consistent(table):
    """Every entry's PrevAddr names its actual live predecessor."""
    previous = Rid.BEGIN
    for rid, _ in table.scan():
        prev, ts = table.annotations(rid)
        assert prev == previous, f"{rid}: PrevAddr {prev} != {previous}"
        assert ts is not NULL
        previous = rid


class TestChainInvariant:
    def test_after_bootstrap(self, eager):
        chain_is_consistent(eager)

    def test_after_deletes(self, eager):
        rids = [rid for rid, _ in eager.scan()]
        for victim in (rids[0], rids[5], rids[11]):
            eager.delete(victim)
        chain_is_consistent(eager)

    def test_after_reuse(self, eager):
        rids = [rid for rid, _ in eager.scan()]
        eager.delete(rids[4])
        eager.delete(rids[5])
        eager.insert([999])
        eager.insert([998])
        chain_is_consistent(eager)

    def test_after_abort(self, eager, db):
        # The maintenance hook runs on undo too: the aborted insert gives
        # its slot back to the chain, the undone delete is chained in.
        rids = [rid for rid, _ in eager.scan()]
        eager.delete(rids[2])
        txn = db.txns.begin()
        assert eager.insert([999], txn=txn) == rids[2]  # the freed slot
        eager.update(rids[5], {"v": 1}, txn=txn)
        eager.delete(rids[7], txn=txn)
        txn.abort()
        chain_is_consistent(eager)

    def test_an_undone_update_keeps_the_chain_it_finds(self, eager, db):
        rids = [rid for rid, _ in eager.scan()]
        txn = db.txns.begin()
        eager.update(rids[4], {"v": 1}, txn=txn)
        eager.delete(rids[3])  # autocommitted: rids[4] now follows rids[2]
        txn.abort()
        # The before-image's PrevAddr names the freed slot; the stored one
        # stays, and the undo is stamped like any rewrite.
        assert eager.annotations(rids[4]) == (rids[2], db.clock.read())
        assert eager.read(rids[4]).values == (40,)
        chain_is_consistent(eager)

    def test_randomized(self, db):
        rng = random.Random(4)
        table = db.create_table("r", [("v", "int")], annotations="eager")
        live = []
        for _ in range(300):
            roll = rng.random()
            if live and roll < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                table.delete(victim)
            elif live and roll < 0.6:
                target = live[rng.randrange(len(live))]
                table.update(target, {"v": rng.randrange(100)})
            else:
                live.append(table.insert([rng.randrange(100)]))
        chain_is_consistent(table)


class TestEagerRefresh:
    def run_refresh(self, table, snapshot, snap_time, restriction, projection):
        messages = []

        def deliver(message):
            messages.append(message)
            snapshot.apply(message)

        result = base_refresh(table, snap_time, restriction, projection, deliver)
        return result, messages

    def test_converges_over_rounds(self, db):
        rng = random.Random(6)
        table = db.create_table("t", [("v", "int")], annotations="eager")
        live = [table.insert([rng.randrange(100)]) for _ in range(25)]
        restriction = Restriction.parse("v < 50", table.schema)
        projection = Projection(table.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        snap_time = 0
        for _ in range(6):
            result, _ = self.run_refresh(
                table, snapshot, snap_time, restriction, projection
            )
            snap_time = result.new_snap_time
            truth = {
                rid: row.values
                for rid, row in table.scan(visible=True)
                if row.values[0] < 50
            }
            assert snapshot.as_map() == truth
            for _ in range(8):
                roll = rng.random()
                if live and roll < 0.35:
                    table.delete(live.pop(rng.randrange(len(live))))
                elif live and roll < 0.7:
                    table.update(
                        live[rng.randrange(len(live))],
                        {"v": rng.randrange(100)},
                    )
                else:
                    live.append(table.insert([rng.randrange(100)]))

    def test_deletion_transmits_successor(self, eager, db):
        restriction = Restriction.true(eager.schema)
        projection = Projection(eager.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        result, _ = self.run_refresh(eager, snapshot, 0, restriction, projection)
        rids = [rid for rid, _ in eager.scan()]
        eager.delete(rids[3])
        result, messages = self.run_refresh(
            eager, snapshot, result.new_snap_time, restriction, projection
        )
        # The successor carries the deletion news (its TimeStamp was
        # stamped by the eager delete), costing exactly one entry.
        assert result.entries_sent == 1
        assert len(snapshot) == 11

    def test_no_fixup_writes_ever(self, eager):
        restriction = Restriction.true(eager.schema)
        projection = Projection(eager.schema)
        result = base_refresh(
            eager, 0, restriction, projection, lambda m: None
        )
        assert result.fixup_writes == 0
