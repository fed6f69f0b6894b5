"""The central correctness property of the reproduction.

After ANY sequence of inserts, updates, and deletes — interleaved with
refreshes at arbitrary points — a differential refresh must leave the
snapshot exactly equal to re-evaluating the snapshot query over the base
table.  This is the property the paper's algorithm has to guarantee and
the one every representation trick (PrevAddr chains, NULL annotations,
slot reuse) could silently break.

The same machine checks the eager variant, the optimized variants, and
the ideal/full baselines.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.differential import DifferentialRefresher
from repro.core.full import FullRefresher
from repro.core.ideal import IdealRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

# An operation script: each element is (op, index, value) where index
# picks a live row (modulo the live count) and value is the new payload.
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "refresh"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=60,
)


def run_script(script, mode, cutoff=50, **refresher_flags):
    db = Database("prop")
    table = db.create_table("t", [("v", "int")], annotations=mode)
    restriction = Restriction.parse(f"v < {cutoff}", table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
    refresher = DifferentialRefresher(table, **refresher_flags)
    snap_time = 0
    live = []
    # A modest starting population so scripts have something to chew on.
    for value in (5, 15, 25, 35, 45, 55, 65, 75, 85, 95):
        live.append(table.insert([value]))

    def refresh():
        nonlocal snap_time

        def deliver(message):
            snapshot.apply(message)

        result = refresher.refresh(
            snap_time, restriction, projection, deliver
        )
        snap_time = result.new_snap_time

    for op, index, value in script:
        if op == "insert":
            live.append(table.insert([value]))
        elif op == "update" and live:
            target = live[index % len(live)]
            table.update(target, {"v": value})
        elif op == "delete" and live:
            target = live.pop(index % len(live))
            table.delete(target)
        elif op == "refresh":
            refresh()
    refresh()
    truth = {
        rid: row.values
        for rid, row in table.scan(visible=True)
        if row.values[0] < cutoff
    }
    assert snapshot.as_map() == truth


class TestDifferentialInvariant:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_lazy_mode(self, script):
        run_script(script, "lazy")

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_eager_mode(self, script):
        run_script(script, "eager")

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_optimized_variants(self, script):
        run_script(script, "lazy", optimize_deletes=True)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations, cutoff=st.sampled_from([0, 1, 50, 99, 100]))
    def test_extreme_selectivities(self, script, cutoff):
        run_script(script, "lazy", cutoff=cutoff)


class TestBaselineInvariant:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_ideal_refresher(self, script):
        db = Database("prop")
        table = db.create_table("t", [("v", "int")])
        restriction = Restriction.parse("v < 50", table.schema)
        projection = Projection(table.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        refresher = IdealRefresher(table)
        live = [table.insert([v]) for v in (10, 60, 30)]
        for op, index, value in script:
            if op == "insert":
                live.append(table.insert([value]))
            elif op == "update" and live:
                table.update(live[index % len(live)], {"v": value})
            elif op == "delete" and live:
                table.delete(live.pop(index % len(live)))
            elif op == "refresh":
                refresher.refresh(0, restriction, projection, snapshot.apply)
        refresher.refresh(0, restriction, projection, snapshot.apply)
        truth = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[0] < 50
        }
        assert snapshot.as_map() == truth

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_full_refresher(self, script):
        db = Database("prop")
        table = db.create_table("t", [("v", "int")])
        restriction = Restriction.parse("v < 50", table.schema)
        projection = Projection(table.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        live = [table.insert([v]) for v in (10, 60)]
        for op, index, value in script:
            if op == "insert":
                live.append(table.insert([value]))
            elif op == "update" and live:
                table.update(live[index % len(live)], {"v": value})
            elif op == "delete" and live:
                table.delete(live.pop(index % len(live)))
        FullRefresher(table).refresh(0, restriction, projection, snapshot.apply)
        truth = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[0] < 50
        }
        assert snapshot.as_map() == truth


class TestTrafficBounds:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(script=operations)
    def test_differential_never_resends_quiet_state(self, script):
        """Two consecutive refreshes: the second sends zero entries."""
        db = Database("prop")
        table = db.create_table("t", [("v", "int")], annotations="lazy")
        restriction = Restriction.parse("v < 50", table.schema)
        projection = Projection(table.schema)
        refresher = DifferentialRefresher(table)
        live = [table.insert([v]) for v in (10, 60, 30)]
        for op, index, value in script:
            if op == "insert":
                live.append(table.insert([value]))
            elif op == "update" and live:
                table.update(live[index % len(live)], {"v": value})
            elif op == "delete" and live:
                table.delete(live.pop(index % len(live)))
        first = refresher.refresh(
            0, restriction, projection, lambda m: None
        )
        second = refresher.refresh(
            first.new_snap_time, restriction, projection, lambda m: None
        )
        assert second.entries_sent == 0
        assert second.fixup_writes == 0
