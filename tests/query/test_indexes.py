"""Secondary indexes: maintenance across every mutation path."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.query.indexes import SecondaryIndex
from repro.relation.types import NULL


@pytest.fixture
def table(db):
    t = db.create_table(
        "t", [("name", "string"), ("v", "int", True)], annotations="lazy"
    )
    t.bulk_load([[f"r{i}", i] for i in range(20)])
    return t


@pytest.fixture
def index(table):
    return SecondaryIndex(table, "v")


class TestBuild:
    def test_initial_build(self, table, index):
        assert len(index) == 20
        index.check_consistency()

    def test_unknown_column(self, table):
        with pytest.raises(SchemaError):
            SecondaryIndex(table, "ghost")

    def test_annotation_column_rejected(self, table):
        with pytest.raises(CatalogError):
            SecondaryIndex(table, "$TIMESTAMP$")

    def test_nulls_not_indexed(self, db):
        t = db.create_table("n", [("v", "int", True)])
        t.bulk_load([[1], [NULL], [3]])
        index = SecondaryIndex(t, "v")
        assert len(index) == 2
        index.check_consistency()


class TestMaintenance:
    def test_insert(self, table, index):
        table.insert(["new", 100])
        index.check_consistency()
        assert len(index) == 21

    def test_update_in_place(self, table, index):
        rid = next(r for r, _ in table.scan())
        table.update(rid, {"v": 999})
        index.check_consistency()
        assert index.lookup_eq(999) == [rid]

    def test_update_to_null(self, table, index):
        rid = next(r for r, _ in table.scan())
        table.update(rid, {"v": NULL})
        index.check_consistency()
        assert len(index) == 19

    def test_delete(self, table, index):
        rid = next(r for r, _ in table.scan())
        table.delete(rid)
        index.check_consistency()
        assert len(index) == 19

    def test_abort_restores_index(self, db, table, index):
        rids = [r for r, _ in table.scan()]
        txn = db.txns.begin()
        table.insert(["tmp", 500], txn=txn)
        table.update(rids[0], {"v": 777}, txn=txn)
        table.delete(rids[1], txn=txn)
        txn.abort()
        index.check_consistency()
        assert len(index) == 20
        assert index.lookup_eq(777) == []

    def test_system_ops(self, db):
        t = db.create_table("s", [("v", "int")], annotations="lazy")
        index = SecondaryIndex(t, "v")
        rid = t.system_insert_values([5])
        index.check_consistency()
        t.system_update_values(rid, [6])
        index.check_consistency()
        t.system_delete(rid)
        index.check_consistency()
        assert len(index) == 0

    def test_snapshot_receiver_maintains_indexes(self, db, table):
        from repro.core.manager import SnapshotManager

        manager = SnapshotManager(db)
        snapshot = manager.create_snapshot(
            "low", "t", where="v < 10", method="differential"
        )
        snap_index = SecondaryIndex(snapshot.table.storage, "v")
        rids = [r for r, _ in table.scan()]
        table.update(rids[0], {"v": 3})
        table.delete(rids[1])
        table.insert(["fresh", 2])
        snapshot.refresh()
        snap_index.check_consistency()

    def test_enable_annotations_rebuilds(self, db):
        t = db.create_table("late", [("pad", "string")])
        t.bulk_load([["x" * 120] for _ in range(200)])
        index = SecondaryIndex(t, "pad")
        t.enable_annotations("lazy")  # relocates rows on packed pages
        index.check_consistency()

    def test_duplicates(self, db):
        t = db.create_table("dup", [("v", "int")])
        rids = t.bulk_load([[7], [7], [7]])
        index = SecondaryIndex(t, "v")
        assert index.lookup_eq(7) == rids
        t.delete(rids[1])
        index.check_consistency()
        assert index.lookup_eq(7) == [rids[0], rids[2]]


class TestLookups:
    def test_lookup_eq_missing(self, table, index):
        assert index.lookup_eq(12345) == []
        assert index.lookup_eq(NULL) == []

    def test_range_half_open(self, table, index):
        values = sorted(
            table.read(rid).values[1] for rid in index.lookup_range(5, 10)
        )
        assert values == [5, 6, 7, 8, 9]

    def test_range_inclusive(self, table, index):
        rids = list(index.lookup_range(5, 10, include_hi=True))
        assert len(rids) == 6

    def test_range_open_ended(self, table, index):
        assert len(list(index.lookup_range(lo=15))) == 5
        assert len(list(index.lookup_range(hi=5))) == 5

    def test_min_max(self, table, index):
        assert index.min_value() == 0
        assert index.max_value() == 19

    def test_min_max_empty(self, db):
        t = db.create_table("e", [("v", "int")])
        index = SecondaryIndex(t, "v")
        assert index.min_value() is None
        assert index.max_value() is None


class TestPlannerIntegration:
    def test_index_scan_chosen(self, db, table, index):
        from repro.query import parse_select, plan_select

        plan = plan_select(db, parse_select("SELECT name FROM t WHERE v < 5"))
        assert "IndexScan" in plan.explain()

    def test_no_index_means_seq_scan(self, db, table):
        from repro.query import parse_select, plan_select

        plan = plan_select(db, parse_select("SELECT name FROM t WHERE v < 5"))
        assert "SeqScan" in plan.explain()

    def test_index_and_seq_agree(self, db, table, index):
        with_index = db.query("SELECT name FROM t WHERE v >= 7 AND v < 12")
        table.detach_index(index)
        without = db.query("SELECT name FROM t WHERE v >= 7 AND v < 12")
        assert sorted(r[0] for r in with_index) == sorted(r[0] for r in without)

    def test_reversed_comparison_sargable(self, db, table, index):
        from repro.query import parse_select, plan_select

        plan = plan_select(db, parse_select("SELECT name FROM t WHERE 5 > v"))
        assert "IndexScan" in plan.explain()

    def test_full_refresh_uses_index(self, db, table, index):
        from repro.core.full import FullRefresher
        from repro.expr.predicate import Projection, Restriction

        restriction = Restriction.parse("v < 5", table.schema)
        projection = Projection(table.schema)
        refresher = FullRefresher(table)
        result = refresher.refresh(0, restriction, projection, lambda m: None)
        assert refresher.last_access_path is index
        assert result.scanned == 5  # only the index range, not all 20
        assert result.entries_sent == 5

    def test_full_refresh_without_index_scans_all(self, db, table):
        from repro.core.full import FullRefresher
        from repro.expr.predicate import Projection, Restriction

        restriction = Restriction.parse("v < 5", table.schema)
        projection = Projection(table.schema)
        refresher = FullRefresher(table)
        result = refresher.refresh(0, restriction, projection, lambda m: None)
        assert refresher.last_access_path is None
        assert result.scanned == 20
