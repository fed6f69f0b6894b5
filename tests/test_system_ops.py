"""Table system operations (the R* "special runtime routines")."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.relation.types import NULL


@pytest.fixture
def table(db):
    t = db.create_table("t", [("v", "int")], annotations="lazy")
    t.bulk_load([[i] for i in range(5)])
    return t


class TestSystemInsert:
    def test_sets_lazy_annotations_null(self, table):
        rid = table.system_insert_values([42])
        assert table.annotations(rid) == (NULL, NULL)
        assert table.read(rid).values == (42,)

    def test_no_wal_records(self, db, table):
        before = len(db.wal)
        table.system_insert_values([1])
        assert len(db.wal) == before

    def test_hidden_columns_settable(self, db):
        from repro.core.snapshot import BASEADDR
        from repro.relation.schema import Column, Schema
        from repro.relation.types import RidType
        from repro.storage.rid import Rid

        schema = Schema.of(("v", "int")).with_columns(
            [Column(BASEADDR, RidType(), hidden=True)]
        )
        t = db.create_table("hid", schema, annotations="lazy")
        rid = t.system_insert_values([1, Rid(3, 7)])
        full = t.read(rid, visible=False)
        assert full.get(t.schema, BASEADDR) == Rid(3, 7)

    def test_rejected_on_eager(self, db):
        t = db.create_table("e", [("v", "int")], annotations="eager")
        with pytest.raises(CatalogError):
            t.system_insert_values([1])


class TestSystemUpdate:
    def test_nulls_timestamp(self, db, table):
        rid = next(r for r, _ in table.scan())
        table.set_annotations(rid, prev=None or NULL, ts=5)
        table.system_update_values(rid, [99])
        _, ts = table.annotations(rid)
        assert ts is NULL

    def test_unchanged_values_write_nothing(self, table):
        rid = next(r for r, _ in table.scan())
        table.set_annotations(rid, prev=NULL, ts=5)
        before = table.heap.read(rid)
        updates = table.stats.updates
        assert table.system_update_values(rid, table.read(rid).values) is None
        assert table.heap.read(rid) == before  # TimeStamp 5 still there
        assert table.stats.updates == updates

    def test_one_pin_and_a_noop_leaves_the_frame_clean(self, table):
        rid = next(r for r, _ in table.scan())
        pool = table.heap.pool
        summary = table.heap.summaries.get(rid.page_no)
        pool.flush_all()
        before, version = table.heap.read(rid), summary.page_version
        pins, writebacks = pool.stats.hits + pool.stats.misses, pool.stats.writebacks
        assert table.system_update_values(rid, table.read(rid).values) is None
        assert pool.stats.hits + pool.stats.misses == pins + 2  # ours + table.read's
        pool.flush_all()
        assert pool.stats.writebacks == writebacks
        assert summary.page_version == version
        assert table.system_update_values(rid, [77]) == rid
        assert pool.stats.hits + pool.stats.misses == pins + 3
        assert summary.page_version == version + 1
        assert table.heap.read(rid) != before

    def test_positional_form_names_every_stored_column(self, table):
        rid = next(r for r, _ in table.scan())
        assert table.system_update_values(rid, [41]) == rid
        assert table.system_update_values(rid, [41]) is None
        assert table.system_update_values(rid, [42], [0]) == rid
        assert table.read(rid).values == (42,)
        with pytest.raises(SchemaError):
            table.system_update_values(rid, [1, 2])  # arity is still checked
        assert table.read(rid).values == (42,)

    def test_keeps_the_stored_prevaddr(self, table):
        first, second = [r for r, _ in table.scan()][:2]
        table.set_annotations(second, prev=first, ts=5)
        assert table.system_update_values(second, [99]) == second
        assert table.annotations(second) == (first, NULL)

    def test_rejected_on_eager(self, db):
        t = db.create_table("e", [("v", "int")], annotations="eager")
        rid = t.insert([1])
        with pytest.raises(CatalogError):
            t.system_update_values(rid, [2])

    def test_rejects_annotation_fields(self, table):
        # The values name every column but the annotations, which the lazy
        # rule owns: a value for one of them is one value too many.
        rid = next(r for r, _ in table.scan())
        before = table.heap.read(rid)
        with pytest.raises(SchemaError):
            table.system_update_values(rid, [7, NULL])
        with pytest.raises(SchemaError):
            table.system_update_values(rid, [7, NULL, 7])
        assert table.heap.read(rid) == before

    def test_relocation_on_overflow(self, db):
        t = db.create_table("grow", [("pad", "string")], annotations="lazy")
        rids = t.bulk_load([["x" * 1300] for _ in range(3)])
        new_rid = t.system_update_values(rids[1], ["y" * 2700])
        assert new_rid != rids[1]
        assert t.read(new_rid).values == ("y" * 2700,)
        assert t.annotations(new_rid) == (NULL, NULL)


class TestSystemDelete:
    def test_plain_delete(self, db, table):
        rid = next(r for r, _ in table.scan())
        before = len(db.wal)
        table.system_delete(rid)
        assert not table.exists(rid)
        assert len(db.wal) == before

    def test_stats_counted(self, table):
        rid = table.system_insert_values([1])
        base = table.stats.modifications
        table.system_update_values(rid, [2])
        table.system_delete(rid)
        assert table.stats.modifications == base + 2
