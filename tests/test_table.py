"""Table facade: schema views, annotation modes, operations."""

import pytest

from repro.errors import CatalogError, SchemaError
from repro.relation.row import Row, decode_row
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.table import PREVADDR, TIMESTAMP
from repro.txn.wal import LogRecordType


@pytest.fixture
def plain(db):
    table = db.create_table("t", [("name", "string"), ("v", "int")])
    table.bulk_load([[f"r{i}", i] for i in range(10)])
    return table


@pytest.fixture
def lazy(db):
    table = db.create_table(
        "lazy_t", [("name", "string"), ("v", "int")], annotations="lazy"
    )
    table.bulk_load([[f"r{i}", i] for i in range(10)])
    return table


@pytest.fixture
def eager(db):
    table = db.create_table(
        "eager_t", [("name", "string"), ("v", "int")], annotations="eager"
    )
    for i in range(10):
        table.insert([f"r{i}", i])
    return table


class TestSchemaViews:
    def test_plain_table_has_no_hidden_columns(self, plain):
        assert plain.schema == plain.visible_schema
        assert not plain.has_annotations

    def test_annotated_schema_hides_extras(self, lazy):
        assert lazy.visible_schema.names == ("name", "v")
        assert PREVADDR in lazy.schema
        assert TIMESTAMP in lazy.schema

    def test_visible_schema_is_built_where_the_schema_is_set(self, plain):
        visible = plain.visible_schema
        assert plain.visible_schema is visible  # not rebuilt per access
        plain.enable_annotations("lazy")
        assert plain.visible_schema is not visible
        assert plain.visible_schema is plain.visible_schema
        assert plain.visible_schema == plain.schema.visible() == visible

    def test_reserved_names_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table("bad", [(PREVADDR, "int")])

    def test_read_strips_hidden_by_default(self, lazy):
        rid = next(lazy.scan_rids()) if hasattr(lazy, "scan_rids") else next(
            r for r, _ in lazy.scan()
        )
        assert len(lazy.read(rid)) == 2
        assert len(lazy.read(rid, visible=False)) == 4


class TestEnableAnnotations:
    def test_enable_on_existing_rows(self, plain):
        plain.enable_annotations("lazy")
        for rid, _ in plain.scan():
            prev, ts = plain.annotations(rid)
            assert prev is NULL and ts is NULL

    def test_contents_preserved(self, plain):
        before = {row.values for _, row in plain.scan()}
        plain.enable_annotations("lazy")
        assert {row.values for _, row in plain.scan()} == before

    def test_idempotent_same_mode(self, lazy):
        lazy.enable_annotations("lazy")  # no-op

    def test_mode_switch_rejected(self, lazy):
        with pytest.raises(CatalogError):
            lazy.enable_annotations("eager")

    def test_unknown_mode_rejected(self, plain):
        with pytest.raises(CatalogError):
            plain.enable_annotations("sometimes")

    def test_annotations_on_plain_table_raise(self, plain):
        rid = next(r for r, _ in plain.scan())
        with pytest.raises(CatalogError):
            plain.annotations(rid)

    def test_enable_on_packed_pages_relocates_safely(self, db):
        table = db.create_table("packed", [("pad", "string")])
        table.bulk_load([["x" * 120] for _ in range(200)])
        table.enable_annotations("lazy")
        assert table.row_count == 200
        assert all(len(row) == 1 for _, row in table.scan())


class TestLazyOperations:
    def test_insert_leaves_nulls(self, lazy):
        rid = lazy.insert(["new", 99])
        prev, ts = lazy.annotations(rid)
        assert prev is NULL and ts is NULL

    def test_update_nulls_timestamp_only(self, lazy):
        rid = next(r for r, _ in lazy.scan())
        lazy.set_annotations(rid, prev=Rid.BEGIN, ts=42)
        lazy.update(rid, {"v": 1000})
        prev, ts = lazy.annotations(rid)
        assert prev == Rid.BEGIN  # untouched
        assert ts is NULL

    def test_delete_just_deletes(self, lazy):
        rids = [r for r, _ in lazy.scan()]
        lazy.delete(rids[3])
        assert not lazy.exists(rids[3])
        # No other row was touched.
        for rid in rids:
            if rid != rids[3]:
                prev, ts = lazy.annotations(rid)
                assert prev is NULL and ts is NULL

    def test_delete_decodes_nothing_when_no_index_listens(self, lazy, monkeypatch):
        decodes = []  # every decode the table asks for, plan or walk
        monkeypatch.setattr(
            "repro.table.decode_row",
            lambda schema, data: decodes.append(data) or decode_row(schema, data),
        )
        rids = [r for r, _ in lazy.scan()]
        del decodes[:]
        lazy.delete(rids[3])
        assert decodes == []

        class Listener:
            column = "v"
            deleted = []

            def on_delete(self, rid, values):
                self.deleted.append((rid, values))

        lazy.attach_index(Listener())
        lazy.delete(rids[4])
        assert Listener.deleted == [(rids[4], ("r4", 4, NULL, NULL))]
        assert len(decodes) == 1

    def test_update_hidden_column_rejected(self, lazy):
        rid = next(r for r, _ in lazy.scan())
        with pytest.raises(SchemaError):
            lazy.update(rid, {TIMESTAMP: 5})

    def test_stats_counters(self, lazy):
        base = lazy.stats.modifications
        rid = lazy.insert(["a", 1])
        lazy.update(rid, {"v": 2})
        lazy.delete(rid)
        assert lazy.stats.modifications == base + 3


class TestEagerOperations:
    def test_chain_after_bootstrap(self, eager):
        rids = [r for r, _ in eager.scan()]
        prev, _ = eager.annotations(rids[0])
        assert prev == Rid.BEGIN
        for left, right in zip(rids, rids[1:]):
            prev, _ = eager.annotations(right)
            assert prev == left

    def test_delete_updates_successor(self, eager):
        rids = [r for r, _ in eager.scan()]
        _, ts_before = eager.annotations(rids[4])
        eager.delete(rids[3])
        prev, ts = eager.annotations(rids[4])
        assert prev == rids[2]
        assert ts > ts_before

    def test_delete_last_touches_nothing(self, eager):
        rids = [r for r, _ in eager.scan()]
        annotations = {r: eager.annotations(r) for r in rids[:-1]}
        eager.delete(rids[-1])
        assert {r: eager.annotations(r) for r in rids[:-1]} == annotations

    def test_insert_reuses_address_and_relinks(self, eager):
        rids = [r for r, _ in eager.scan()]
        eager.delete(rids[3])
        new = eager.insert(["reborn", 1])
        assert new == rids[3]  # first-fit reuse
        prev_new, ts_new = eager.annotations(new)
        assert prev_new == rids[2]
        assert ts_new > 0
        prev_next, _ = eager.annotations(rids[4])
        assert prev_next == new

    def test_insert_at_end_links_to_predecessor(self, eager):
        rids = [r for r, _ in eager.scan()]
        new = eager.insert(["tail", 1])
        if new > rids[-1]:
            prev, _ = eager.annotations(new)
            assert prev == rids[-1]

    def test_update_stamps_time(self, eager):
        rids = [r for r, _ in eager.scan()]
        _, before = eager.annotations(rids[0])
        eager.update(rids[0], {"v": 77})
        _, after = eager.annotations(rids[0])
        assert after > before

    def test_bulk_load_rejected(self, eager):
        with pytest.raises(CatalogError):
            eager.bulk_load([["x", 1]])


class TestOnePinUpdate:
    """``Table.update`` reads, decides and writes under one pin of the
    record's page, and validates before it writes."""

    def test_an_update_is_one_page_access(self, db, lazy):
        rid = next(r for r, _ in lazy.scan())
        stats = db.pool.stats
        accesses = stats.hits + stats.misses
        lazy.update(rid, {"v": 1000})
        assert stats.hits + stats.misses == accesses + 1

    def test_the_log_holds_the_stored_bytes_before_and_after(self, db, lazy):
        rid = [r for r, _ in lazy.scan()][2]
        lazy.set_annotations(rid, prev=Rid(0, 1), ts=42)
        before = lazy.heap.read(rid)
        mark = db.wal.next_lsn
        assert lazy.update(rid, {"v": 1000, "name": "renamed"}) == rid
        after = lazy.heap.read(rid)
        (record,) = [r for r in db.wal.scan(mark) if r.is_data()]
        assert (record.rtype, record.rid) == (LogRecordType.UPDATE, rid)
        assert (record.before, record.after) == (before, after)
        assert decode_row(lazy.schema, after) == Row(
            ("renamed", 1000, Rid(0, 1), NULL)
        )

    def test_a_rejected_update_writes_nothing(self, db, lazy):
        rid = next(r for r, _ in lazy.scan())
        db.pool.flush_all()
        summary = lazy.heap.summaries.get(rid.page_no)
        state = lambda: (  # noqa: E731
            lazy.heap.read(rid),
            summary.page_version,
            lazy.heap.writes.total,
            sum(r.is_data() for r in db.wal.scan()),
            lazy.stats.updates,
        )
        before = state()
        with pytest.raises(SchemaError):
            lazy.update(rid, {"v": True})  # bool for int
        assert state() == before
        writebacks = db.pool.stats.writebacks
        db.pool.flush_all()  # the frame was released clean
        assert db.pool.stats.writebacks == writebacks

    def test_abort_restores_the_before_image(self, db, lazy):
        rid = next(r for r, _ in lazy.scan())
        lazy.set_annotations(rid, prev=Rid.BEGIN, ts=42)
        before = lazy.heap.read(rid)
        txn = db.txns.begin()
        lazy.update(rid, {"v": 1000}, txn=txn)
        assert lazy.heap.read(rid) != before
        txn.abort()
        assert lazy.heap.read(rid) == before

    def test_eager_mode_stamps_the_tick_it_takes(self, manual_db):
        table = manual_db.create_table(
            "eager_m", [("name", "string"), ("v", "int")], annotations="eager"
        )
        rid = table.insert(["a", 1])
        prev, _ = table.annotations(rid)
        now = manual_db.clock.read()
        table.update(rid, {"v": 2})
        assert table.annotations(rid) == (prev, now + 1)
        assert manual_db.clock.read() == now + 1


class TestRelocatingUpdate:
    def test_overflow_update_moves_row(self, db):
        table = db.create_table(
            "grow", [("pad", "string")], annotations="lazy"
        )
        rids = table.bulk_load([["x" * 1300] for _ in range(3)])
        # Growing one row by ~1400 bytes cannot fit a 4 KiB page that
        # already holds ~3.9 KiB: the update must relocate.
        new_rid = table.update(rids[1], {"pad": "y" * 2700})
        assert new_rid != rids[1]
        assert not table.exists(rids[1])
        assert table.read(new_rid).values == ("y" * 2700,)
        prev, ts = table.annotations(new_rid)
        assert prev is NULL and ts is NULL  # looks like a fresh insert

    def test_relocation_logs_a_delete_and_an_insert(self, db):
        table = db.create_table("grow2", [("pad", "string")], annotations="lazy")
        rids = table.bulk_load([["x" * 1300] for _ in range(3)])
        table.set_annotations(rids[1], prev=Rid.BEGIN, ts=7)
        before = table.heap.read(rids[1])
        mark = db.wal.next_lsn
        new_rid = table.update(rids[1], {"pad": "y" * 2700})
        data = [r for r in db.wal.scan(mark) if r.is_data()]
        assert [(r.rtype, r.rid) for r in data] == [
            (LogRecordType.DELETE, rids[1]),
            (LogRecordType.INSERT, new_rid),
        ]
        assert data[0].before == before and data[0].after is None
        assert data[1].before is None and data[1].after == table.heap.read(new_rid)
        assert table.annotations(new_rid) == (NULL, NULL)

    def test_set_annotations_unknown_field(self, db):
        table = db.create_table("t2", [("v", "int")], annotations="lazy")
        rid = table.insert([1])
        with pytest.raises(SchemaError):
            table.set_annotations(rid, bogus=1)


class TestEstimateSelectivity:
    def test_clustered_values_not_skewed(self, db):
        """Stride sampling must see past a clustered prefix.

        1000 rows where only the first 100 match: a first-`sample`-rows
        estimate (the old behaviour) would report ~0.39 with sample=256;
        sampling across the whole address range reports ~0.1.
        """
        table = db.create_table("clustered", [("v", "int")])
        table.bulk_load([[1 if i < 100 else 0] for i in range(1000)])
        estimate = table.estimate_selectivity(lambda row: row[0] == 1)
        assert abs(estimate - 0.1) < 0.05

    def test_small_table_exact(self, db):
        table = db.create_table("small", [("v", "int")])
        table.bulk_load([[i] for i in range(10)])
        assert table.estimate_selectivity(lambda row: row[0] < 5) == 0.5

    def test_empty_table(self, db):
        table = db.create_table("empty", [("v", "int")])
        assert table.estimate_selectivity(lambda row: True) == 0.0
