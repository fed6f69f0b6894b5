"""PageBatch extraction, derived facts, and reading a page into one."""

import pytest

from repro.errors import StorageError
from repro.expr.predicate import Restriction
from repro.relation.types import NULL
from repro.storage.batch import extract_page_batch
from repro.storage.rid import Rid


@pytest.fixture
def eager(db):
    table = db.create_table(
        "emp", [("id", "int"), ("sal", "int")], annotations="eager"
    )
    for i in range(40):
        table.insert([i, i % 7])
    return table


@pytest.fixture
def lazy(db):
    table = db.create_table("lz", [("v", "int")], annotations="lazy")
    for i in range(10):
        table.insert([i])
    return table


def get_batch(table, heap_page=0):
    return table.heap.fix_batch(heap_page, table.schema)


class TestExtraction:
    def test_arrays_mirror_page_entries(self, eager):
        batch = get_batch(eager)
        entries = eager.heap.page_entries(0)
        assert batch.count == len(entries)
        assert list(batch.slots) == [slot for slot, _ in entries]
        assert batch.bodies == [body for _, body in entries]
        assert batch.last_rid() == Rid(0, entries[-1][0])

    def test_annotation_columns_match_row_decode(self, eager):
        batch = get_batch(eager)
        prev_pos = eager.schema.position("$PREVADDR$")
        ts_pos = eager.schema.position("$TIMESTAMP$")
        for index in range(batch.count):
            row = batch.row(index)
            assert row.values[ts_pos] == batch.ts[index]
            prev = row.values[prev_pos]
            assert prev is not NULL
            assert prev == Rid(batch.prev_pages[index], batch.prev_slots[index])

    def test_eager_page_facts(self, eager):
        batch = get_batch(eager)
        assert not batch.has_nulls
        assert batch.chain_ok
        assert batch.first_prev == Rid.BEGIN
        assert batch.max_live_ts == max(batch.ts)

    def test_lazy_nulls_detected(self, lazy):
        batch = get_batch(lazy)
        assert batch.has_nulls

    def test_deletion_breaks_chain(self, lazy):
        # Eager tables repair the successor's PrevAddr on delete, so a
        # broken chain needs lazy annotations: fix up, then delete.
        from repro.core.fixup import base_fixup

        base_fixup(lazy)
        rids = list(lazy.heap.scan_rids())
        victim = rids[3]
        lazy.delete(victim)
        batch = get_batch(lazy, victim.page_no)
        assert not batch.has_nulls
        assert not batch.chain_ok

    def test_empty_page_batch(self, db):
        table = db.create_table("e", [("v", "int")], annotations="eager")
        rid = table.insert([1])
        table.delete(rid)
        batch = get_batch(table, 0)
        assert batch.count == 0
        assert batch.last_rid() is None
        assert batch.first_prev is None
        assert not batch.has_nulls

    def test_short_record_rejected(self, db):
        table = db.create_table("s", [("v", "int")], annotations="eager")
        table.insert([1])
        heap = table.heap
        frame = heap.pool.pin(heap._physical(0))
        try:
            with pytest.raises(StorageError):
                # Lie about the record length: too short for the
                # 16-byte annotation tail plus a bitmap byte.
                import struct

                offset, _ = struct.unpack_from("<HH", frame, 12)
                struct.pack_into("<HH", frame, 12, offset, 16)
                extract_page_batch(0, frame, table.schema)
        finally:
            heap.pool.unpin(heap._physical(0), dirty=False)


class TestDerivedCaches:
    def test_row_memoized_and_counted(self, eager):
        batch = get_batch(eager)
        assert batch.materializations == 0
        first = batch.row(5)
        again = batch.row(5)
        assert first is again
        assert batch.materializations == 1

    def test_qualifying_matches_per_row(self, eager):
        batch = get_batch(eager)
        restriction = Restriction.parse("sal < 3", eager.schema)
        qualified = list(batch.qualifying(restriction))
        expected = [
            index
            for index in range(batch.count)
            if restriction(batch.row(index))
        ]
        assert qualified == expected
        assert batch.qualifying(restriction) is batch.qualifying(restriction)

    def test_qualifying_among_evaluates_only_the_named_entries(self, eager):
        batch = get_batch(eager)
        restriction = Restriction.parse("sal < 3", eager.schema)
        asked = []

        class Counting:
            text = restriction.text

            def qualifier(self, schema):
                def counted(bodies, indices):
                    asked.append(list(indices))
                    return restriction.qualifier(schema)(bodies, indices)

                return counted

        among = [2, 3, 8, 9, 10]
        hits = batch.qualifying(Counting(), among)
        assert list(hits) == [index for index in among if index % 7 < 3]
        assert asked == [among]
        # The answer depends on the asker: not memoized, and it leaves
        # the whole-page memo alone.
        assert batch.qualifying(restriction, among) is not hits
        assert len(batch.qualifying(restriction)) > len(hits)

    def test_live_is_the_set_of_extracted_slots(self, eager):
        eager.delete(Rid(0, 4))
        batch = get_batch(eager)
        assert batch.live == frozenset(batch.slots) and 4 not in batch.live
        assert batch.live is batch.live

    def test_qualifier_rendered_once(self, eager):
        restriction = Restriction.parse("sal < 3", eager.schema)
        qualifier = restriction.qualifier(eager.schema)
        assert restriction.qualifier(eager.schema) is qualifier
        batch = get_batch(eager)
        assert list(qualifier(batch.bodies, range(batch.count))) == [
            index for index in range(batch.count) if restriction(batch.row(index))
        ]


class TestBatchCache:
    """There is none: the pool caches frames, not batches, so every read
    extracts afresh under one pin."""

    def test_every_read_takes_one_pin(self, eager):
        stats = eager.heap.pool.stats
        first = get_batch(eager)
        pins = stats.hits + stats.misses
        again = get_batch(eager)
        assert stats.hits + stats.misses == pins + 1
        assert again is not first
        assert list(again.slots) == list(first.slots)
        assert again.bodies == first.bodies

    def test_any_write_invalidates(self, eager):
        batch = get_batch(eager)
        eager.insert([99, 1])
        fresh = get_batch(eager)
        assert fresh is not batch
        assert fresh.count == batch.count + 1

    def test_eviction_bounds_cache(self, db):
        table = db.create_table("big", [("v", "int")], annotations="eager")
        for i in range(4000):
            table.insert([i])
        heap = table.heap
        assert heap.page_count > heap.pool.capacity
        for page_no in range(heap.page_count):
            heap.fix_batch(page_no, table.schema)
        assert len(heap.pool) <= heap.pool.capacity
        assert heap.pool.pinned_pages() == []

    def test_no_summaries_no_batch(self, db):
        table = db.create_table("plain", [("v", "int")])
        table.insert([1])
        assert table.heap.summaries is None
        with pytest.raises(StorageError):
            table.heap.fix_batch(0, table.schema)
