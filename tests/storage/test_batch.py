"""PageBatch extraction, derived facts, and the buffer-pool batch cache."""

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
    result = table.heap.fix_batch(heap_page, table.schema)
    assert result is not None
    return result


class TestExtraction:
    def test_arrays_mirror_page_entries(self, eager):
        batch, reused = get_batch(eager)
        assert not reused
        entries = eager.heap.page_entries(0)
        assert batch.count == len(entries)
        assert list(batch.slots) == [slot for slot, _ in entries]
        assert batch.bodies == [body for _, body in entries]
        assert batch.last_rid() == Rid(0, entries[-1][0])

    def test_annotation_columns_match_row_decode(self, eager):
        batch, _ = get_batch(eager)
        prev_pos = eager.schema.position("$PREVADDR$")
        ts_pos = eager.schema.position("$TIMESTAMP$")
        for index in range(batch.count):
            row = batch.row(index)
            assert row.values[ts_pos] == batch.ts[index]
            prev = row.values[prev_pos]
            assert prev is not NULL
            assert prev == Rid(batch.prev_pages[index], batch.prev_slots[index])

    def test_eager_page_facts(self, eager):
        batch, _ = get_batch(eager)
        assert not batch.has_nulls
        assert batch.chain_ok
        assert batch.first_prev == Rid.BEGIN
        assert batch.max_live_ts == max(batch.ts)

    def test_lazy_nulls_detected(self, lazy):
        batch, _ = get_batch(lazy)
        assert batch.has_nulls

    def test_deletion_breaks_chain(self, lazy):
        # Eager tables repair the successor's PrevAddr on delete, so a
        # broken chain needs lazy annotations: fix up, then delete.
        from repro.core.fixup import base_fixup

        base_fixup(lazy)
        rids = list(lazy.heap.scan_rids())
        victim = rids[3]
        lazy.delete(victim)
        batch, _ = get_batch(lazy, victim.page_no)
        assert not batch.has_nulls
        assert not batch.chain_ok

    def test_empty_page_batch(self, db):
        table = db.create_table("e", [("v", "int")], annotations="eager")
        rid = table.insert([1])
        table.delete(rid)
        batch, _ = get_batch(table, 0)
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
                extract_page_batch(0, frame, table.schema, 1)
        finally:
            heap.pool.unpin(heap._physical(0), dirty=False)


class TestDerivedCaches:
    def test_row_memoized_and_counted(self, eager):
        batch, _ = get_batch(eager)
        assert batch.materializations == 0
        first = batch.row(5)
        again = batch.row(5)
        assert first is again
        assert batch.materializations == 1

    def test_qualifying_matches_per_row(self, eager):
        batch, _ = get_batch(eager)
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
        batch, _ = get_batch(eager)
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
        batch, _ = get_batch(eager)
        assert batch.live == frozenset(batch.slots) and 4 not in batch.live
        assert batch.live is batch.live

    def test_qualifier_rendered_once(self, eager):
        restriction = Restriction.parse("sal < 3", eager.schema)
        qualifier = restriction.qualifier(eager.schema)
        assert restriction.qualifier(eager.schema) is qualifier
        batch, _ = get_batch(eager)
        assert list(qualifier(batch.bodies, range(batch.count))) == [
            index for index in range(batch.count) if restriction(batch.row(index))
        ]


class TestBatchCache:
    def test_hit_takes_no_pin(self, eager):
        heap = eager.heap
        get_batch(eager)
        stats = heap.pool.stats
        hits, misses = stats.hits, stats.misses
        batch_hits = stats.batch_hits
        batch, reused = get_batch(eager)
        assert reused
        assert stats.batch_hits == batch_hits + 1
        assert (stats.hits, stats.misses) == (hits, misses)

    def test_any_write_invalidates(self, eager):
        batch, _ = get_batch(eager)
        eager.insert([99, 1])
        fresh, reused = get_batch(eager)
        assert not reused
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
        assert len(heap.pool._batches) <= heap.pool.capacity

    def test_no_summaries_no_batch(self, db):
        table = db.create_table("plain", [("v", "int")])
        table.insert([1])
        assert table.heap.summaries is None
        assert table.heap.fix_batch(0, table.schema) is None
