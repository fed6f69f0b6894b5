"""File-backed storage and memory-pressure scenarios.

The engine's page discipline must hold when pages actually round-trip
through a file and when the buffer pool is far smaller than the table —
the regimes a 1986 base table lived in.
"""

import pytest

from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.storage.pager import FilePager


class TestFileBackedDatabase:
    def test_full_pipeline_on_disk(self, tmp_path):
        pager = FilePager(str(tmp_path / "base.pages"), page_size=1024)
        db = Database("disk", pager=pager, buffer_capacity=4)
        table = db.create_table("t", [("v", "int")], annotations="lazy")
        rids = table.bulk_load([[i] for i in range(300)])
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "t", where="v < 150", method="differential"
        )
        table.update(rids[0], {"v": 1})
        table.delete(rids[1])
        table.insert([2])
        result = snap.refresh()
        truth = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[0] < 150
        }
        assert snap.as_map() == truth
        db.pool.flush_all()
        pager.close()

    def test_contents_survive_reopen(self, tmp_path):
        path = str(tmp_path / "base.pages")
        pager = FilePager(path, page_size=1024)
        db = Database("disk", pager=pager, buffer_capacity=4)
        table = db.create_table("t", [("v", "int")])
        table.bulk_load([[i] for i in range(100)])
        heap_pages = list(table.heap._pages)
        db.pool.flush_all()
        pager.close()

        # Reopen the file and rebuild a heap view over the same pages.
        from repro.storage.buffer import BufferPool
        from repro.storage.heap import HeapFile
        from repro.relation.row import decode_row
        from repro.relation.schema import Schema

        reopened = FilePager(path, page_size=1024)
        pool = BufferPool(reopened, capacity=4)
        heap = HeapFile(pool, name="t")
        heap.adopt(heap_pages)
        assert heap.record_count == 100
        schema = Schema.of(("v", "int"))
        values = [decode_row(schema, body).values[0] for _, body in heap.scan()]
        assert values == list(range(100))
        reopened.close()

    def test_reopened_heap_places_first_fit(self, tmp_path):
        from repro.storage.buffer import BufferPool
        from repro.storage.heap import HeapFile

        path = str(tmp_path / "base.pages")
        pager = FilePager(path, page_size=1024)
        pool = BufferPool(pager, capacity=4)
        heap = HeapFile(pool, name="t")
        rids = [heap.insert(bytes([i]) * 40) for i in range(100)]
        by_page = [[rid for rid in rids if rid.page_no == p] for p in range(5)]
        assert heap.page_count == 5 and heap.free_map[1] == heap.free_map[3] == 0
        # Room for one record on page 1, for one on page 3, and for many
        # at the end: each insert takes the lowest page with room.
        for rid in by_page[1][5:7] + by_page[3][:2]:
            heap.delete(rid)
        heap_pages = heap.physical_pages()
        pool.flush_all()
        pager.close()

        reopened = FilePager(path, page_size=1024)
        heap = HeapFile(BufferPool(reopened, capacity=4), name="t")
        heap.adopt(heap_pages)
        assert heap.record_count == 96
        placed = [heap.insert(b"n" * 40) for _ in range(3)]
        assert placed[:2] == [by_page[1][5], by_page[3][0]]
        assert placed[2].page_no == 4
        assert heap.page_count == 5
        reopened.close()


class TestBufferPressure:
    def test_refresh_with_tiny_pool(self):
        # 3 frames against a ~20-page table: constant eviction.
        db = Database("tiny", buffer_capacity=3)
        table = db.create_table("t", [("v", "int")], annotations="lazy")
        rids = table.bulk_load([[i] for i in range(2000)])
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "t", where="v < 1000", method="differential"
        )
        for rid in rids[::7]:
            table.update(rid, {"v": 5})
        snap.refresh()
        truth = {
            rid: row.values
            for rid, row in table.scan(visible=True)
            if row.values[0] < 1000
        }
        assert snap.as_map() == truth
        assert db.pool.stats.evictions > 0
        assert db.pool.stats.writebacks > 0

    def test_eager_table_under_pressure(self):
        db = Database("tiny", buffer_capacity=3)
        table = db.create_table("t", [("v", "int")], annotations="eager")
        rids = [table.insert([i]) for i in range(500)]
        for rid in rids[::5]:
            table.delete(rid)
        # Chain invariant must hold despite constant eviction.
        from repro.storage.rid import Rid

        previous = Rid.BEGIN
        for rid, _ in table.scan():
            prev, _ = table.annotations(rid)
            assert prev == previous
            previous = rid
