"""Cache retention on drop/truncate: abandoned pages leave the pool.

The buffer pool's frame LRU is keyed by physical page number.  A
dropped table's pages are garbage — retaining their frames squats in
the LRU, and writing them back on eviction would be wasted I/O.
Truncate is the subtler case: the pages remain owned, so their dirty
frames must survive.
"""

import pytest

from repro.core.manager import SnapshotManager
from repro.core.snapshot import STORAGE_PREFIX
from repro.database import Database
from repro.errors import BufferPoolError
from repro.storage.page import SlottedPage


@pytest.fixture
def world():
    db = Database("evict", buffer_capacity=32)
    table = db.create_table("t", [("v", "int")])
    table.bulk_load([[i] for i in range(500)])
    return db, table


def _warm(table):
    """Touch every page so its frame is cached."""
    for _ in table.scan():
        pass


class TestDropTable:
    def test_drop_discards_frames_and_batches(self, world):
        db, table = world
        _warm(table)
        pool = table.heap.pool
        pages = set(table.heap.physical_pages())
        assert any(no in pages for no in range(len(pool) + len(pages)))
        db.drop_table("t")
        for page_no in pages:
            assert page_no not in pool.pinned_pages()
        # No frame for any of the dropped pages survives.
        assert not pages & set(
            no for no in pages if pool._frames.get(no) is not None
        )

    def test_drop_does_not_write_back(self, world):
        db, table = world
        _warm(table)
        rid = next(table.heap.scan_rids())
        table.update(rid, {"v": -1})  # leaves a dirty frame
        writebacks_before = table.heap.pool.stats.writebacks
        db.drop_table("t")
        assert table.heap.pool.stats.writebacks == writebacks_before


class TestTruncate:
    def test_truncate_removes_all_rows(self, world):
        _, table = world
        removed = table.truncate()
        assert removed == 500
        assert list(table.scan()) == []

    def test_truncate_keeps_buffered_deletes(self, world):
        _, table = world
        _warm(table)
        pool = table.heap.pool
        table.truncate()
        pool.flush_all()
        pages = table.heap.physical_pages()
        assert pages
        for page_no in pages:
            assert SlottedPage(pool.pager.read_page(page_no)).live_count == 0

    def test_truncated_table_is_reusable(self, world):
        _, table = world
        table.truncate()
        table.insert([7])
        assert [row[0] for _, row in table.scan()] == [7]


class TestDropSnapshot:
    def test_drop_snapshot_drops_receiver_storage(self):
        db = Database("hq", buffer_capacity=32)
        table = db.create_table("t", [("v", "int")])
        table.bulk_load([[i] for i in range(50)])
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "t", method="differential")
        storage_name = STORAGE_PREFIX + "s"
        assert db.has_table(storage_name)
        manager.drop_snapshot("s")
        assert not db.has_table(storage_name)


class TestPinnedDiscard:
    def test_pinned_page_blocks_discard(self, world):
        db, table = world
        page_no = table.heap.physical_pages()[0]
        pool = table.heap.pool
        pool.pin(page_no)
        with pytest.raises(BufferPoolError):
            db.drop_table("t")
        pool.unpin(page_no)
