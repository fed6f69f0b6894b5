"""Heap files: placement policy, ordered scans, address reuse."""

import pytest

from repro.errors import PageFullError, RecordNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pager import InMemoryPager


@pytest.fixture
def heap():
    pool = BufferPool(InMemoryPager(page_size=256), capacity=8)
    return HeapFile(pool, name="t")


class TestInsertRead:
    def test_roundtrip(self, heap):
        rid = heap.insert(b"record")
        assert heap.read(rid) == b"record"
        assert heap.exists(rid)
        assert heap.record_count == 1

    def test_grows_pages(self, heap):
        for i in range(50):
            heap.insert(bytes([i]) * 40)
        assert heap.page_count > 1
        assert heap.record_count == 50

    def test_read_missing_raises(self, heap):
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_unknown_policy_rejected(self, heap):
        with pytest.raises(StorageError):
            HeapFile(heap._pool, insert_policy="random")


class TestPlacement:
    def test_first_fit_reuses_lowest_address(self, heap):
        rids = [heap.insert(bytes([i]) * 30) for i in range(20)]
        heap.delete(rids[2])
        heap.delete(rids[10])
        reused = heap.insert(b"z" * 30)
        assert reused == rids[2]  # lowest freed address wins

    def test_append_policy_goes_to_end(self):
        pool = BufferPool(InMemoryPager(page_size=256), capacity=8)
        heap = HeapFile(pool, insert_policy="append")
        rids = [heap.insert(bytes([i]) * 30) for i in range(10)]
        heap.delete(rids[0])
        appended = heap.insert(b"z" * 30)
        assert appended > rids[-1] or appended.page_no >= rids[-1].page_no

    def test_insert_at_restores_address(self, heap):
        rid = heap.insert(b"victim")
        heap.delete(rid)
        heap.insert_at(rid, b"restored")
        assert heap.read(rid) == b"restored"

    def test_insert_at_occupied_raises(self, heap):
        rid = heap.insert(b"x")
        with pytest.raises(PageFullError):
            heap.insert_at(rid, b"y")


class TestScan:
    def test_scan_in_address_order(self, heap):
        import random

        rng = random.Random(0)
        rids = [heap.insert(bytes([i % 250]) * 20) for i in range(60)]
        for rid in rng.sample(rids, 20):
            heap.delete(rid)
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == sorted(scanned, key=lambda r: r.key())
        assert len(scanned) == 40

    def test_scan_yields_bodies(self, heap):
        heap.insert(b"a")
        heap.insert(b"b")
        assert [body for _, body in heap.scan()] == [b"a", b"b"]

    def test_scan_allows_updates_to_yielded_records(self, heap):
        rids = [heap.insert(bytes([i]) * 10) for i in range(30)]
        seen = []
        for rid, body in heap.scan():
            heap.update(rid, b"U" * 10)  # same size, in place
            seen.append(rid)
        assert seen == rids
        assert all(heap.read(rid) == b"U" * 10 for rid in rids)

    def test_last_rid(self, heap):
        assert heap.last_rid() is None
        rids = [heap.insert(bytes([i]) * 10) for i in range(10)]
        assert heap.last_rid() == rids[-1]
        heap.delete(rids[-1])
        assert heap.last_rid() == rids[-2]

    def test_scan_rids(self, heap):
        rids = [heap.insert(b"x") for _ in range(3)]
        assert list(heap.scan_rids()) == rids


class TestUpdate:
    def test_update_in_place(self, heap):
        rid = heap.insert(b"aaaa")
        heap.update(rid, b"bbbb")
        assert heap.read(rid) == b"bbbb"

    def test_update_overflow_raises(self, heap):
        rid = heap.insert(b"a")
        with pytest.raises(PageFullError):
            heap.update(rid, b"x" * 500)
        assert heap.read(rid) == b"a"


class TestFreeHint:
    """``_free_hint`` tracks ``contiguous_free() + reclaimable()``."""

    @staticmethod
    def _assert_hint_exact(heap):
        for page_no in range(heap.page_count):
            page = heap._pin(page_no)
            try:
                expected = page.contiguous_free() + page.reclaimable()
            finally:
                heap._unpin(page_no, dirty=False)
            assert heap._free_hint[page_no] == expected, page_no

    def test_exact_after_same_length_shrinking_and_growing_updates(self, heap):
        rids = [heap.insert(bytes([65 + i]) * 20) for i in range(16)]
        assert heap.page_count > 1
        self._assert_hint_exact(heap)
        for step, rid in enumerate(rids):
            if step % 3 == 0:
                heap.update(rid, b"s" * 20)  # same length: layout untouched
            elif step % 3 == 1:
                heap.update(rid, b"k" * 7)  # shrink: leaves a hole
            else:
                heap.update(rid, b"g" * 31)  # grow: fresh space, may compact
            self._assert_hint_exact(heap)
        heap.delete(rids[2])
        heap.update(rids[3], b"z" * 20)
        self._assert_hint_exact(heap)

    def test_same_length_update_skips_the_directory_walk(self, heap, monkeypatch):
        from repro.storage.page import SlottedPage

        rids = [heap.insert(b"a" * 20) for _ in range(5)]
        walks = []
        original = SlottedPage.reclaimable

        def counting(page):
            walks.append(1)
            return original(page)

        monkeypatch.setattr(SlottedPage, "reclaimable", counting)
        for rid in rids:
            heap.update(rid, b"b" * 20)
        assert not walks
        heap.update(rids[0], b"c" * 5)
        assert walks

    def test_page_update_reports_layout_change(self):
        from repro.storage.page import SlottedPage

        page = SlottedPage.empty(256)
        slot = page.insert(b"a" * 10)
        assert page.update(slot, b"b" * 10) is False
        assert page.update(slot, b"c" * 4) is True
        assert page.update(slot, b"d" * 30) is True
        assert page.read(slot) == b"d" * 30


class TestWriteCounters:
    def test_counts_by_kind(self, heap):
        rid = heap.insert(b"a")
        heap.update(rid, b"b")
        heap.delete(rid)
        heap.insert_at(rid, b"c")
        assert heap.writes.inserts == 2
        assert heap.writes.updates == 1
        assert heap.writes.deletes == 1
        assert heap.writes.total == 4

    def test_failed_update_not_counted(self, heap):
        rid = heap.insert(b"a")
        heap.writes.reset()
        with pytest.raises(PageFullError):
            heap.update(rid, b"x" * 500)
        assert heap.writes.updates == 0

    def test_reset(self, heap):
        heap.insert(b"a")
        heap.writes.reset()
        assert heap.writes.total == 0

    def test_compactions_counted_only_when_no_gap_holds_the_record(self, heap):
        rids = [heap.insert(bytes([i]) * 30) for i in range(14)]  # two full pages
        assert heap.page_count == 2 and heap.writes.compactions == 0
        heap.delete(rids[2])
        heap.delete(rids[4])
        assert heap.insert(b"h" * 30) == rids[2]  # the hole holds it
        assert heap.writes.compactions == 0
        heap.delete(rids[2])
        assert heap.insert(b"w" * 50) == rids[2]  # two 30-byte holes do not
        assert heap.writes.compactions == 1
        heap.delete(rids[8])
        heap.update(rids[11], b"u" * 45)  # a grown record, same rule
        assert heap.writes.compactions == 2
        assert heap.writes.total == 14 + 4 + 2 + 1  # not a record write
        assert "compactions=2" in repr(heap.writes)
        heap.writes.reset()
        assert heap.writes.compactions == 0

    def test_rewrite_is_one_pin_and_a_skip_leaves_the_frame_clean(self, heap):
        rid = heap.insert(b"stored")
        pool = heap.pool
        pool.flush_all()
        pins = pool.stats.hits + pool.stats.misses
        writebacks = pool.stats.writebacks
        seen = []
        assert heap.rewrite(rid, lambda before: seen.append(before)) is None
        assert seen == [b"stored"]
        assert pool.stats.hits + pool.stats.misses == pins + 1
        pool.flush_all()
        assert pool.stats.writebacks == writebacks and heap.writes.updates == 0
        assert heap.rewrite(rid, lambda before: before + b"!") == b"stored!"
        assert pool.stats.hits + pool.stats.misses == pins + 2
        assert heap.read(rid) == b"stored!" and heap.writes.updates == 1
