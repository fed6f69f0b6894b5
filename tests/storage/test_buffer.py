"""Buffer pool: pinning, LRU eviction, dirty write-back, stats."""

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryPager


@pytest.fixture
def pool():
    return BufferPool(InMemoryPager(page_size=64), capacity=3)


def _fill(pool, count):
    pages = [pool.allocate_page() for _ in range(count)]
    return pages


class TestPinning:
    def test_pin_returns_frame(self, pool):
        page_no = pool.allocate_page()
        frame = pool.pin(page_no)
        assert isinstance(frame, bytearray)
        pool.unpin(page_no)

    def test_unpin_unpinned_raises(self, pool):
        page_no = pool.allocate_page()
        with pytest.raises(BufferPoolError):
            pool.unpin(page_no)

    def test_repeated_pin_hits_cache(self, pool):
        page_no = pool.allocate_page()
        pool.pin(page_no)
        pool.unpin(page_no)
        pool.pin(page_no)
        pool.unpin(page_no)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_pinned_pages_reported(self, pool):
        page_no = pool.allocate_page()
        pool.pin(page_no)
        assert pool.pinned_pages() == [page_no]
        pool.unpin(page_no)
        assert pool.pinned_pages() == []


class TestEviction:
    def test_lru_eviction(self, pool):
        pages = _fill(pool, 4)
        for page_no in pages[:3]:
            pool.pin(page_no)
            pool.unpin(page_no)
        pool.pin(pages[3])  # evicts pages[0], the least recently used
        pool.unpin(pages[3])
        assert pool.stats.evictions == 1
        pool.pin(pages[0])  # must be a miss now
        pool.unpin(pages[0])
        assert pool.stats.misses == 5

    def test_dirty_page_written_back_on_eviction(self, pool):
        pages = _fill(pool, 4)
        frame = pool.pin(pages[0])
        frame[0] = 0xAB
        pool.unpin(pages[0], dirty=True)
        for page_no in pages[1:]:
            pool.pin(page_no)
            pool.unpin(page_no)
        assert pool.stats.writebacks == 1
        assert pool.pager.read_page(pages[0])[0] == 0xAB

    def test_pinned_pages_never_evicted(self, pool):
        pages = _fill(pool, 4)
        for page_no in pages[:3]:
            pool.pin(page_no)
        with pytest.raises(BufferPoolError):
            pool.pin(pages[3])

    def test_capacity_validation(self):
        with pytest.raises(BufferPoolError):
            BufferPool(InMemoryPager(), capacity=0)


class TestFlush:
    def test_flush_all_writes_dirty_frames(self, pool):
        page_no = pool.allocate_page()
        frame = pool.pin(page_no)
        frame[1] = 0x7F
        pool.unpin(page_no, dirty=True)
        pool.flush_all()
        assert pool.pager.read_page(page_no)[1] == 0x7F
        # A second flush has nothing left to write.
        before = pool.stats.writebacks
        pool.flush_all()
        assert pool.stats.writebacks == before

    def test_hit_rate(self, pool):
        page_no = pool.allocate_page()
        pool.pin(page_no)
        pool.unpin(page_no)
        pool.pin(page_no)
        pool.unpin(page_no)
        assert pool.stats.hit_rate == 0.5


class TestDiscard:
    def test_discard_pages_drops_frames_without_writeback(self, pool):
        pages = _fill(pool, 2)
        for page_no in pages:
            frame = pool.pin(page_no)
            frame[0] = 0xAB
            pool.unpin(page_no, dirty=True)
        writebacks_before = pool.stats.writebacks
        dropped = pool.discard_pages(pages)
        assert dropped == 2
        assert len(pool) == 0
        # Abandoned pages are never written back.
        assert pool.stats.writebacks == writebacks_before

    def test_discard_pinned_page_raises(self, pool):
        page_no = pool.allocate_page()
        pool.pin(page_no)
        with pytest.raises(BufferPoolError):
            pool.discard_pages([page_no])
        pool.unpin(page_no)


class TestState:
    """``save_state`` / ``restore_state``: reads in between leave the
    pool as it was — counters, resident frames, LRU order, dirty flags."""

    def _resident(self, pool):
        return [(no, frame.dirty) for no, frame in pool._frames.items()]

    def test_reads_in_between_leave_no_trace(self, pool):
        pages = _fill(pool, 6)
        for page_no in pages[:3]:
            pool.pin(page_no)
            pool.unpin(page_no)
        pool.pin(pages[1])[0] = 0xAB
        pool.unpin(pages[1], dirty=True)
        pool.pin(pages[0])
        pool.unpin(pages[0])  # LRU order: 2, 1, 0
        counts, resident = pool.stats.counts(), self._resident(pool)
        state = pool.save_state()
        for page_no in pages[3:]:  # evicts all three, writing page 1 back
            pool.pin(page_no)
            pool.unpin(page_no)
        assert pool.stats.writebacks == 1
        pool.restore_state(state)
        assert pool.stats.counts() == counts
        assert self._resident(pool) == resident
        # The restored dirty frame is written back once more on its own
        # eviction, as the run without the reads would have done.
        for page_no in pages[3:]:
            pool.pin(page_no)
            pool.unpin(page_no)
        assert pool.stats.writebacks == 1
        assert pool.pager.read_page(pages[1])[0] == 0xAB

    def test_a_frame_admitted_dirty_is_refused(self, pool):
        pages = _fill(pool, 2)
        state = pool.save_state()
        pool.pin(pages[0])
        pool.unpin(pages[0], dirty=True)
        with pytest.raises(BufferPoolError):
            pool.restore_state(state)

    def test_a_frame_left_pinned_is_refused(self, pool):
        pages = _fill(pool, 2)
        state = pool.save_state()
        pool.pin(pages[1])
        with pytest.raises(BufferPoolError):
            pool.restore_state(state)
