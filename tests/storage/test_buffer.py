"""Buffer pool: pinning, LRU eviction, dirty write-back, stats, and the
frame arena against a model of a pool that copies on every miss."""

import os
import tempfile
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool, _Frame
from repro.storage.pager import FilePager, InMemoryPager


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

    def test_a_restore_rereads_a_saved_dirty_frame_whose_buffer_was_recycled(
        self, pool
    ):
        pages = _fill(pool, 6)
        pool.pin(pages[0])[:] = b"\xab" * 64
        pool.unpin(pages[0], dirty=True)
        state = pool.save_state()
        saved = pool._frames[pages[0]]
        for page_no in pages[1:]:  # evicts page 0; its buffer takes another page
            pool.pin(page_no)
            pool.unpin(page_no)
        assert pages[0] not in pool._frames
        assert any(frame.data is saved.data for frame in pool._frames.values())
        pool.restore_state(state)
        frame = pool._frames[pages[0]]
        assert frame.dirty and frame.data == b"\xab" * 64
        buffers = [id(frame.data) for frame in pool._frames.values()]
        assert len(set(buffers)) == len(buffers)  # one page per buffer
        hits = pool.stats.hits
        assert pool.pin(pages[0]) == b"\xab" * 64
        pool.unpin(pages[0])
        assert pool.stats.hits == hits + 1


class TestArena:
    def test_a_miss_at_capacity_allocates_no_new_frame(self, pool):
        pages = _fill(pool, 8)
        for page_no in pages[:3]:
            pool.pin(page_no)
            pool.unpin(page_no, dirty=True)
        arena = {id(frame.data) for frame in pool._frames.values()}
        for page_no in pages[3:] + pages[:3]:
            pool.pin(page_no)
            pool.unpin(page_no)
            assert {id(frame.data) for frame in pool._frames.values()} == arena
        assert pool.stats.evictions == 8 and pool._spare == []

    def test_discarded_buffers_are_reused_first(self, pool):
        pages = _fill(pool, 3)
        for page_no in pages[:2]:
            pool.pin(page_no)
            pool.unpin(page_no)
        spare = pool._frames[pages[0]].data
        pool.discard_pages([pages[0]])
        pool.pin(pages[2])
        assert pool._frames[pages[2]].data is spare
        pool.unpin(pages[2])

    def test_a_failed_read_gives_its_buffer_back(self, pool):
        pages = _fill(pool, 3)
        for page_no in pages:
            pool.pin(page_no)
            pool.unpin(page_no)
        with pytest.raises(Exception, match="out of range"):
            pool.pin(99)  # evicts, then the read fails
        assert len(pool) == 2 and len(pool._spare) == 1


class CopyingPool:
    """The pool before its frames became an arena: each miss reads a new
    copy of the page, each write-back hands the pager a ``bytes`` copy,
    and a restore puts the saved frame objects back as they are."""

    def __init__(self, pager, capacity):
        self.pager, self.capacity = pager, capacity
        self.frames = OrderedDict()
        self.counts = [0, 0, 0, 0]  # hits, misses, evictions, writebacks

    def pin(self, page_no):
        frame = self.frames.get(page_no)
        if frame is not None:
            self.counts[0] += 1
            self.frames.move_to_end(page_no)
        else:
            self.counts[1] += 1
            if len(self.frames) >= self.capacity:
                victim = next(
                    (no for no, f in self.frames.items() if not f.pin_count), None
                )
                if victim is None:
                    raise BufferPoolError("all buffer frames are pinned")
                if self.frames[victim].dirty:
                    self.pager.write_page(victim, bytes(self.frames[victim].data))
                    self.counts[3] += 1
                del self.frames[victim]
                self.counts[2] += 1
            frame = self.frames[page_no] = _Frame(self.pager.read_page(page_no))
        frame.pin_count += 1
        return frame.data

    def unpin(self, page_no, dirty=False):
        frame = self.frames[page_no]
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty

    def flush_all(self):
        for page_no, frame in self.frames.items():
            if frame.dirty:
                self.pager.write_page(page_no, bytes(frame.data))
                frame.dirty = False
                self.counts[3] += 1

    def discard_pages(self, page_nos):
        for page_no in page_nos:
            self.frames.pop(page_no, None)

    def save_state(self):
        return tuple(self.counts), OrderedDict(self.frames)

    def restore_state(self, state):
        counts, frames = state
        self.counts, self.frames = list(counts), OrderedDict(frames)


arena_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["read", "read", "write", "write", "hold", "release", "flush"]
            + ["discard", "save", "restore", "window"]
        ),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=80,
)


class TestArenaAgainstCopyingPool:
    """Any script of pins, dirty unpins, flushes, discards and
    save / read / restore windows leaves the arena with the counters,
    LRU order, frames and pager images of the copying pool, on both
    pagers."""

    PAGES, PAGE_SIZE, CAPACITY = 7, 32, 3

    def _pagers(self, kind, directory):
        if kind == "memory":
            return [InMemoryPager(self.PAGE_SIZE) for _ in range(2)]
        return [
            FilePager(os.path.join(directory, f"{side}.pages"), self.PAGE_SIZE)
            for side in ("arena", "model")
        ]

    def _picture(self, frames, counts, pager):
        resident = [
            (no, f.dirty, f.pin_count, bytes(f.data)) for no, f in frames.items()
        ]
        images = [bytes(pager.read_page(no)) for no in range(self.PAGES)]
        return tuple(counts), resident, images

    @pytest.mark.parametrize("kind", ["memory", "file"])
    @settings(max_examples=60, deadline=None)
    @given(script=arena_steps)
    def test_scripts_match_the_model(self, kind, script):
        with tempfile.TemporaryDirectory() as directory:
            pagers = self._pagers(kind, directory)
            try:
                self._play(script, *pagers)
            finally:
                for pager in pagers:
                    pager.close()

    def _touch(self, side, op, page_no, byte):
        """Pin ``page_no`` (a write sets one byte; a hold keeps the pin);
        the error text, or ``None``."""
        try:
            frame = side.pin(page_no)
        except BufferPoolError as error:
            return str(error)
        if op == "write":
            frame[byte % self.PAGE_SIZE] = byte
        if op != "hold":
            side.unpin(page_no, dirty=op == "write")
        return None

    def _play(self, script, pager, model_pager):
        pool = BufferPool(pager, capacity=self.CAPACITY)
        model = CopyingPool(model_pager, self.CAPACITY)
        for page_no in range(self.PAGES):  # every page told apart by its bytes
            for side in (pager, model_pager):
                side.allocate()
                side.write_page(page_no, bytes([page_no + 1]) * self.PAGE_SIZE)
        held, state = [], None  # a saved state opens a read-only window
        for op, page_no, byte in script:
            if state is not None and op in ("write", "release", "flush", "discard"):
                op = "read"
            if op in ("read", "write", "hold"):
                outcomes = [
                    self._touch(side, op, page_no, byte) for side in (pool, model)
                ]
                assert outcomes[0] == outcomes[1]
                if op == "hold" and outcomes[0] is None:
                    if state is None:
                        held.append(page_no)
                    else:  # a window holds nothing past its restore
                        pool.unpin(page_no)
                        model.unpin(page_no)
            elif op == "release" and held:
                page_no = held.pop(0)
                pool.unpin(page_no)
                model.unpin(page_no)
            elif op == "flush":
                pool.flush_all()
                model.flush_all()
            elif op == "discard" and page_no not in held:
                pool.discard_pages([page_no])
                model.discard_pages([page_no])
            elif op == "save" and state is None:
                state = pool.save_state(), model.save_state()
            elif op == "restore" and state is not None:
                pool.restore_state(state[0])
                model.restore_state(state[1])
                state = None
            elif op == "window" and state is None:  # reads that evict, undone
                for side in (pool, model):
                    saved = side.save_state()
                    for k in range(1 + byte % 4):
                        self._touch(side, "read", (page_no + k) % self.PAGES, byte)
                    side.restore_state(saved)
            assert self._picture(
                pool._frames, pool.stats.counts(), pager
            ) == self._picture(model.frames, model.counts, model_pager), op
            assert len(pool._frames) + len(pool._spare) <= self.CAPACITY
