"""An LRU buffer pool with pin counts and dirty tracking.

The refresh algorithms do full sequential scans of the base table; the
buffer pool makes those scans cheap to reason about (page images are
materialized once per visit) and exposes hit/miss/eviction statistics so
the engineering benchmarks can report scan cost honestly.

Usage is the classic discipline::

    frame = pool.pin(page_no)
    ...mutate frame (a bytearray view of the page image)...
    pool.unpin(page_no, dirty=True)

Pinned pages are never evicted; unpinned dirty pages are written back on
eviction or on :meth:`BufferPool.flush_all`.

The frames' buffers are a fixed arena: the pool allocates a page-size
``bytearray`` per frame until it holds ``capacity`` of them, and from
then on a miss reuses its victim's buffer — the victim is written back
from it (if dirty) and the wanted page read into it.  A buffer holds one
page at a time; the frame that names it is made per admission, so a
frame object that was evicted never again stands for live bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, NamedTuple

from repro.errors import BufferPoolError
from repro.storage.pager import Pager


class _Frame:
    """One admission of a page: its arena buffer, pins and dirty flag."""

    __slots__ = ("data", "pin_count", "dirty")

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.pin_count = 0
        self.dirty = False


class PoolState(NamedTuple):
    """A :class:`BufferPool`'s observable state (:meth:`BufferPool.save_state`)."""

    counts: "tuple[int, int, int, int]"
    frames: "OrderedDict[int, _Frame]"


class BufferStats:
    """Counters exposed for benchmarks: hits, misses, evictions, writebacks."""

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "writebacks",
        "batch_hits",
        "batch_misses",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        # Always 0 (the pool caches no batches): benchmarks/e2e/adapter.py reads it.
        self.batch_hits = 0
        # Always 0 (the pool caches no batches): benchmarks/e2e/adapter.py reads it.
        self.batch_misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def counts(self) -> "tuple[int, int, int, int]":
        """``(hits, misses, evictions, writebacks)``."""
        return self.hits, self.misses, self.evictions, self.writebacks

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"BufferStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, writebacks={self.writebacks})"
        )


class BufferPool:
    """Fixed-capacity page cache over a :class:`~repro.storage.pager.Pager`."""

    def __init__(self, pager: Pager, capacity: int = 64) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self._pager = pager
        self._capacity = capacity
        # OrderedDict as LRU: most recently used at the end.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        # Arena buffers that hold no page (given up by a discard or a
        # restore); with the resident frames' never more than capacity.
        self._spare: "list[bytearray]" = []
        self.stats = BufferStats()

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def capacity(self) -> int:
        return self._capacity

    def allocate_page(self) -> int:
        """Allocate a fresh page in the underlying pager."""
        return self._pager.allocate()

    def pin(self, page_no: int) -> bytearray:
        """Return the page's frame, loading and possibly evicting.

        A miss takes a buffer — a spare one, a new one while the arena
        is short of ``capacity``, else the least recently used unpinned
        frame's, written back first if dirty — and reads the page into
        it.
        """
        frames = self._frames
        frame = frames.get(page_no)
        if frame is not None:
            self.stats.hits += 1
            frames.move_to_end(page_no)
        else:
            stats = self.stats
            stats.misses += 1
            pager = self._pager
            if len(frames) < self._capacity:
                spare = self._spare
                buf = spare.pop() if spare else bytearray(pager.page_size)
            else:
                for victim_no, victim in frames.items():  # LRU order
                    if not victim.pin_count:
                        break
                else:
                    raise BufferPoolError("all buffer frames are pinned")
                buf = victim.data
                if victim.dirty:
                    pager.write_page(victim_no, buf)
                    stats.writebacks += 1
                del frames[victim_no]
                stats.evictions += 1
            try:
                pager.read_into(page_no, buf)
            except BaseException:
                self._spare.append(buf)
                raise
            frame = frames[page_no] = _Frame(buf)
        frame.pin_count += 1
        return frame.data

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        """Drop one pin; mark the frame dirty if the caller mutated it."""
        frame = self._frames.get(page_no)
        if frame is None or frame.pin_count == 0:
            raise BufferPoolError(f"page {page_no} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay cached)."""
        for page_no, frame in self._frames.items():
            if frame.dirty:
                self._pager.write_page(page_no, frame.data)
                frame.dirty = False
                self.stats.writebacks += 1

    def save_state(self) -> "PoolState":
        """What an observer of the pool can see: the counters and the
        resident frames in LRU order, each with its dirty flag and pin
        count (the frame objects themselves).  :meth:`restore_state`
        puts it back."""
        return PoolState(self.stats.counts(), OrderedDict(self._frames))

    def restore_state(self, state: "PoolState") -> None:
        """Return to ``state`` after reads only: the counters, and the
        frames resident then, in their LRU order.  A frame resident
        throughout is kept as it is; a frame the reads admitted is
        dropped, its buffer spare.  A frame the reads evicted comes back
        with its dirty flag and pins, but its buffer may hold another
        page by now, so it takes a spare one and the page is read into
        it afresh: a dirty one was written back, so the pager holds its
        bytes.  Anything else — a frame admitted dirty or still pinned —
        means the reads wrote, and is an error."""
        saved, frames = state.frames, self._frames
        for page_no, frame in frames.items():
            if saved.get(page_no) is not frame and (frame.dirty or frame.pin_count):
                raise BufferPoolError(
                    f"page {page_no} was written or left pinned since the "
                    "pool state was saved"
                )
        spare = self._spare
        for page_no, frame in frames.items():
            if saved.get(page_no) is not frame:
                spare.append(frame.data)
        for page_no, frame in saved.items():
            if frames.get(page_no) is not frame:
                frame.data = spare.pop()
                self._pager.read_into(page_no, frame.data)
        stats = self.stats
        stats.hits, stats.misses, stats.evictions, stats.writebacks = state.counts
        self._frames = OrderedDict(saved)

    def discard_pages(self, page_nos: "Iterable[int]") -> int:
        """Forget cached state for abandoned pages; return entries dropped.

        Used when a table is dropped or truncated: its frames are
        discarded *without* writeback (the pages are garbage — writing
        them back would be wasted I/O and would resurrect stale bytes
        if the pager ever reuses the page).  Pinned frames are an error:
        nobody may hold a pin into storage that is being abandoned.
        """
        dropped = 0
        for page_no in page_nos:
            frame = self._frames.get(page_no)
            if frame is not None:
                if frame.pin_count > 0:
                    raise BufferPoolError(
                        f"page {page_no} is pinned and cannot be discarded"
                    )
                del self._frames[page_no]
                self._spare.append(frame.data)
                dropped += 1
        return dropped

    def pinned_pages(self) -> "list[int]":
        """Page numbers currently pinned (diagnostic)."""
        return [no for no, frame in self._frames.items() if frame.pin_count > 0]

    def __len__(self) -> int:
        return len(self._frames)
