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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.errors import BufferPoolError
from repro.storage.pager import Pager


class _Frame:
    __slots__ = ("data", "pin_count", "dirty")

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.pin_count = 0
        self.dirty = False


class BufferStats:
    """Counters exposed for benchmarks: hits, misses, evictions, writebacks.

    ``batch_hits``/``batch_misses`` count the columnar
    :class:`~repro.storage.batch.PageBatch` cache separately: a batch
    hit serves the page *without pinning a frame*, so it must not also
    count as a page hit — each page access lands in exactly one stat.
    """

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
        self.batch_hits = 0
        self.batch_misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.batch_hits = 0
        self.batch_misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"BufferStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, writebacks={self.writebacks}, "
            f"batch={self.batch_hits}/{self.batch_hits + self.batch_misses})"
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
        # Columnar PageBatch cache (page_no -> batch), LRU-bounded to
        # the frame capacity.  Entries self-invalidate by version: a
        # lookup with a newer page version is a miss and the caller's
        # store replaces the stale batch.
        self._batches: "OrderedDict[int, object]" = OrderedDict()
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
        """Return the page's frame, loading and possibly evicting."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_no)
        else:
            self.stats.misses += 1
            self._make_room()
            frame = _Frame(self._pager.read_page(page_no))
            self._frames[page_no] = frame
        frame.pin_count += 1
        return frame.data

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        """Drop one pin; mark the frame dirty if the caller mutated it."""
        frame = self._frames.get(page_no)
        if frame is None or frame.pin_count == 0:
            raise BufferPoolError(f"page {page_no} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty

    def _make_room(self) -> None:
        if len(self._frames) < self._capacity:
            return
        for page_no, frame in self._frames.items():  # LRU order
            if frame.pin_count == 0:
                self._evict(page_no, frame)
                return
        raise BufferPoolError("all buffer frames are pinned")

    def _evict(self, page_no: int, frame: _Frame) -> None:
        if frame.dirty:
            self._pager.write_page(page_no, bytes(frame.data))
            self.stats.writebacks += 1
        del self._frames[page_no]
        self.stats.evictions += 1

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay cached)."""
        for page_no, frame in self._frames.items():
            if frame.dirty:
                self._pager.write_page(page_no, bytes(frame.data))
                frame.dirty = False
                self.stats.writebacks += 1

    # -- columnar batch cache ------------------------------------------------

    def batch_lookup(self, page_no: int, version: int) -> "object | None":
        """Cached :class:`~repro.storage.batch.PageBatch`, version-checked.

        A hit serves the whole page without touching a frame (one stat,
        no pin); a stale or absent entry is a batch miss and the caller
        re-extracts under a normal pin (which takes the page hit/miss).
        """
        batch = self._batches.get(page_no)
        if batch is not None and batch.version == version:  # type: ignore[attr-defined]
            self.stats.batch_hits += 1
            self._batches.move_to_end(page_no)
            return batch
        self.stats.batch_misses += 1
        return None

    def batch_store(self, page_no: int, batch: object) -> None:
        """Cache a freshly extracted batch, evicting LRU past capacity."""
        self._batches[page_no] = batch
        self._batches.move_to_end(page_no)
        while len(self._batches) > self._capacity:
            self._batches.popitem(last=False)

    def discard_pages(self, page_nos: "Iterable[int]") -> int:
        """Forget cached state for abandoned pages; return entries dropped.

        Used when a table is dropped or truncated: its frames are
        discarded *without* writeback (the pages are garbage — writing
        them back would be wasted I/O and would resurrect stale bytes
        if the pager ever reuses the page), and its columnar batch
        entries are removed so the batch cache cannot keep serving a
        page whose owner is gone.  Pinned frames are an error: nobody
        may hold a pin into storage that is being abandoned.
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
                dropped += 1
            if self._batches.pop(page_no, None) is not None:
                dropped += 1
        return dropped

    def discard_batches(self, page_nos: "Iterable[int]") -> int:
        """Evict cached batches for specific pages; frames stay put.

        Used on truncate: the pages remain owned (and possibly dirty in
        their frames), but every cached batch for them is definitionally
        stale — version self-invalidation would already refuse to serve
        them, so all the stale entries do is squat in the LRU bound.
        """
        dropped = 0
        for page_no in page_nos:
            if self._batches.pop(page_no, None) is not None:
                dropped += 1
        return dropped

    def batch_peek(self, page_no: int) -> "object | None":
        """Cached batch of any version: no stat, no LRU touch (sanitizer)."""
        return self._batches.get(page_no)

    def batch_entries(self) -> int:
        """Number of cached batch entries (diagnostic / sanitizer)."""
        return len(self._batches)

    def pinned_pages(self) -> "list[int]":
        """Page numbers currently pinned (diagnostic)."""
        return [no for no, frame in self._frames.items() if frame.pin_count > 0]

    def __len__(self) -> int:
        return len(self._frames)
