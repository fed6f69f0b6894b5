"""Heap files: ordered collections of slotted pages with address reuse.

A heap file owns a sequence of pages (in allocation order) inside a shared
buffer pool.  Records are addressed by :class:`~repro.storage.rid.Rid`;
scanning yields records in strictly increasing address order, which is the
scan the refresh algorithms rely on.

Insert placement policies:

``first_fit`` (default)
    Place the record at the lowest address that can hold it, reusing
    freed slots.  This mirrors 1986-era storage managers and produces the
    insert-into-empty-region behaviour the paper's annotation scheme is
    designed around.

``append``
    Always place the record after the current maximum address.  Useful
    for building tables quickly and for workloads modelling insert-only
    tables.

Both policies ask one :class:`FreeSpaceMap` for the lowest page at or
after a start whose free bytes hold the record, in O(log pages): the
load of a table costs O(rows log pages), not O(rows × pages).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.batch import PageBatch, extract_page_batch
from repro.storage.buffer import BufferPool
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, SlottedPage
from repro.storage.rid import Rid

#: The annotation repairs a :meth:`HeapFile.fix_batch` caller decides:
#: ``(slot_no, prev, ts)``, each field an 8-byte encoding or ``None``.
Writes = Sequence[Tuple[int, Optional[bytes], Optional[bytes]]]


class HeapWriteCounts:
    """Counts of physical record writes performed on a heap."""

    __slots__ = ("inserts", "updates", "deletes", "compactions")

    def __init__(self) -> None:
        self.reset()

    @property
    def total(self) -> int:
        return self.inserts + self.updates + self.deletes

    def reset(self) -> None:
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        #: Pages re-packed because no single gap held a record (not a
        #: record write, so not part of :attr:`total`).
        self.compactions = 0

    def __repr__(self) -> str:
        return (
            f"HeapWriteCounts(inserts={self.inserts}, "
            f"updates={self.updates}, deletes={self.deletes}, "
            f"compactions={self.compactions})"
        )


class FreeSpaceMap:
    """Exact free bytes per heap page, under a max tree.

    ``tree`` is an implicit binary tree over ``capacity`` leaves (a power
    of two): node ``i`` has children ``2i`` and ``2i + 1``, the root is
    node 1, and leaf ``capacity + page`` holds ``contiguous_free() +
    reclaimable()`` of that page exactly — what :meth:`SlottedPage._place`
    can use, compacting if it must — or ``-1`` past the last page.  Every
    other node is the larger of its children.  So :meth:`first` finds
    the lowest page at or after a start with the room a record needs by
    climbing from the start's leaf to the first node right of it that
    has the room (from the root, for a start of 0), then descending to
    that node's leftmost such leaf: one node a level each way.  This is
    the free space map of PostgreSQL
    (``src/backend/storage/freespace/README``), kept exact where that one
    is approximate, since placement here is first fit.
    """

    __slots__ = ("tree", "capacity", "pages", "examined")

    def __init__(self, free: "Sequence[int]" = ()) -> None:
        self.pages = len(free)
        self.capacity = 1
        while self.capacity < self.pages:
            self.capacity *= 2
        self._build(free)
        #: Tree nodes :meth:`first` has read: at most 2·log₂(capacity) + 1
        #: a call, where a walk over the leaves reads up to one a page.
        self.examined = 0

    def _build(self, free: "Sequence[int]") -> None:
        capacity = self.capacity
        tree = [-1] * capacity + list(free) + [-1] * (capacity - len(free))
        for i in range(capacity - 1, 0, -1):
            tree[i] = max(tree[2 * i], tree[2 * i + 1])
        self.tree = tree

    def __getitem__(self, page: int) -> int:
        if not 0 <= page < self.pages:
            raise IndexError(f"no page {page} in a map of {self.pages}")
        return self.tree[self.capacity + page]

    def append(self, free: int) -> None:
        """Add a page with ``free`` bytes after the last."""
        page = self.pages
        self.pages += 1
        if page < self.capacity:
            self.add(page, free + 1)  # from the -1 of a leaf past the end
        else:  # full: double the leaves, every one of them a page
            leaves = self.tree[page:]
            self.capacity *= 2
            self._build(leaves + [free])

    def add(self, page: int, delta: int) -> None:
        """Record that ``page`` gained ``delta`` free bytes (lost, if
        negative), and fix the nodes above it, up to the first one that
        already holds its value."""
        tree = self.tree
        i = self.capacity + page
        free = tree[i] + delta
        tree[i] = free
        if delta > 0:
            # A node is the larger of its children, so a child that grew
            # raises it only while it is below the child's new value.
            i >>= 1
            while i and tree[i] < free:
                tree[i] = free
                i >>= 1
        elif delta < 0:
            while i > 1:
                sibling = tree[i ^ 1]
                if sibling > free:
                    free = sibling
                i >>= 1
                if tree[i] == free:
                    return
                tree[i] = free

    def first(self, need: int, start: int = 0) -> Optional[int]:
        """The lowest page at or after ``start`` with at least ``need``
        free bytes, or ``None``."""
        tree = self.tree
        if start:
            if start >= self.pages:
                return None
            i = self.capacity + start
            reads = 1
            while tree[i] < need:
                if not (i + 1) & i:  # the last node of its level
                    self.examined += reads
                    return None
                # Node i lacks the room and covers no page before
                # ``start``: go to its parent when it is a left child
                # (the parent covers its right sibling too), else to the
                # parent's right neighbour.
                i = (i + 1) >> 1
                reads += 1
        else:
            i = 1
            reads = 1
            if tree[1] < need:
                self.examined += 1
                return None
        capacity = self.capacity
        self.examined += reads + capacity.bit_length() - i.bit_length()
        while i < capacity:
            i <<= 1
            if tree[i] < need:
                i += 1
        return i - capacity


class HeapFile:
    """A table's physical storage: pages, records, and ordered scans."""

    def __init__(
        self,
        pool: BufferPool,
        name: str = "heap",
        insert_policy: str = "first_fit",
    ) -> None:
        if insert_policy not in ("first_fit", "append"):
            raise StorageError(f"unknown insert policy: {insert_policy!r}")
        self._pool = pool
        self.name = name
        self.insert_policy = insert_policy
        # Page numbers owned by this heap, in address order.  The Rid page
        # component is an *index* into this list, so heaps sharing a pager
        # still have dense, comparable addresses.
        self._pages: "list[int]" = []
        #: Free bytes per heap page, ``contiguous_free() + reclaimable()``
        #: exactly: inserts and deletes adjust a page's by the bytes they
        #: used or freed, an update that changes the layout recounts.
        self.free_map = FreeSpaceMap()
        self._record_count = 0
        #: Physical operation counters (benchmarks read these to compare
        #: the maintenance cost of the annotation schemes).
        self.writes = HeapWriteCounts()
        #: Optional :class:`~repro.storage.summary.PageSummaryMap` fed by
        #: every record write (attached by the table layer once the
        #: annotation columns exist, since summaries decode them).
        self.summaries = None
        # Write observers: callbacks invoked as ``callback(kind, rid)``
        # after every physical record write (kind is "insert", "update"
        # or "delete").  This is a *separate* mechanism from the page
        # summaries above — summaries decode annotation bytes and keep
        # per-page change state; an observer just watches the write
        # stream (the chunked refresh scan brackets its chunks with the
        # observer's sequence numbers).
        self._write_observers: "list[Callable[[str, Rid], None]]" = []

    def observe_writes(
        self, callback: "Callable[[str, Rid], None]"
    ) -> "Callable[[], None]":
        """Register a write observer; returns an unsubscribe closure."""
        self._write_observers.append(callback)

        def unsubscribe() -> None:
            if callback in self._write_observers:
                self._write_observers.remove(callback)

        return unsubscribe

    def _notify_write(self, kind: str, rid: Rid) -> None:
        for callback in self._write_observers:
            callback(kind, rid)

    def attach_summaries(self, summaries) -> None:
        """Attach a summary map and build it from current contents."""
        self.summaries = summaries
        summaries.rebuild(self)

    # -- page plumbing -----------------------------------------------------

    def _physical(self, heap_page: int) -> int:
        try:
            return self._pages[heap_page]
        except IndexError:
            raise RecordNotFoundError(
                f"{self.name}: page {heap_page} out of range"
            ) from None

    def _pin(self, heap_page: int) -> SlottedPage:
        frame = self._pool.pin(self._physical(heap_page))
        return SlottedPage(frame)

    def _unpin(self, heap_page: int, dirty: bool) -> None:
        self._pool.unpin(self._physical(heap_page), dirty=dirty)

    def _grow(self) -> int:
        physical = self._pool.allocate_page()
        frame = self._pool.pin(physical)
        SlottedPage(frame, initialize=True)
        self._pool.unpin(physical, dirty=True)
        self._pages.append(physical)
        self.free_map.append(len(frame) - HEADER_SIZE)
        return len(self._pages) - 1

    def adopt(self, physical_pages: "Sequence[int]") -> None:
        """Take over existing pages (a heap reopened over a file) as this
        empty heap's, in address order, recounting each page's free
        bytes and live records from its image."""
        if self._pages:
            raise StorageError(f"{self.name}: adopt needs an empty heap")
        free = []
        for physical in physical_pages:
            page = SlottedPage(self._pool.pin(physical))
            try:
                free.append(page.contiguous_free() + page.reclaimable())
                self._record_count += page.live_count
            finally:
                self._pool.unpin(physical, dirty=False)
        self._pages = list(physical_pages)
        self.free_map = FreeSpaceMap(free)
        if self.summaries is not None:
            self.summaries.rebuild(self)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def pool(self) -> BufferPool:
        return self._pool

    @property
    def record_count(self) -> int:
        return self._record_count

    def physical_pages(self) -> "list[int]":
        """The pager page numbers this heap owns, in address order."""
        return list(self._pages)

    def discard_cached(self) -> int:
        """Drop this heap's pages from the buffer pool (no I/O)."""
        return self._pool.discard_pages(self._pages)

    # -- record operations ---------------------------------------------------

    def insert(self, record: bytes) -> Rid:
        """Store ``record`` per the insert policy; return its address."""
        pages = len(self._pages)
        start = 0 if self.insert_policy == "first_fit" else max(pages - 1, 0)
        # The map is exact, so the first page it admits holds the
        # record, with or without a free slot to reuse.
        heap_page = self.free_map.first(len(record) + SLOT_SIZE, start)
        if heap_page is None:
            heap_page = self._grow()
        return self._place(heap_page, None, record)

    def insert_at(self, rid: Rid, record: bytes) -> None:
        """Re-insert a record at a specific (currently free) address.

        Used by transaction undo to restore a deleted record at its
        original address; raises when the address is occupied or the
        page does not exist.  Undo restores carry whatever (possibly
        stale) annotations the record had; the re-appearance counts as
        structural so the next refresh re-examines the page.
        """
        self._place(rid.page_no, rid.slot_no, record)

    def _place(
        self, heap_page: int, slot_no: Optional[int], record: bytes
    ) -> Rid:
        """Write ``record`` into ``heap_page`` (``slot_no=None``: lowest
        free slot, else a new one) and do an insert's bookkeeping."""
        page = self._pin(heap_page)
        try:
            slots_before = page.slot_count
            rid = Rid(heap_page, page.insert(record, slot_no))
            # The record's bytes plus whatever directory entries the
            # page had to add for it: no O(slots) recount.
            used = len(record) + (page.slot_count - slots_before) * SLOT_SIZE
            if self.summaries is not None:
                self.summaries.note_insert(
                    rid, record, structural=slot_no is not None
                )
        finally:
            self.writes.compactions += page.compactions
            self._unpin(heap_page, dirty=True)
        self.free_map.add(heap_page, -used)
        self._record_count += 1
        self.writes.inserts += 1
        if self._write_observers:
            self._notify_write("insert", rid)
        return rid

    def read(self, rid: Rid) -> bytes:
        """Return the record at ``rid`` (raises if the address is empty)."""
        page = self._pin(rid.page_no)
        try:
            return page.read(rid.slot_no)
        finally:
            self._unpin(rid.page_no, dirty=False)

    def exists(self, rid: Rid) -> bool:
        if not (0 <= rid.page_no < len(self._pages)):
            return False
        page = self._pin(rid.page_no)
        try:
            return page.is_live(rid.slot_no)
        finally:
            self._unpin(rid.page_no, dirty=False)

    def update(self, rid: Rid, record: bytes) -> None:
        """Replace the record at ``rid`` in place.

        Raises :class:`~repro.errors.PageFullError` when the grown record
        cannot fit its page; callers may then delete+reinsert.
        """
        page = self._pin(rid.page_no)
        try:
            self._store(page, rid, record)
        finally:
            self._unpin(rid.page_no, dirty=True)

    def rewrite(
        self, rid: Rid, decide: "Callable[[bytes], Optional[bytes]]"
    ) -> Optional[bytes]:
        """Read, decide and :meth:`update` under one pin.

        ``decide`` is handed the stored record and returns its
        replacement, which is written and returned, or ``None``: then
        nothing is written and the frame is released clean.
        """
        page = self._pin(rid.page_no)
        record = None
        try:
            record = decide(page.read(rid.slot_no))
            if record is not None:
                self._store(page, rid, record)
        finally:
            self._unpin(rid.page_no, dirty=record is not None)
        return record

    def _store(self, page: SlottedPage, rid: Rid, record: bytes) -> None:
        """Overwrite the record at ``rid`` on its pinned page and do an
        update's bookkeeping."""
        if page.update(rid.slot_no, record):
            # Only a layout change can move the hint: a same-length
            # overwrite (most updates) skips the directory read.  Only
            # writers come through here (annotation repairs are
            # write_annotations).
            free = page.contiguous_free() + page.reclaimable()
            self.free_map.add(rid.page_no, free - self.free_map[rid.page_no])
            self.writes.compactions += page.compactions
        if self.summaries is not None:
            self.summaries.note_update(rid, record)
        self.writes.updates += 1
        if self._write_observers:
            self._notify_write("update", rid)

    def write_annotations(
        self, rid: Rid, prev: Optional[bytes], ts: Optional[bytes]
    ) -> None:
        """Overwrite the annotation fields of the record at ``rid`` in place.

        An annotated record ends in two fixed 8-byte fields, ``PrevAddr``
        then ``TimeStamp``, so a repair is an 8- or 16-byte overwrite
        under one pin (pins nest, so also inside one the caller holds):
        no record copy, no layout change, no decode.  ``None`` keeps a
        field.  Counted, observed and summarized as the update it is.
        A pass that reads the page writes its repairs under the read's
        own pin instead (:meth:`fix_batch`).
        """
        page = self._pin(rid.page_no)
        try:
            self._write_tails(page, rid.page_no, [(rid.slot_no, prev, ts)])
        finally:
            self._unpin(rid.page_no, dirty=True)

    def delete(self, rid: Rid) -> None:
        """Free the address ``rid`` for reuse."""
        page = self._pin(rid.page_no)
        try:
            freed = page.delete(rid.slot_no)  # a hole compaction can reclaim
            if self.summaries is not None:
                self.summaries.note_delete(rid, page)
        finally:
            self._unpin(rid.page_no, dirty=True)
        self.free_map.add(rid.page_no, freed)
        self._record_count -= 1
        self.writes.deletes += 1
        if self._write_observers:
            self._notify_write("delete", rid)

    # -- scans ---------------------------------------------------------------

    def scan(self) -> "Iterator[tuple[Rid, bytes]]":
        """Yield ``(rid, record)`` in strictly increasing address order.

        The scan takes a snapshot of each page's live slots before
        yielding, so callers may update *already-yielded* records (the
        fix-up pass does exactly that) without disturbing iteration.
        """
        for heap_page in range(len(self._pages)):
            page = self._pin(heap_page)
            try:
                entries = list(page.records())
            finally:
                self._unpin(heap_page, dirty=False)
            for slot_no, body in entries:
                yield Rid(heap_page, slot_no), body

    def page_entries(self, heap_page: int) -> "list[tuple[int, bytes]]":
        """Materialize one page's ``(slot_no, body)`` entries in slot order."""
        page = self._pin(heap_page)
        try:
            return list(page.records())
        finally:
            self._unpin(heap_page, dirty=False)

    def fix_batch(
        self,
        heap_page: int,
        schema,
        fix: "Optional[Callable[[PageBatch], Optional[Writes]]]" = None,
        only: "Optional[Sequence[int]]" = None,
    ) -> PageBatch:
        """Columnar :class:`~repro.storage.batch.PageBatch` of one page,
        and the annotation repairs ``fix`` decides on it, under one pin.

        ``fix(batch)`` returns ``(slot_no, prev, ts)`` triples — the
        8-byte ``PrevAddr`` / ``TimeStamp`` encodings to write into that
        record's tail, ``None`` keeping a field — or nothing to write.
        Each is written in the frame the read pinned, counted, observed
        and summarized exactly as :meth:`write_annotations` does it, in
        order; the batch's bodies were copied before, so they show the
        page as read.  The frame is released dirty only if something
        was written.  Whatever ``fix`` raises leaves the page as it was.

        ``only`` (ascending slot numbers) reads just those records: a
        *partial* batch.
        """
        physical = self._physical(heap_page)
        writes: "Optional[Writes]" = None
        frame = self._pool.pin(physical)
        try:
            batch = extract_page_batch(heap_page, frame, schema, only)
            if fix is not None:
                writes = fix(batch)
            if writes:
                self._write_tails(SlottedPage(frame), heap_page, writes)
        finally:
            self._pool.unpin(physical, dirty=bool(writes))
        return batch

    def _write_tails(
        self, page: SlottedPage, heap_page: int, writes: "Writes"
    ) -> None:
        """Overwrite the annotation tails ``writes`` names on the pinned
        ``page`` (raises if a slot is empty or its record too short for
        one) and do the updates' bookkeeping: one summary call for the
        page, then per write the count and the observers."""
        tails = page.patch_tails(writes)
        if self.summaries is not None:
            self.summaries.note_tails(heap_page, tails)
        self.writes.updates += len(tails)
        if self._write_observers:
            for slot_no, _ in tails:
                self._notify_write("update", Rid(heap_page, slot_no))

    def scan_rids(self) -> "Iterator[Rid]":
        """Yield live addresses in increasing order (no record bodies)."""
        for rid, _ in self.scan():
            yield rid

    def last_rid(self) -> Optional[Rid]:
        """The highest live address, or ``None`` for an empty heap."""
        for heap_page in range(len(self._pages) - 1, -1, -1):
            page = self._pin(heap_page)
            try:
                best: Optional[int] = None
                for slot_no, _ in page.records():
                    best = slot_no
            finally:
                self._unpin(heap_page, dirty=False)
            if best is not None:
                return Rid(heap_page, best)
        return None

    def for_each_page(self, visit: Callable[[int, SlottedPage], bool]) -> None:
        """Pin each page in order and call ``visit(heap_page, page)``.

        ``visit`` returns True when it dirtied the page.  Used by bulk
        maintenance passes that want page-at-a-time access.
        """
        for heap_page in range(len(self._pages)):
            page = self._pin(heap_page)
            dirty = False
            try:
                dirty = visit(heap_page, page)
            finally:
                self._unpin(heap_page, dirty=dirty)
