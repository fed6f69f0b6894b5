"""The differential snapshot refresh algorithm (combined fix-up + scan).

This is the paper's final form: one address-order scan of the base table
that simultaneously

1. repairs the lazy annotations (Figure 7's ``BaseFixup``), and
2. decides what to transmit (Figure 3's ``BaseRefresh``):

   - a *qualified* entry is transmitted when its timestamp is newer than
     the snapshot's ``SnapTime`` **or** deletions/changes were detected
     among the unqualified entries since the previous qualified entry
     (the ``Deletion`` flag);
   - an *unqualified* entry with a fresh timestamp sets the ``Deletion``
     flag, because it "may have qualified before" its modification;
   - the final ``EndOfScan`` message covers deletions at the end of the
     table, and the new ``SnapTime`` is sent last.

Over an eagerly annotated table the same scan runs with fix-up disabled,
which is exactly Figure 3 (:func:`base_refresh`).

The refresh is split by role: :mod:`~repro.core.cursor` (per snapshot:
Figure 3 and the sender's mirrors), :mod:`~repro.core.scanpass` (the
pass: Figure 7 and how each page is served) and this module, the scan
loop (chunks, the write watermark, the solo refresher).  There is one
serving path; :mod:`~repro.core.per_row`, the paper's loop entry by
entry, is the reference the tests run through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.cursor import (
    RefreshCursor,
    RefreshResult,
    Send,
    ValueCache,
    each_live,
)
from repro.core.scanpass import _ScanPass
from repro.errors import RefreshMethodError
from repro.expr.predicate import Projection, Restriction
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo
from repro.table import Table


@dataclass(frozen=True)
class ScanPlan:
    """Where a refresh scan hands the table lock back to writers.

    The scan runs ``chunk_pages`` heap pages per lock hold.  At each
    chunk boundary the driver calls ``release()``, then
    ``on_chunk_boundary(chunks)`` — where writers commit: the scan is
    the one thread of control and this is the point at which it yields
    — then ``acquire()``; ``chunks`` counts the chunks scanned so far.
    The caller holds the lock when it calls :func:`run_refresh_scan`
    and again when the call returns, with every stream sealed.  It
    then releases the lock and, before it commits the pass, opens one
    more window (:meth:`after_seal`): the seal's cut is the new
    ``SnapTime``, and a write there is the next refresh's
    (``docs/invariants.md``, "Seal").  A caller that manages no lock (a
    test) leaves the two hooks unset.
    """

    chunk_pages: int = 4
    on_chunk_boundary: "Optional[Callable[[int], None]]" = None
    acquire: "Optional[Callable[[], None]]" = None
    release: "Optional[Callable[[], None]]" = None

    def __post_init__(self) -> None:
        if self.chunk_pages < 1:
            raise RefreshMethodError("chunk_pages must be at least 1")

    def after_seal(self, chunks_scanned: int) -> None:
        """The writer window between the seal and the commit, the lock
        released: ``on_chunk_boundary(chunks_scanned)``, a value no
        boundary passes (the last boundary passes one less)."""
        if self.on_chunk_boundary is not None:
            self.on_chunk_boundary(chunks_scanned)


def run_refresh_scan(
    table: Table,
    cursors: "Sequence[RefreshCursor]",
    fixup: Optional[bool] = None,
    plan: Optional[ScanPlan] = None,
) -> RefreshResult:
    """One combined fix-up + refresh pass serving every cursor.

    The returned :class:`RefreshResult` holds the *pass-level* counters:
    pages and rows were read once no matter how many cursors rode along,
    fix-up was applied to the base table exactly once, and each entry
    was partial-decoded at most once for the whole pass.  Per-cursor
    traffic lands on each cursor's own ``result``, which also receives a
    copy of the pass-level costs.

    Each page is served by one routine,
    :meth:`~repro.core.scanpass._ScanPass.page`, which returns what it
    did with it (:class:`~repro.core.scanpass.PageOutcome`).  The pass
    reads the heap's page summaries iff some cursor holds a page cache.

    A :class:`~repro.errors.ChannelError` on one cursor's output marks
    that cursor failed (``cursor.error``) and the pass continues for the
    rest (:func:`~repro.core.cursor.each_live`); a caller with a single
    cursor re-raises it.  The caller holds the table-level lock.

    **Chunks.**  Without a ``plan`` the whole heap is one chunk scanned
    under the caller's lock — the paper's scan.  With a
    :class:`ScanPlan` the same loop is the DBLog "virtual cuts"
    construction (``docs/algorithm.md``): the lock is released between
    chunks, and the heap's write observer numbers every record write
    (the watermark) and notes, per page, the slots written since the
    pass last read the page.  A window's writes are those numbered
    after its low watermark; the pass's own fix-up writes, a chunk's or
    a repair's, are dropped once the page they land on has been read.
    At the start of each lock hold after a window that wrote,
    :meth:`~repro.core.scanpass._ScanPass.repair_pages` brings the
    pages that window wrote *behind* the scan to what a scan at that
    moment leaves, in the base table and in every stream
    (``REPAIRED``), and the next chunk sets out from the repaired
    prefix.  So a hold repairs one window's pages, never the whole
    pass's; a page written in several windows is repaired in each.  A
    cursor queues its repair messages until its ``EndOfScan``; with no
    interleaved writes the emitted stream is byte-for-byte the
    one-chunk scan's.

    *Pass time* (``docs/invariants.md``).  A stamp carries the time of
    the lock hold it is written under: after a window in which anything
    was written the pass takes a fresh ``FixupTime``, so a sibling
    refreshed inside the window still sees as new whatever the pass
    stamps afterwards.  The new ``SnapTime`` is the last hold's time.

    *Seal.*  The call returns under that last hold with every live
    cursor's stream up to its ``EndOfScan``, its queued repairs and its
    staged mark built: the stream is a cut of the table at the new
    ``SnapTime``.  The caller may release the lock there and deliver
    and commit outside it; a later write either lands beyond the mark
    or moves the version of a page past its record, so the next pass
    reads it.
    """
    return drive(_ScanPass(table, cursors, fixup), cursors, plan)


def drive(
    scan: _ScanPass,
    cursors: "Sequence[RefreshCursor]",
    plan: Optional[ScanPlan] = None,
) -> RefreshResult:
    """The loop of :func:`run_refresh_scan` over a constructed pass: the
    chunks, the write watermark and the repairs, then the seal."""
    table = scan.table
    heap = scan.heap
    # The write watermark: one monotone sequence number per physical
    # record write; per page, the slots written since the pass read it.
    seq = 0
    written: "dict[int, set[int]]" = {}

    def watch(kind: str, rid: Rid) -> None:
        nonlocal seq
        seq += 1
        written.setdefault(rid.page_no, set()).add(rid.slot_no)

    def read_behind(front: int) -> "dict[int, list[int]]":
        """Take the slots written on the pages below ``front``."""
        return {
            page_no: sorted(written.pop(page_no))
            for page_no in [page_no for page_no in written if page_no < front]
        }

    unsubscribe: "Optional[Callable[[], None]]" = None
    if plan is not None:
        acquire, release = plan.acquire, plan.release
        # Subscribed with the caller's lock already held: nothing that
        # can fail stands between here and the ``finally`` below.
        unsubscribe = heap.observe_writes(watch)
    try:
        stats = scan.stats
        next_page = 0
        # The bound is re-read under the lock: pages appended by
        # interleaved inserts extend the scan instead of escaping it.
        while next_page < heap.page_count and not all(
            cursor.failed for cursor in cursors
        ):
            stop = heap.page_count
            if plan is not None:
                if next_page:
                    # A chunk boundary: writers get the lock.
                    if release is not None:
                        release()
                    low = seq
                    try:
                        if plan.on_chunk_boundary is not None:
                            plan.on_chunk_boundary(stats.chunks_scanned)
                    finally:
                        if acquire is not None:
                            acquire()
                    if seq > low:
                        # Pass time: a stamp carries the time of the
                        # lock hold it is written under, later than any
                        # SnapTime a sibling took inside the window.
                        stats.interleaved_writes += seq - low
                        scan.fixup_time = table.db.clock.tick()
                        # The window's writes behind the scan (deletes
                        # included: an emptied slot still leaves the
                        # receiver's image of it stale).
                        dirty = read_behind(next_page)
                        if dirty:
                            scan.repair_pages(cursors, dirty, next_page)
                stop = min(next_page + plan.chunk_pages, heap.page_count)
            reached = scan.scan_pages(cursors, next_page, stop)
            if plan is not None:
                # The pass's own fix-up writes, the chunk's and the
                # repair's: every page below ``reached`` is read since.
                read_behind(reached)
                stats.chunks_scanned += 1
            next_page = reached

        # Short of the heap's end every output has failed.
        completed = next_page >= heap.page_count
        each_live(cursors, RefreshCursor.end_scan)
        each_live(cursors, lambda cursor: cursor.finish(scan.fixup_time))
        return scan.seal(cursors, completed)
    finally:
        if unsubscribe is not None:
            unsubscribe()


class DifferentialRefresher:
    """Executes differential refreshes of one base table.

    Stateless between calls: all per-snapshot state (``SnapTime``, the
    page mirror and value cache the caller passes) lives with the
    snapshot, all change state lives in the base table's annotations —
    which is what lets any number of snapshots share one set of
    annotations.  ``optimize_deletes`` defaults off, so a directly
    constructed refresher given no mirrors runs the paper's rule; the
    manager turns it on and hands each snapshot's mirrors in.
    """

    #: The scan each refresh runs (the per-row reference's subclass
    #: runs its own).
    _scan = staticmethod(run_refresh_scan)

    def __init__(self, table: Table, optimize_deletes: bool = False) -> None:
        if not table.has_annotations:
            raise RefreshMethodError(
                f"differential refresh requires annotations on {table.name!r}"
            )
        self.table = table
        self.optimize_deletes = optimize_deletes

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        fixup: Optional[bool] = None,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        value_cache: "Optional[ValueCache]" = None,
        plan: Optional[ScanPlan] = None,
    ) -> RefreshResult:
        """One combined fix-up + refresh scan: a group pass of one cursor.

        ``fixup`` defaults by annotation mode: lazy tables repair as they
        scan; eager tables trust their annotations (pure Figure 3).
        ``cache`` is the snapshot's page mirror (page summaries: skips,
        visits and the address mirror's arming rule) and ``value_cache``
        its transmitted-values mirror (per-column update deltas); the
        caller keeps both, and commits or aborts ``value_cache`` from the
        epoch outcome.  ``None`` is the paper's rule with no delta.
        ``plan`` makes the scan writer-concurrent (:class:`ScanPlan`),
        its window after the seal included, before the records commit.
        The caller holds the table-level lock.
        """
        cursor = RefreshCursor(
            snap_time,
            restriction,
            projection,
            send,
            cache=cache,
            optimize_deletes=self.optimize_deletes,
            value_cache=value_cache,
        )
        sealed = self._scan(self.table, (cursor,), fixup=fixup, plan=plan)
        if plan is not None:
            plan.after_seal(sealed.chunks_scanned)
        if cursor.error is not None:
            raise cursor.error
        cursor.commit_pages()  # the synchronous stream completed
        return cursor.result


def base_refresh(
    table: Table,
    snap_time: int,
    restriction: Restriction,
    projection: Projection,
    send: Send,
) -> RefreshResult:
    """Figure 3's ``BaseRefresh``: refresh without fix-up.

    For eagerly maintained tables, or lazy tables immediately after a
    standalone :func:`~repro.core.fixup.base_fixup` pass.
    """
    return DifferentialRefresher(table).refresh(
        snap_time, restriction, projection, send, fixup=False
    )
