"""Figure 7 and page serving: the shared half of a refresh pass.

A :class:`_ScanPass` owns what one pass shares between its cursors —
the fix-up's boundary state, the fix-up timestamp, the pass counters —
and serves the heap one page at a time through :meth:`_ScanPass.page`,
which returns what it did with the page (:class:`PageOutcome`).  Beyond
the paper, and changing no transmitted byte, a page whose
:class:`~repro.storage.summary.PageSummary` proves nothing changed is
crossed unread or visited for its changed slots, and a page read whole
is probed for just the annotations and restriction columns; DESIGN.md
§3, "How a page is served", has the outcome table and why each is safe.
This is the one serving path, every page read served from a columnar
batch; the paper's loop is the tests' reference, :mod:`~repro.core.per_row`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from enum import IntEnum
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro import sanitize
from repro.core.cursor import (
    CURSOR_TOTAL_FIELDS,
    PASS_FIELDS,
    RefreshCursor,
    RefreshResult,
)
from repro.errors import ChannelError, RefreshMethodError
from repro.relation.row import Row
from repro.storage.batch import PREV_NULL_PAGE, TS_NULL, PageBatch
from repro.storage.heap import Writes
from repro.storage.rid import Rid
from repro.storage.summary import (
    LogMark,
    PageMirror,
    PageQualInfo,
    PageSummary,
    PageSummaryMap,
)
from repro.table import Table, annotation_columns

#: Effective timestamp of an entry found with a NULL annotation: newer
#: than every ``SnapTime`` (the largest value the i64 column holds).
TS_INFINITY = 2**63 - 1

#: What Figure 7 found on a page read whole (:meth:`_ScanPass._fix_up`):
#: each entry's effective timestamp, the anomaly slots, and the first
#: ``PrevAddr`` as repaired.
Fixed = Tuple["array[int]", List[int], Rid]

#: The cursors a page is served to, each with its record of the page.
Reading = Dict[RefreshCursor, Optional[PageQualInfo]]


def _unread(slot_no: int) -> Row:
    """``row_at`` of a page crossed unread, or visited for a carried
    ``Deletion`` flag alone: it has no row to send."""
    raise RefreshMethodError(f"an unread page was to transmit slot {slot_no}")


class PageOutcome(IntEnum):
    """What a pass did with one heap page (:meth:`_ScanPass.page`).

    A cursor the page does not concern takes ``SKIPPED`` on a page read
    for others; every other cursor takes the page's outcome.
    """

    #: Not read: crossed from each cursor's committed record of it.
    SKIPPED = 0
    #: Only the slots that changed read (and stamped) — none, when a
    #: carried ``Deletion`` flag alone brought a cursor.
    VISITED = 1
    #: Read whole into a columnar batch; Figure 7 over its columns.
    BATCH = 2
    #: Read whole entry by entry: the per-row reference only.
    ROWS = 3
    #: Written behind an online pass in a window; repaired at the start
    #: of the next lock hold (once per window that wrote it).
    REPAIRED = 4


# Module-level names: an enum member read off its class costs a lookup
# through the metaclass, several times per page.
SKIPPED, VISITED, BATCH, ROWS, REPAIRED = PageOutcome


def _tally(result: RefreshResult, outcome: PageOutcome) -> None:
    """The page counters a page read moves, on a pass's or a cursor's
    (``SKIPPED`` moves ``pages_skipped`` alone, counted where it is
    decided)."""
    if outcome is REPAIRED:
        result.pages_repaired += 1
    else:
        result.pages_scanned += 1
        result.pages_batch_decoded += 1


class _ScanPass:
    """One combined fix-up + refresh pass: its fix-up state
    (``ExpectPrev`` / ``last_addr``, the fix-up timestamp) and counters.
    :meth:`scan_pages` serves a half-open page range and leaves the
    state positioned for the next, so a scan can run chunk by chunk."""

    __slots__ = (
        "table",
        "schema",
        "heap",
        "summaries",
        "fixup",
        "audit",
        "stats",
        "fixup_time",
        "expect_prev",
        "last_addr",
        "_encode_prev",
        "_encode_ts",
        "_hits_before",
        "_misses_before",
        "_due",
        "_logged",
    )

    def __init__(
        self,
        table: Table,
        cursors: "Sequence[RefreshCursor]",
        fixup: Optional[bool],
    ) -> None:
        if fixup is None:
            fixup = table.annotation_mode == "lazy"
        self.table = table
        self.fixup = fixup
        self.schema = table.schema
        #: Run the sanitizer's page checks (read once: an environment
        #: lookup costs a visit's worth of work).
        self.audit = sanitize.enabled()
        self.heap = table.heap
        # Page records are kept, so can be believed, only by a pass that
        # records them: one where some cursor holds a page cache.
        self.summaries: "Optional[PageSummaryMap]" = (
            self.heap.summaries
            if any(cursor.cache is not None for cursor in cursors)
            else None
        )
        self.stats = RefreshResult()
        self.stats.group_cursors = len(cursors)
        pool_stats = self.heap.pool.stats
        self._hits_before = pool_stats.hits
        self._misses_before = pool_stats.misses
        self.fixup_time = table.db.clock.tick()
        self.expect_prev = Rid.BEGIN
        self.last_addr = Rid.BEGIN
        # Figure 7 hands the heap annotation bytes.  A stamp is encoded
        # from fixup_time where it is written: an online pass re-ticks it.
        prev_column, ts_column = annotation_columns()
        self._encode_prev = prev_column.ctype.encode
        self._encode_ts = ts_column.ctype.encode
        #: The pages written since the oldest cursor's mark, ascending,
        #: as of write-log position ``_logged``; ``None``: every page is
        #: served through :meth:`page`.
        self._due: "Optional[list[int]]" = None
        self._logged = 0
        oldest = self._oldest_mark(cursors)
        if oldest is not None:
            written = oldest.log.changed_since(oldest.position)
            if written is not None:
                self._due = sorted(written)
                self._logged = oldest.log.writes

    def _oldest_mark(
        self, cursors: "Sequence[RefreshCursor]"
    ) -> Optional[LogMark]:
        """The oldest of the cursors' marks on this heap's write log, or
        ``None`` when some cursor has none it may use: no page cache, an
        unknown mark, or one taken at a later ``SnapTime`` than it
        refreshes from (a page settled then need not be now)."""
        oldest: Optional[LogMark] = None
        for cursor in cursors:
            cache = cursor.cache
            mark = cache.mark if isinstance(cache, PageMirror) else None
            if (
                mark is None
                or mark.log is not self.summaries
                or mark.snap_time > cursor.snap_time
            ):
                return None
            if oldest is None or mark.position < oldest.position:
                oldest = mark
        return oldest

    def _due_pages(self, start: int) -> "Optional[list[int]]":
        """:attr:`_due`, with the pages from ``start`` on written since it
        was last read (an online pass's window writes)."""
        due, log = self._due, self.summaries
        if due is None or log is None or self._logged == log.writes:
            return due
        written = log.changed_since(self._logged)
        if written is None:  # rebuilt under the pass: serve the rest
            self._due = None
            return None
        self._logged = log.writes
        for page_no in written:
            if page_no >= start:
                at = bisect_left(due, page_no)
                if at == len(due) or due[at] != page_no:
                    due.insert(at, page_no)
        return due

    def scan_pages(
        self, cursors: "Sequence[RefreshCursor]", start: int, stop: int
    ) -> int:
        """Serve every cursor over heap pages ``[start, stop)``; return
        the first page not served (earlier when every output failed).

        Only the pages written since the oldest cursor's mark go through
        :meth:`page`; each run of pages between them is crossed in one
        step (:meth:`_cross`).  Without marks every page is served.
        """
        due = self._due_pages(start)
        page_no = start
        while page_no < stop:
            for cursor in cursors:
                if not cursor.failed:
                    break
            else:
                return page_no
            if due is not None:
                at = bisect_left(due, page_no)
                end = due[at] if at < len(due) and due[at] < stop else stop
                if end > page_no:
                    page_no = self._cross(cursors, page_no, end)
                    if page_no == end:
                        continue
            self.page(page_no, cursors)
            page_no += 1
        return stop

    def _cross(
        self, cursors: "Sequence[RefreshCursor]", start: int, end: int
    ) -> int:
        """Cross pages ``[start, end)``, none written since any cursor's
        mark, from each live cursor's committed records; return the
        first page not crossed (``end``, or one :meth:`page` must serve).

        Log completeness (``docs/invariants.md``) proves every such page
        settled with a current record, which :meth:`page` would skip, so
        only the tests on the pass's own state run here: the boundary
        test (:meth:`_clean`) at the run's first live page — past it the
        unwritten pages are chained as the marking pass left them — and
        a carried ``Deletion`` flag at its first qualifying page (at its
        first page, where a visit cannot answer it).  Either failing
        stops the run at that page.
        """
        live = [cursor for cursor in cursors if not cursor.failed]
        pages = range(start, end)
        records = [list(map(cursor.cache.__getitem__, pages)) for cursor in live]
        first = records[0]
        # A pure insert pending at the boundary: the first page is read.
        stop = end if self._clean(None) else start
        for index in range(stop - start):
            if first[index].last_live is not None:
                if not all(self._clean(infos[index].first_prev) for infos in records):
                    stop = start + index
                break
        for cursor, infos in zip(live, records):
            if cursor.deletion:
                if not self.fixup:
                    stop = start
                for index in range(stop - start):
                    if infos[index].qual_slots:
                        stop = start + index
                        break
        count = stop - start
        if not count:
            return start
        if self.audit:
            sanitize.check_crossed_run(
                self.table, live, start, stop, self.expect_prev if self.fixup else None
            )
        for cursor, infos in zip(live, records):
            cursor.cross_run(start, infos[:count])
        self.stats.pages_skipped += count
        for info in reversed(first[:count]):
            if info.last_live is not None:
                self._advance(info.last_live)
                break
        return stop

    def page(
        self,
        page_no: int,
        cursors: "Sequence[RefreshCursor]",
        changed: "Optional[Sequence[int]]" = None,
    ) -> PageOutcome:
        """Serve heap page ``page_no`` to the ``cursors`` still live;
        return what the pass did with it.  ``changed``, the slots written since
        the scan read the page, makes this the online repair.

        A cursor whose record the summary proves current
        (:meth:`_settled`) crosses the page unread unless it has work
        there: changed or freed slots, or a carried ``Deletion`` flag one
        of its qualifiers must answer.  Anyone else has the page read whole,
        and whoever has work rides that read.  Figure 7 (:meth:`_fix`)
        runs before any cursor is served (:meth:`_serve`), so a channel
        failure never leaves a page half repaired.
        """
        reading: Reading = {}
        delta: "Optional[PageBatch]" = None
        whole: "Optional[PageBatch]" = None
        fixed: "Optional[Fixed]" = None
        freed: "Collection[int]" = ()
        if changed is not None:
            reading = {c: c.page_info(page_no) for c in cursors if not c.failed}
            if self.fixup:
                last_live = self.heap.summaries.get_or_create(page_no).last_live_rid
                delta, whole, fixed = self._fix(page_no, changed, last_live)
            else:
                delta = self._read(page_no, changed)
            if whole is None and None in reading.values():
                # A cursor without a page cache republishes it whole.
                whole = self._read(page_no)
            return self._serve(page_no, REPAIRED, reading, delta, whole, fixed, changed)
        summary = self.summaries.get(page_no) if self.summaries is not None else None
        visiting: "dict[RefreshCursor, PageQualInfo]" = {}
        skipping: "list[tuple[RefreshCursor, PageQualInfo]]" = []
        for cursor in cursors:
            if cursor.failed:
                continue
            entry = cursor.cache.get(page_no) if cursor.cache else None
            if (
                summary is None
                or entry is None
                or not self._settled(cursor, entry, summary)
            ):
                reading[cursor] = entry
            elif (
                summary.null_slots
                or summary.freed_slots
                or (cursor.deletion and entry.qual_slots)
            ):
                visiting[cursor] = entry
            else:
                skipping.append((cursor, entry))
        for cursor, entry in skipping:
            # Nothing here concerns it: no event, so nothing to fail.
            cursor.cross(page_no, entry, None, (), None, _unread)
            cursor.result.pages_skipped += 1
        if reading:  # whoever has work on the page rides the whole read
            reading.update(visiting)
            return self._whole(page_no, reading)
        if summary is not None and (summary.null_slots or summary.freed_slots):
            reading.update(visiting)
            freed = summary.freed_slots  # emptied by replacement, not in place
            delta, whole, fixed = self._fix(
                page_no,
                sorted(summary.null_slots.union(freed)),
                summary.last_live_rid,
            )
            outcome = VISITED if whole is None else BATCH
        else:
            # Nothing changed, so nothing is read: a carried Deletion
            # flag may still have a cursor visit its qualifiers.
            crossed = skipping[0][1] if skipping else next(iter(visiting.values()))
            self._advance(crossed.last_live)
            if not visiting:
                self.stats.pages_skipped += 1
                return SKIPPED
            outcome = VISITED
            reading.update(visiting)
        return self._serve(page_no, outcome, reading, delta, whole, fixed, None, freed)

    def _whole(self, page_no: int, reading: Reading) -> PageOutcome:
        """Serve the page read whole to ``reading``: one columnar batch,
        Figure 7 over its columns (:meth:`_fix`)."""
        _, whole, fixed = self._fix(page_no)
        return self._serve(page_no, BATCH, reading, None, whole, fixed, None)

    def _serve(
        self,
        page_no: int,
        outcome: PageOutcome,
        reading: Reading,
        delta: "Optional[PageBatch]",
        whole: "Optional[PageBatch]",
        fixed: "Optional[Fixed]",
        changed: "Optional[Sequence[int]]",
        freed: "Collection[int]" = (),
    ) -> PageOutcome:
        """Serve each cursor in ``reading`` (with its record of the page,
        if any) what :meth:`page` read: :meth:`RefreshCursor.cross` if it
        holds a record (``freed``: the slots a visit knows were emptied),
        else :meth:`RefreshCursor.paper_rule`, or
        :meth:`RefreshCursor.repair_page`; then count, record, audit."""
        # Each entry's effective timestamp (TS_INFINITY where Figure 7
        # found a NULL stamp or a pure insert) and what it detected.
        eff_ts: "Sequence[int]" = ()
        anomalies: "Sequence[int]" = ()
        newest = 0
        first_prev: object = None
        if fixed is not None:
            eff_ts, anomalies, first_prev = fixed
            newest = max(eff_ts)
        elif whole is not None:
            eff_ts, first_prev = whole.ts, whole.first_prev
            # The batch's own maximum leaves out entries with a NULL.
            newest = max(eff_ts) if whole.has_nulls else whole.max_live_ts
        elif delta is not None:
            first_prev = delta.first_prev
        # Entries with a timestamp to test; a plain visit read only
        # entries that changed (all NULL-stamped).
        timed = fixed is not None or whole is not None
        newer: "dict[int, Sequence[int]]" = {}  # per SnapTime riding
        # A visit sends rows only of changed slots; a qualifier a
        # Deletion flag forces out goes as a range delete, never read.
        row_at = delta.row_at if delta is not None else _unread
        stats = self.stats
        # each_live's loop, written out: a step closure per page cost
        # ≈ 2 % of a refresh that mostly visits.
        for cursor, entry in reading.items():
            if cursor.failed:
                continue
            try:
                if changed is not None:
                    batch = whole if entry is None else delta
                    if batch is not None:
                        cursor.repair_page(page_no, entry, changed, batch)
                    continue
                if timed:
                    since = cursor.snap_time
                    if since not in newer:
                        newer[since] = (
                            [i for i, ts in enumerate(eff_ts) if ts > since]
                            if newest > since
                            else ()
                        )
                    indices = newer[since]
                else:
                    indices = range(delta.count) if delta is not None else ()
                if whole is not None:
                    if entry is None:
                        cursor.paper_rule(whole, indices, anomalies)
                    else:
                        cursor.cross(
                            page_no, entry, whole, indices, whole.live, whole.row_at
                        )
                elif entry is not None:
                    cursor.cross(page_no, entry, delta, indices, None, row_at, freed)
            except ChannelError as error:
                cursor.fail(error)
        decoded = delta.materializations if delta is not None else 0
        if whole is not None:
            decoded += whole.materializations
        stats.rows_materialized += decoded
        served = whole if whole is not None else delta
        scanned = served.count if served is not None and changed is None else 0
        stats.scanned += scanned
        _tally(stats, outcome)
        for cursor in reading:
            cursor.result.scanned += scanned
            _tally(cursor.result, outcome)
        # A visit for a Deletion flag alone read nothing: the record stands.
        if delta is not None or outcome is not VISITED:
            self._record(page_no, reading, first_prev)
        if self.audit:
            if outcome is BATCH and whole is not None:
                sanitize.check_whole_page_read(self.table, whole, list(reading))
            elif delta is not None:
                sanitize.check_changed_slot_visit(
                    self.table,
                    page_no,
                    [
                        (c, entry)
                        for c, entry in reading.items()
                        if c.cache is not None and not c.failed
                    ],
                    changed if changed is not None else freed,
                    "an online repair"
                    if changed is not None
                    else "a changed-slot visit",
                    self.fixup,
                )
            held = [(c, entry) for c, entry in reading.items() if entry is not None]
            sanitize.check_value_mirror(self.table, page_no, held)
        return outcome

    def _record(self, page_no: int, reading: Reading, first_prev: object) -> None:
        """Record the page for each live cursor in ``reading`` that keeps
        a page cache, and mark it chained.  Called after Figure 7, so a
        record describes the page as this pass left it (staged: a failed
        cursor never commits)."""
        if self.summaries is not None:
            summary = self.summaries.get_or_create(page_no)
            for cursor in reading:
                if cursor.cache is not None and not cursor.failed:
                    cursor.record_page(summary, first_prev, cursor.page_quals)
        if self.heap.summaries is not None:
            # Figure 7 has passed the page: the deletes it detects here
            # are no longer the freed set's to name.
            self.heap.summaries.chained(page_no, self.fixup_time)

    def _settled(
        self, cursor: RefreshCursor, info: PageQualInfo, summary: PageSummary
    ) -> bool:
        """Whether ``cursor`` may cross the page from ``info``, its
        committed record of it, without the page read whole.

        Nothing outside the summary's ``null_slots`` and ``freed_slots``
        may have changed after the cursor's ``SnapTime``.  With none
        named the record's version must still be the page's; with some,
        it moved by definition and the summary alone is the proof
        ("summary completeness", ``docs/invariants.md``).  Work on the
        page — changed or freed slots, a ``Deletion`` flag carried in —
        takes a visit, which a scan without fix-up never does.  And the
        boundary must be clean (:meth:`_clean`).
        """
        named = bool(summary.null_slots or summary.freed_slots)
        return (
            info.page_version is not None  # holdings only: no layout
            and summary.settled(cursor.snap_time)
            and (self.fixup or not (named or cursor.deletion))
            and (named or info.page_version == summary.page_version)
            and self._clean(info.first_prev)
        )

    def _clean(self, first_prev: object) -> bool:
        """The boundary test: the fix-up state at this page boundary is
        what it was when the page's first ``PrevAddr`` read
        ``first_prev`` (``None``: the page was empty).  A pending pure
        insert (``last_addr != ExpectPrev``) would repoint that
        ``PrevAddr``, and a mismatch is precisely a deletion anomaly
        hiding on the page.  Without fix-up there is no such state."""
        expect = self.expect_prev
        return not self.fixup or (
            self.last_addr == expect
            and (first_prev is None or first_prev == expect)
        )

    def _read(
        self,
        page_no: int,
        only: "Optional[Sequence[int]]" = None,
        fix: "Optional[Callable[[PageBatch], Optional[Writes]]]" = None,
    ) -> PageBatch:
        """The page's batch — whole, or ``only`` those slots — charged as
        read, with the Figure-7 writes ``fix`` decides on it made under
        the same pin (:meth:`~repro.storage.heap.HeapFile.fix_batch`)."""
        batch = self.heap.fix_batch(page_no, self.schema, fix, only)
        self.stats.rows_decoded += batch.count
        return batch

    def _fix(
        self,
        page_no: int,
        changed: "Optional[Sequence[int]]" = None,
        last_live: Optional[Rid] = None,
    ) -> "tuple[Optional[PageBatch], Optional[PageBatch], Optional[Fixed]]":
        """Figure 7 on one page; returns the partial batch of
        ``changed``, the page read whole if it had to be, and what
        :meth:`_fix_up` found there if it ran.

        ``changed`` (a pass with fix-up) are the only slots that may
        have changed.  When each one still there was written since
        Figure 7 last passed — its ``TimeStamp`` NULL — Figure 7 runs on
        what they touched, and moves on to ``last_live``, the page's
        last live address: plain updates are only stamped; where a slot
        was emptied or newly inserted the partial batch also holds the
        next live record after it, and :meth:`_fix_up` walks the records
        read, each set out from its live predecessor — every record
        between is unchanged, chained to the one before.  Unless the
        page's first live record is among them the boundary must be
        clean (:meth:`_clean`).  Anything else reads the page whole:
        with no NULL annotation, an intact chain and a clean boundary it
        writes nothing (the no-flags case), else :meth:`_fix_up`
        repairs what needs it.  Without fix-up a NULL stamp is an error.
        Each read pins the page once: the writes are decided on its
        batch, whole, before the first byte is written, then made in the
        frame the read pinned.
        """
        fixed: "Optional[Fixed]" = None
        delta = None
        if changed is not None:
            visited = False

            def visit(delta: PageBatch) -> "Optional[Writes]":
                nonlocal visited, fixed
                preds, count = delta.preds, delta.count
                # The NULL stamps are exactly the named records still
                # there: a successor read for Figure 7 has its stamp.
                if preds is None:  # in-place updates only
                    named = delta.ts.count(TS_NULL) == count
                else:
                    asked = set(changed)
                    named = all(
                        (slot_no in asked) == (stamp == TS_NULL)
                        for slot_no, stamp in zip(delta.slots, delta.ts)
                    )
                head = preds is not None and count and preds[0] < 0
                if not named or not (head or self._clean(delta.first_prev)):
                    return None
                visited = True
                if preds is None:
                    ts = self._encode_ts(self.fixup_time)
                    self.stats.fixup_writes += count
                    return [(slot_no, None, ts) for slot_no in changed]
                if not count:
                    return None
                writes, fixed = self._fix_up(delta)
                return writes

            delta = self._read(page_no, changed, visit)
            if visited:
                # The records after the last one read are chained as they
                # were: the walk ends at the page's last live address.
                if fixed is None or delta.slots[-1] != last_live.slot_no:
                    self._advance(last_live)
                return delta, None, fixed

        def figure7(batch: PageBatch) -> "Optional[Writes]":
            nonlocal fixed
            if self.fixup and batch.count and (
                batch.has_nulls
                or not batch.chain_ok
                or not self._clean(batch.first_prev)
            ):
                writes, fixed = self._fix_up(batch)
                return writes
            if not self.fixup and batch.has_nulls and TS_NULL in batch.ts:
                rid = Rid(batch.page_no, batch.slots[batch.ts.index(TS_NULL)])
                raise RefreshMethodError(
                    f"entry {rid} has a NULL timestamp but fix-up "
                    f"is disabled; run base_fixup first or use a "
                    f"lazy table"
                )
            self._advance(batch.last_rid())
            return None

        whole = self._read(page_no, fix=figure7)
        return delta, whole, fixed

    def _fix_up(self, batch: PageBatch) -> "tuple[Writes, Fixed]":
        """Figure 7 over one page's annotation columns.

        Walks ``prev_pages/prev_slots/ts`` with exactly the per-row
        loop's decisions and returns the writes for only the records
        that need it, in slot order, with the effective-timestamp
        column (NULL stamp or pure insert ⇒ :data:`TS_INFINITY`), the
        pure-insert and anomaly slots, and the first entry's
        ``PrevAddr`` as repaired; the batch holds at least one entry (an
        empty page is write-free).  Of a partial batch with ``preds``
        the walk takes up each record from its live predecessor when the
        record before it was not read (those between are unchanged and
        chained), and the page's first ``PrevAddr`` as read when the
        first live record was not.
        """
        stats = self.stats
        encode_prev = self._encode_prev
        stamp = self._encode_ts(self.fixup_time)
        writes: "list[tuple[int, Optional[bytes], Optional[bytes]]]" = []
        page_no = batch.page_no
        slots = batch.slots
        prev_pages = batch.prev_pages
        prev_slots = batch.prev_slots
        eff_ts = array("q", batch.ts)
        anomalies: "list[int]" = []
        # ExpectPrev / last_addr as plain (page, slot) pairs: an address
        # object is only built for the few records that get written.
        expect = self.expect_prev.key()
        last = self.last_addr.key()
        first_prev = self.last_addr
        # Where a partial walk takes up again: index -> live predecessor.
        resume: "dict[int, tuple[int, int]]" = {}
        head = True  # the walk starts at the page's first live record
        preds = batch.preds
        if preds is not None:
            resume = {
                index: (page_no, pred)
                for index, pred in enumerate(preds)
                if pred >= 0 and not (index and pred == slots[index - 1])
            }
            if preds[0] >= 0:
                head = False
                first_prev = batch.first_prev
        for index in range(batch.count):
            prev = (prev_pages[index], prev_slots[index])
            here = (page_no, slots[index])
            if index in resume:
                last = expect = resume[index]
            if prev[0] == PREV_NULL_PAGE:
                # Inserted since the last fix-up.
                eff_ts[index] = TS_INFINITY
                writes.append((here[1], encode_prev(Rid(*last)), stamp))
            else:
                new_prev: Optional[bytes] = None
                ts: Optional[bytes] = None
                if eff_ts[index] == TS_NULL:
                    # Updated since the last fix-up.
                    eff_ts[index] = TS_INFINITY
                    ts = stamp
                if prev != expect:
                    # Deletion(s) detected before this entry.
                    new_prev = encode_prev(Rid(*last))
                    ts = stamp
                    anomalies.append(here[1])
                    stats.deletions_detected += 1
                elif prev != last:
                    # Insertions (only) before this entry.
                    new_prev = encode_prev(Rid(*last))
                if new_prev is not None or ts is not None:
                    writes.append((here[1], new_prev, ts))
                if not index and head and new_prev is None:
                    first_prev = Rid(*prev)
                expect = here
            last = here
        stats.fixup_writes += len(writes)
        self.expect_prev = Rid(*expect)
        self.last_addr = Rid(*last)
        return writes, (eff_ts, anomalies, first_prev)

    def _advance(self, last_live: Optional[Rid]) -> None:
        """Cross a page nobody scanned: it needs no (further) fix-up, so
        the shared fix-up state moves exactly as a scan would leave it."""
        if last_live is not None:
            self.last_addr = self.expect_prev = last_live

    def repair_pages(
        self,
        cursors: "Sequence[RefreshCursor]",
        dirty: "dict[int, list[int]]",
        front: int,
    ) -> None:
        """At the start of a lock hold: bring the pages a window wrote
        behind the scan front (``front``, the next page to scan) —
        ``dirty``, page → slots written since the pass read the page —
        to the state a scan at this moment leaves, in the base table and
        in every live cursor's (queued) stream.

        Per page, ascending, through :meth:`page`.  Figure 7 sets out
        from the last live entry before the page (the whole prefix was
        chained when the window opened) or, when no live entry
        separates it from the previous dirty page, from what that page's
        fix-up left; either way the walk goes one entry further, to the
        page's successor (:meth:`_close_chain`).  When that successor is
        on the scan front, the next chunk sets out from the state the
        last page left; otherwise from the boundary state it had before,
        which the window did not touch.  A table scanned without fix-up
        takes only the publishing.
        """
        if self.heap.summaries is None:  # annotations attach them
            raise RefreshMethodError("page repair needs the heap's summaries")
        boundary = self.expect_prev, self.last_addr
        carried = False
        for page_no in sorted(dirty):
            if self.fixup and not carried:
                self._advance(self._live_before(page_no))
            self.page(page_no, cursors, dirty[page_no])
            carried = self.fixup and self._close_chain(
                page_no, dirty, cursors, front
            )
        if not carried:
            self.expect_prev, self.last_addr = boundary
        if self.audit and (self.fixup or self.table.eager is not None):
            sanitize.check_annotation_chain(self.table, front)

    def _live_before(self, page_no: int) -> Rid:
        """The last live address below ``page_no``, off the heap's page
        summaries: O(1) but for empty pages in between."""
        for earlier in range(page_no - 1, -1, -1):
            summary = self.heap.summaries.get(earlier)
            last = summary.last_live_rid if summary is not None else None
            if last is not None:
                return last
        return Rid.BEGIN

    def _close_chain(
        self,
        page_no: int,
        dirty: "dict[int, list[int]]",
        cursors: "Sequence[RefreshCursor]",
        front: int,
    ) -> bool:
        """Take Figure 7 one entry past a repaired page.

        An insert or a delete at the tail of a page is recorded on its
        *successor* — the next live entry, wherever it is — so the
        repair is not closed until that entry has been through
        :meth:`_fix_up` with the state the page left.  That holds for a
        page that only took updates too: a sibling's fix-up in the
        window may have chained a tail insert the page's chunk never
        saw, and the cause then reads as a plain update.  When the
        entry is on a dirty page or at or past the scan ``front`` (or
        there is none), it will go through: returns True, and that
        page's fix-up or the next chunk starts from the carried state.
        On a clean page behind the front just that record is read and
        fixed — unless a cursor's record of the page, of its current
        version, shows its first ``PrevAddr`` already chained to the
        state (the boundary test): then the read would write nothing.
        If it wrote, the record each cursor keeps of the page moves to
        the new version and first ``PrevAddr`` (the page still skips at
        the next refresh).
        """
        for later in range(page_no + 1, front):
            summary = self.heap.summaries.get(later)
            if summary is not None and summary.first_live_slot is not None:
                break
        else:
            return True
        if later in dirty:
            return True
        version = summary.page_version
        for cursor in cursors:
            info = cursor.page_info(later)
            if info is not None and info.page_version == version:
                if self._clean(info.first_prev):
                    return False
                break
        first_prev: Optional[Rid] = None

        def figure7(successor: PageBatch) -> "Writes":
            nonlocal first_prev
            writes, (*_, first_prev) = self._fix_up(successor)
            return writes

        self._read(later, [summary.first_live_slot], figure7)
        if summary.page_version != version:
            for cursor in cursors:
                info = cursor.page_info(later)
                if info is not None and info.page_version == version:
                    cursor.record_page(summary, first_prev, info.qual_slots)
        return False

    def seal(
        self, cursors: "Sequence[RefreshCursor]", completed: bool
    ) -> RefreshResult:
        """Finalize the pass result, merge it into every cursor's own:
        per-cursor traffic (:data:`CURSOR_TOTAL_FIELDS`) is totalled
        onto the pass result, the costs paid once per pass
        (:data:`PASS_FIELDS`) are copied onto each cursor's.
        ``completed`` says the pass reached the heap's end, so the
        sanitizer may hold the whole table to the fix-up postcondition.
        """
        stats = self.stats
        stats.new_snap_time = self.fixup_time
        pool_stats = self.heap.pool.stats
        stats.buffer_hits = pool_stats.hits - self._hits_before
        stats.buffer_misses = pool_stats.misses - self._misses_before
        if completed and self.audit:
            sanitize.check_after_refresh_scan(self.table, self.fixup)
        # Log completeness: the pass read or skipped every page and left
        # the chain whole (fix-up ran, or the eager hook keeps it), so
        # each live cursor's records are current as of here.
        if completed and self.summaries is not None and (
            self.fixup or self.table.eager is not None
        ):
            mark = LogMark(self.summaries, self.summaries.writes, self.fixup_time)
            for cursor in cursors:
                if not cursor.failed:
                    cursor.staged_mark = mark
        for cursor in cursors:
            result = cursor.result
            for field in CURSOR_TOTAL_FIELDS:
                setattr(
                    stats, field, getattr(stats, field) + getattr(result, field)
                )
            for field in PASS_FIELDS:
                setattr(result, field, getattr(stats, field))
        return stats
