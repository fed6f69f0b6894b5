"""Figure 7 and page serving: the shared half of a refresh pass.

A :class:`_ScanPass` owns what one pass shares between its cursors —
the fix-up's :class:`Boundary`, the fix-up timestamp, the pass counters
— and serves the heap in address order (:meth:`_ScanPass.scan_pages`).
Beyond the paper, and changing no transmitted byte, a page whose
:class:`~repro.storage.summary.PageSummary` proves nothing changed is
crossed unread or visited for its changed slots — a run of visits that
only stamp in one loop — and a page read whole is served from one
columnar batch; DESIGN.md §3, "How a page is served", has the outcome
table and why each is safe.  The paper's loop is the tests' reference,
:mod:`~repro.core.per_row`.
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

#: What Figure 7 found on a page (:meth:`_ScanPass._fix_up`): effective
#: timestamps, anomaly slots, the first ``PrevAddr`` as repaired.
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


class Boundary:
    """Figure 7's state between two entries of the scan, as ``(page,
    slot)`` pairs: ``expect`` (``ExpectPrev``, the last entry that was
    not a pure insert) and ``last`` (``LastAddr``, the last entry); the
    paper's address 0 is ``(-1, 0)``.  A pass without fix-up keeps no
    such state: every boundary is clean to it."""

    __slots__ = ("fixup", "expect", "last")

    def __init__(self, fixup: bool) -> None:
        self.fixup = fixup
        self.expect = self.last = Rid.BEGIN.key()

    def clean(self, first_prev: object = None) -> bool:
        """The closure rule: whether a page whose first ``PrevAddr``
        reads ``first_prev`` (``None``: it is empty) continues the chain
        from here.  A pending pure insert (``last != expect``) would
        repoint that ``PrevAddr``, and a mismatch is precisely a
        deletion anomaly hiding on the page."""
        expect = self.expect
        return not self.fixup or (
            self.last == expect
            and (
                first_prev is None
                or isinstance(first_prev, Rid)
                and (first_prev.page_no, first_prev.slot_no) == expect
            )
        )

    def advance(self, last_live: Optional[Rid]) -> None:
        """Cross a page that needs no (further) fix-up, ending at
        ``last_live`` (``None``: an empty page), as a scan would."""
        if last_live is not None:
            self.expect = self.last = (last_live.page_no, last_live.slot_no)


class _ScanPass:
    """One combined fix-up + refresh pass: its fix-up state (the
    :class:`Boundary`, the fix-up timestamp) and counters.
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
        "boundary",
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
        self.boundary = Boundary(fixup)
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

        Only the pages written since the oldest cursor's mark are
        served; each run of pages between them is crossed in one step
        (:meth:`_cross`).  Without marks every page is served.  A run of
        pages that take Figure 7's visit case is served in one loop
        (:meth:`_visit_run`), any other page through :meth:`page`.
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
            after = self._visit_run(cursors, page_no, stop)
            if after == page_no:
                self.page(page_no, cursors)
                after += 1
            page_no = after
        return stop

    def _visit_run(
        self, cursors: "Sequence[RefreshCursor]", start: int, stop: int
    ) -> int:
        """Serve the pages from ``start`` on, short of ``stop``, while
        each takes Figure 7's visit case; return the first page not
        served.  The case: the summary names changed slots and no freed
        one, every live cursor may cross the page from its record
        (:meth:`_settled`), and the heap routine stamps the named
        records (:meth:`_stamp`).  Then each cursor runs its restriction
        on them and crosses the page from its record, which it re-records,
        as :meth:`page` would.  A page the routine declines goes through
        :meth:`page`, and ends the run."""
        summaries = self.summaries
        if summaries is None or not self.fixup:
            return start
        boundary = self.boundary
        stats = self.stats
        settled = self._settled
        page_no = start
        while page_no < stop:
            summary = summaries.get(page_no)
            if summary is None or summary.freed_slots or not summary.null_slots:
                break
            crossing: "list[tuple[RefreshCursor, PageQualInfo]]" = []
            for cursor in cursors:
                if not cursor.failed:
                    info = cursor.cache.get(page_no) if cursor.cache else None
                    if info is None or not settled(cursor, info, summary):
                        return page_no
                    crossing.append((cursor, info))
            if not crossing:
                break
            batch = self._stamp(page_no, sorted(summary.null_slots))
            if batch is None:
                self.page(page_no, cursors)
                return page_no + 1
            last_slot = summary.last_live_slot
            boundary.expect = boundary.last = (page_no, last_slot)
            count, first_prev = batch.count, batch.first_prev
            changed = range(count)
            version, last_live = summary.page_version, Rid(page_no, last_slot)
            for cursor, info in crossing:
                try:
                    cursor.cross(page_no, info, batch, changed, None, batch.row_at)
                    cursor.staged_pages[page_no] = PageQualInfo(
                        version, first_prev, cursor.page_quals, last_live
                    )
                except ChannelError as error:
                    cursor.fail(error)
            stats.rows_materialized += batch.materializations
            for result in (stats, *(cursor.result for cursor, _ in crossing)):
                result.scanned += count
                result.pages_scanned += 1
                result.pages_batch_decoded += 1
            if self.audit:
                held = [(c, info) for c, info in crossing if not c.failed]
                sanitize.check_changed_slot_visit(
                    self.table, page_no, held, (), "a changed-slot visit"
                )
                sanitize.check_value_mirror(self.table, page_no, crossing)
            page_no += 1
        return page_no

    def _stamp(self, page_no: int, named: "Sequence[int]") -> Optional[PageBatch]:
        """The partial batch of the ``named`` records, which the heap
        routine stamped (:meth:`~repro.storage.heap.HeapFile.stamp_named`),
        or ``None``, the page unwritten: some record chains or is
        stamped, or the boundary is not clean."""
        boundary = self.boundary
        if boundary.last != boundary.expect:
            return None
        batch = self.heap.stamp_named(
            page_no, self.schema, named, self.fixup_time, boundary.expect
        )
        if batch is not None:
            self.stats.rows_decoded += batch.count
            self.stats.fixup_writes += batch.count
        return batch

    def _cross(
        self, cursors: "Sequence[RefreshCursor]", start: int, end: int
    ) -> int:
        """Cross pages ``[start, end)``, none written since any cursor's
        mark, from each live cursor's committed records; return the
        first page not crossed (``end``, or one that must be served).

        Log completeness (``docs/invariants.md``) proves every such page
        settled with a current record, which :meth:`page` would skip, so
        only the tests on the pass's own state run here: the boundary's
        closure rule at the run's first live page — past it the unwritten
        pages are chained as the marking pass left them — and a carried
        ``Deletion`` flag at its first qualifying page (at its first
        page, where a visit cannot answer it).  Either failing stops the
        run at that page.
        """
        live = [cursor for cursor in cursors if not cursor.failed]
        pages = range(start, end)
        records = [list(map(cursor.cache.__getitem__, pages)) for cursor in live]
        first = records[0]
        clean = self.boundary.clean
        # A pure insert pending at the boundary: the first page is read.
        stop = end if clean() else start
        for index in range(stop - start):
            if first[index].last_live is not None:
                if not all(clean(infos[index].first_prev) for infos in records):
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
            expect = Rid(*self.boundary.expect) if self.fixup else None
            sanitize.check_crossed_run(self.table, live, start, stop, expect)
        for cursor, infos in zip(live, records):
            cursor.cross_run(start, infos[:count])
        self.stats.pages_skipped += count
        for info in reversed(first[:count]):
            if info.last_live is not None:
                self.boundary.advance(info.last_live)
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
        failure never leaves a page half repaired.  A visit that only
        stamps is :meth:`_visit_run`'s: one that comes here, which the
        heap routine declined, is read whole.
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
                delta = self._stamp(page_no, changed)
                if delta is not None:
                    self.boundary.advance(last_live)
                else:
                    delta, whole, fixed = self._fix(page_no, changed, last_live)
            else:
                delta = self._read(page_no, changed)
            if whole is None and None in reading.values():
                # A cursor without a page cache republishes it whole.
                whole = self._read(page_no)
            return self._serve(page_no, REPAIRED, reading, delta, whole, fixed, changed)
        summary = self.summaries.get(page_no) if self.summaries is not None else None
        settled = self._settled
        visiting: "dict[RefreshCursor, PageQualInfo]" = {}
        skipping: "list[tuple[RefreshCursor, PageQualInfo]]" = []
        for cursor in cursors:
            if cursor.failed:
                continue
            entry = cursor.cache.get(page_no) if cursor.cache else None
            if entry is None or summary is None or not settled(cursor, entry, summary):
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
            named = sorted(summary.null_slots.union(freed))
            delta, whole, fixed = self._fix(page_no, named, summary.last_live_rid)
            outcome = VISITED if whole is None else BATCH
        else:
            # Nothing changed, so nothing is read: a carried Deletion
            # flag may still have a cursor visit its qualifiers.
            crossed = skipping[0][1] if skipping else next(iter(visiting.values()))
            self.boundary.advance(crossed.last_live)
            if not visiting:
                self.stats.pages_skipped += 1
                return SKIPPED
            outcome = VISITED
            reading.update(visiting)
        return self._serve(page_no, outcome, reading, delta, whole, fixed, None, freed)

    def _whole(self, page_no: int, reading: Reading) -> PageOutcome:
        """Serve the page read whole to ``reading`` (:meth:`_fix`)."""
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
        indices: "Sequence[int]" = ()
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
        # Entries with a timestamp to test; a visit served without a fix
        # read none (a Deletion flag alone, or every named slot empty).
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
        for result in (stats, *(cursor.result for cursor in reading)):
            result.scanned += scanned
            if outcome is REPAIRED:
                result.pages_repaired += 1
            else:
                result.pages_scanned += 1
                result.pages_batch_decoded += 1
        # A visit for a Deletion flag alone read nothing: the record stands.
        if delta is not None or outcome is not VISITED:
            self._record(page_no, reading, first_prev)
        if self.audit:
            if outcome is BATCH and whole is not None:
                sanitize.check_whole_page_read(self.table, whole, list(reading))
            elif delta is not None:
                crossed = [
                    (c, e)
                    for c, e in reading.items()
                    if c.cache is not None and not c.failed
                ]
                what = "a changed-slot visit" if changed is None else "an online repair"
                named = freed if changed is None else changed
                sanitize.check_changed_slot_visit(
                    self.table, page_no, crossed, named, what, self.fixup
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
        committed record of it, without the page read whole: nothing
        outside the summary's ``null_slots`` and ``freed_slots`` changed
        after its ``SnapTime`` ("summary completeness",
        ``docs/invariants.md``), the record's version is the page's when
        none is named, a scan without fix-up has no work there, and the
        boundary is clean."""
        named = bool(summary.null_slots or summary.freed_slots)
        return (
            info.page_version is not None  # holdings only: no layout
            and summary.settled(cursor.snap_time)
            and (self.fixup or not (named or cursor.deletion))
            and (named or info.page_version == summary.page_version)
            and self.boundary.clean(info.first_prev)
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
        have changed, which the heap routine did not take
        (:meth:`_stamp`).  When one was emptied or newly inserted and
        each one still there was written since Figure 7 last passed —
        its ``TimeStamp`` NULL — the partial batch also holds the next
        live record after each such slot, and :meth:`_fix_up` walks the
        records read, each set out from its live predecessor (those
        between are unchanged and chained), then moves on to
        ``last_live``, the page's last live address; unless the page's
        first live record is among them the boundary must be clean.
        Anything else reads the page whole: with no NULL annotation, an
        intact chain and a clean boundary it writes nothing, else
        :meth:`_fix_up` repairs what needs it.  Without fix-up a NULL
        stamp is an error.  Each read pins the page once, its writes
        decided on its batch before the first byte is written.
        """
        fixed: "Optional[Fixed]" = None
        delta = None
        if changed is not None:
            chained = False

            def chain(delta: PageBatch) -> "Optional[Writes]":
                nonlocal chained, fixed
                preds, count = delta.preds, delta.count
                if preds is None:  # in place: the heap routine declined it
                    return None
                # The NULL stamps are exactly the named records still
                # there: a successor read for Figure 7 has its stamp.
                asked = set(changed)
                named = all(
                    (slot_no in asked) == (stamp == TS_NULL)
                    for slot_no, stamp in zip(delta.slots, delta.ts)
                )
                head = count and preds[0] < 0
                if not named or not (head or self.boundary.clean(delta.first_prev)):
                    return None
                chained = True
                if not count:
                    return None
                writes, fixed = self._fix_up(delta)
                return writes

            delta = self._read(page_no, changed, chain)
            if chained:
                # The records after the last one read are chained as they
                # were: the walk ends at the page's last live address.
                if fixed is None or delta.slots[-1] != last_live.slot_no:
                    self.boundary.advance(last_live)
                return delta, None, fixed

        def figure7(batch: PageBatch) -> "Optional[Writes]":
            nonlocal fixed
            if self.fixup and batch.count and (
                batch.has_nulls
                or not batch.chain_ok
                or not self.boundary.clean(batch.first_prev)
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
            self.boundary.advance(batch.last_rid())
            return None

        whole = self._read(page_no, fix=figure7)
        return delta, whole, fixed

    def _fix_up(self, batch: PageBatch) -> "tuple[Writes, Fixed]":
        """Figure 7 over one page's annotation columns, with exactly the
        per-row loop's decisions: the writes for only the records that
        need it, in slot order, the effective-timestamp column (NULL
        stamp or pure insert ⇒ :data:`TS_INFINITY`), the anomaly slots,
        and the first entry's ``PrevAddr`` as repaired; the batch holds
        an entry at least.  A partial batch's walk takes up each record
        from its live predecessor (``preds``) when the record before it
        was not read, and keeps the page's first ``PrevAddr`` as read
        when the first live record was not.
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
        # The boundary's (page, slot) pairs: an address object is only
        # built for the few records that get written.
        boundary = self.boundary
        expect = boundary.expect
        last = boundary.last
        first_prev = Rid(*last)
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
        boundary.expect = expect
        boundary.last = last
        return writes, (eff_ts, anomalies, first_prev)

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
        in every live cursor's (queued) stream.  Per page, ascending,
        through :meth:`page`: Figure 7 sets out from the last live entry
        before the page, or from what the previous dirty page's fix-up
        left when no live entry separates them, and goes one entry past
        the page (:meth:`_close_chain`).  The next chunk sets out from
        the state the last page left if that entry is on the scan front,
        else from the boundary as it was.  Without fix-up only the
        publishing runs.
        """
        if self.heap.summaries is None:  # annotations attach them
            raise RefreshMethodError("page repair needs the heap's summaries")
        boundary = self.boundary
        before = boundary.expect, boundary.last
        carried = False
        for page_no in sorted(dirty):
            if self.fixup and not carried:
                boundary.advance(self._live_before(page_no))
            self.page(page_no, cursors, dirty[page_no])
            carried = self.fixup and self._close_chain(
                page_no, dirty, cursors, front
            )
        if not carried:
            boundary.expect, boundary.last = before
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
        """Take Figure 7 one entry past a repaired page: an insert or a
        delete at a page's tail is recorded on its *successor*, the next
        live entry — also after mere updates, as a sibling's fix-up in
        the window may have chained a tail insert the chunk never saw.
        When that entry is on a dirty page or at or past the scan
        ``front`` (or there is none) it will go through: returns True,
        and the state is carried there.  On a clean page behind the
        front just that record is read and fixed — unless a cursor's
        record of the page, at its current version, shows it chained
        (the boundary's closure rule) — and each record of the page
        moves to the new version and first ``PrevAddr``.
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
                if self.boundary.clean(info.first_prev):
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
        """Finalize the pass result and merge it with every cursor's:
        per-cursor traffic (:data:`CURSOR_TOTAL_FIELDS`) totalled onto
        it, the pass costs (:data:`PASS_FIELDS`) copied onto each.
        ``completed``: the pass reached the heap's end."""
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
