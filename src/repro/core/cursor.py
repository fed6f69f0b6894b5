"""Figure 3 per snapshot: the refresh cursor and the sender's mirrors.

A :class:`RefreshCursor` holds what Figure 3 keeps for one snapshot and
decides, page by page, what to transmit; any number of them ride one
pass (:func:`~repro.core.differential.run_refresh_scan`).  Beyond the
paper it has one arming rule, which only *omits* messages:

*Address mirror* (``batch_mode``).  The snapshot's page cache of
:class:`~repro.storage.summary.PageQualInfo` records changes only when
the receiver commits and every path that publishes to the snapshot
writes it, so its ``qual_slots`` are the addresses the snapshot holds.
With a record of the page a cursor crosses it from the mirror
(:meth:`RefreshCursor.cross`): the paper's stream less Figure 9's
superfluous messages.  Without one, and on the per-row path, the
paper's rule runs over every entry: the baseline and the oracle.
DESIGN.md §3, "How a page is served", has the rule and its proof.

Two optimizations the paper invites the reader to discover are flags
(off by default so the baseline matches the paper; argued in
``docs/algorithm.md``, measured by the A1 ablation benchmark):

``optimize_deletes``
    A qualified entry transmitted *only* because of the ``Deletion``
    flag (the snapshot already holds its current value) goes as a small
    :class:`~repro.core.messages.DeleteRangeMessage` instead — same
    message count, far fewer bytes.

``suppress_pure_inserts``
    An unqualified *newly inserted* entry (NULL ``PrevAddr``) does not
    arm the flag: any deletion it might mask (e.g. address reuse) is
    independently detected as a ``PrevAddr`` anomaly at the next
    non-inserted entry.  Subsumed where the mirror applies.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, Optional, Sequence

from repro.core.messages import (
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    RefreshMessage,
    SnapTimeMessage,
    UpdateDeltaMessage,
    UpsertMessage,
)
from repro.errors import ChannelError
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import Row, encoded_fields_size, encoded_size
from repro.storage.batch import PageBatch
from repro.storage.rid import Rid
from repro.storage.summary import LogMark, PageMirror, PageQualInfo, PageSummary

Send = Callable[[RefreshMessage], None]

_QUAL_SLOTS = attrgetter("qual_slots")


class ValueCache:
    """Per-snapshot mirror of the values previously transmitted.

    Keyed page → ``{rid: projected values}``, this is what lets the
    refresher send :class:`~repro.core.messages.UpdateDeltaMessage`\\ s
    (only the changed columns) instead of whole rows: a cache hit means
    the receiver still holds exactly these values for the address, so a
    column diff against them merges correctly at the other end.

    The cache is **staged per refresh and committed only once the
    receiver's epoch commit is confirmed**, or a later delta would
    merge against values the receiver never applied: the
    :class:`~repro.core.manager.SnapshotManager` drives
    :meth:`commit`/:meth:`abort` from the epoch outcome; direct
    refresher use with an internal cache commits after the scan.
    """

    __slots__ = ("pages", "staged")

    def __init__(self) -> None:
        #: Committed mirror: page_no -> {rid: projected values tuple}.
        self.pages: "dict[int, dict[Rid, tuple]]" = {}
        self.staged: "Optional[dict[int, dict[Rid, tuple]]]" = None

    def lookup(self, rid: Rid) -> "Optional[tuple]":
        page = self.pages.get(rid.page_no)
        return page.get(rid) if page is not None else None

    def page(self, page_no: int) -> "Optional[dict[Rid, tuple]]":
        return self.pages.get(page_no)

    def stage(self, pages: "dict[int, dict[Rid, tuple]]") -> None:
        self.staged = pages

    def commit(self) -> bool:
        """Adopt the staged mirror (the refresh's epoch committed)."""
        if self.staged is None:
            return False
        self.pages = self.staged
        self.staged = None
        return True

    def abort(self) -> None:
        """Drop the staged mirror (the refresh's epoch was rolled back)."""
        self.staged = None

    def __len__(self) -> int:
        return sum(len(page) for page in self.pages.values())


def without(
    page_values: "dict[Rid, tuple]", page_no: int, gone: "Iterable[int]"
) -> "dict[Rid, tuple]":
    """A copy of a value-mirror page dict less the addresses of the
    ``gone`` slots of page ``page_no``."""
    kept = page_values.copy()
    for slot_no in gone:
        kept.pop(Rid(page_no, slot_no), None)
    return kept


def adopt_holdings(
    cache: PageMirror,
    held: "dict[int, dict[Rid, tuple]]",
    page_count: int,
) -> None:
    """A repairing resync left the snapshot holding exactly ``held``: every
    entry's ``qual_slots`` follow (its layout fields stand), and a page
    never recorded gets a *holdings-only* entry (no version) — it may
    arm the ``Deletion`` flag but never fast-forwards.  The cache's mark
    becomes unknown: the next refresh walks every page."""
    cache.mark = None
    for page_no in range(page_count):
        slots = array("H", [rid.slot_no for rid in held.get(page_no, ())])
        info = cache.setdefault(page_no, PageQualInfo(None, None, slots, None))
        info.qual_slots = slots


class RefreshResult:
    """Counters from one refresh execution.

    For a solo refresh every field describes that one scan.  For a
    refresh served by a shared group pass (``group_cursors > 1``) the
    per-snapshot fields — traffic, ``scanned``, ``entries_evaluated``,
    ``pages_scanned``, ``pages_skipped`` / ``pages_fast_forwarded`` —
    describe this snapshot's share, while the pass-level scan costs
    (:data:`PASS_FIELDS`) were paid once for the whole group and read
    the same on every member's result: take them once per pass, never
    sum them over the members.
    """

    __slots__ = (
        "new_snap_time",
        "scanned",
        "qualified",
        "entries_sent",
        "messages_sent",
        "bytes_sent",
        "fixup_writes",
        "deletions_detected",
        "pages_scanned",
        "pages_skipped",
        "rows_decoded",
        "buffer_hits",
        "buffer_misses",
        "attempts",
        "retry_wait",
        "group_cursors",
        "entries_evaluated",
        "pages_fast_forwarded",
        "pages_batch_decoded",
        "batches_reused",
        "rows_materialized",
        "chunks_scanned",
        "interleaved_writes",
        "pages_repaired",
    )

    def __init__(self) -> None:
        self.new_snap_time = 0
        self.scanned = 0
        self.qualified = 0
        self.entries_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.fixup_writes = 0
        self.deletions_detected = 0
        self.pages_scanned = 0
        self.pages_skipped = 0
        #: Records this pass read from page bytes: per-row probes, every
        #: entry of each :class:`~repro.storage.batch.PageBatch` it
        #: extracted (scan and repair alike), the changed slots of a
        #: visited page plus any unchanged qualifier a Deletion flag
        #: forced out.
        self.rows_decoded = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        #: Set by the manager's retry driver: attempts, backoff waited.
        self.attempts = 1
        self.retry_wait = 0.0
        #: Cursors served by the pass that produced this result.
        self.group_cursors = 1
        #: Entries this snapshot's cursor ran its restriction on: those
        #: newer than its ``SnapTime`` where it crosses a page from a
        #: committed :class:`PageQualInfo` (visited or read whole),
        #: every entry of a page it holds no record of, every entry on
        #: the per-row path.
        self.entries_evaluated = 0
        #: Pages this snapshot's cursor fast-forwarded from its
        #: :class:`~repro.storage.summary.PageQualInfo` cache instead of
        #: having them read whole: those it skipped (``pages_skipped``)
        #: plus those it visited (counted in ``pages_scanned``).
        self.pages_fast_forwarded = 0
        #: Pages served from a columnar batch, whole or a visit's partial.
        self.pages_batch_decoded = 0
        # Always 0 (the pool caches no batches): benchmarks/e2e/adapter.py reads it.
        self.batches_reused = 0
        #: Full rows decoded from a batch: only entries transmitted or
        #: repaired, each once however many cursors sent it.
        self.rows_materialized = 0
        #: Watermark-bracketed chunks a scan under a
        #: :class:`~repro.core.differential.ScanPlan` ran (0 = one
        #: uninterrupted lock hold).
        self.chunks_scanned = 0
        #: Committed writes observed while the scan had the table lock
        #: released at a chunk boundary.
        self.interleaved_writes = 0
        #: Page repairs of a chunked scan: at the start of each lock hold,
        #: every already-scanned page the window before it wrote, fixed
        #: up and its net difference queued for publishing.  A page
        #: written in several windows counts once per window.
        self.pages_repaired = 0

    @property
    def buffer_hit_rate(self) -> float:
        """Buffer-pool hit rate over this refresh's page accesses."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"RefreshResult(time={self.new_snap_time}, scanned={self.scanned}, "
            f"qualified={self.qualified}, entries={self.entries_sent}, "
            f"bytes={self.bytes_sent}, fixup_writes={self.fixup_writes}, "
            f"pages={self.pages_scanned}+{self.pages_skipped}skip, "
            f"decoded={self.rows_decoded}, "
            f"hit_rate={self.buffer_hit_rate:.2f})"
        )


#: Costs of the pass, paid once however many cursors rode it:
#: :func:`~repro.core.differential.run_refresh_scan` copies them from the
#: pass result onto every cursor's own result, so a per-snapshot result
#: reports the work of the pass that served it whether it rode alone or
#: in a group.
PASS_FIELDS = (
    "rows_decoded",
    "fixup_writes",
    "deletions_detected",
    "buffer_hits",
    "buffer_misses",
    "group_cursors",
    "pages_batch_decoded",
    "rows_materialized",
    "chunks_scanned",
    "interleaved_writes",
    "pages_repaired",
)

#: Per-cursor counters the pass result totals over its cursors.
CURSOR_TOTAL_FIELDS = (
    "qualified",
    "entries_sent",
    "messages_sent",
    "bytes_sent",
    "entries_evaluated",
    "pages_fast_forwarded",
)

class RefreshCursor:
    """Per-snapshot refresh state riding an address-order scan.

    Everything Figure 3 keeps per snapshot — the ``SnapTime`` it
    refreshes from, ``LastQual``, the pending ``Deletion`` flag, the
    compiled restriction/projection, the output channel — plus its
    page cache.  Each cursor's stream is byte-identical to a solo
    refresh's from the same ``SnapTime`` and cache, however many ride
    the pass.
    """

    __slots__ = (
        "snap_time",
        "restriction",
        "projection",
        "send",
        "cache",
        "value_cache",
        "optimize_deletes",
        "suppress_pure_inserts",
        "name",
        "value_schema",
        "last_qual",
        "deletion",
        "result",
        "failed",
        "error",
        "page_quals",
        "_staged_values",
        "staged_pages",
        "staged_mark",
        "_repairs",
    )

    def __init__(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        optimize_deletes: bool = False,
        suppress_pure_inserts: bool = False,
        name: Optional[str] = None,
        value_cache: "Optional[ValueCache]" = None,
    ) -> None:
        self.snap_time = snap_time
        self.restriction = restriction
        self.projection = projection
        self.send = send
        #: Per-snapshot page-qualification cache as of the last
        #: *committed* refresh, so ``qual_slots`` are the addresses the
        #: snapshot holds; ``None``: no skipping, the paper's rule.
        self.cache = cache
        #: This pass's records; :meth:`commit_pages` merges them into
        #: :attr:`cache` once the receiver has the stream.
        self.staged_pages: "dict[int, PageQualInfo]" = {}
        #: The write-log mark this pass's records earn (set by a pass
        #: that completed with them all current), committed with them.
        self.staged_mark: Optional[LogMark] = None
        #: Per-snapshot mirror of previously transmitted values; when
        #: set, retransmissions of changed entries become per-column
        #: :class:`UpdateDeltaMessage`\ s on cache hits.
        self.value_cache = value_cache
        self.optimize_deletes = optimize_deletes
        self.suppress_pure_inserts = suppress_pure_inserts
        self.name = name
        self.value_schema = projection.schema
        self.last_qual = Rid.BEGIN
        #: Figure 3's pending ``Deletion`` flag.
        self.deletion = False
        self.result = RefreshResult()
        #: Set when this cursor's channel failed mid-pass; the scan
        #: continues for the other cursors.
        self.failed = False
        self.error: Optional[BaseException] = None
        #: Qualifying slots of the page last served, ascending.
        self.page_quals: "array[int]" = array("H")
        #: Next refresh's value mirror, built as the scan walks.
        self._staged_values: "Optional[dict[int, dict[Rid, tuple]]]" = (
            {} if value_cache is not None else None
        )
        #: :meth:`repair_page`'s messages, ``(page_no, messages)`` in
        #: repair order, held back until :meth:`end_scan`.
        self._repairs: "list[tuple[int, list[RefreshMessage]]]" = []

    def transmit(self, message: RefreshMessage) -> None:
        self.result.messages_sent += 1
        self.result.bytes_sent += message.wire_size()
        if message.counts_as_entry:
            self.result.entries_sent += 1
        self.send(message)

    def fail(self, error: BaseException) -> None:
        self.failed = True
        self.error = error
        self._repairs.clear()

    # -- page records --------------------------------------------------------

    def record_page(
        self, summary: PageSummary, first_prev: Optional[Rid], quals: "array[int]"
    ) -> None:
        """Stage a page's qualification layout as this pass left it."""
        self.staged_pages[summary.page_no] = PageQualInfo(
            summary.page_version, first_prev, quals, summary.last_live_rid
        )

    def commit_pages(self) -> None:
        """The receiver applied this pass's stream: adopt what it staged,
        the mark with the records (none from this pass: unknown)."""
        if self.cache is not None:
            self.cache.update(self.staged_pages)
            if isinstance(self.cache, PageMirror):
                self.cache.mark = self.staged_mark

    def page_info(self, page_no: int) -> "Optional[PageQualInfo]":
        """This pass's record of the page, else the committed one: what
        the snapshot holds there once the stream so far has applied."""
        info = self.staged_pages.get(page_no)
        if info is None and self.cache is not None:
            info = self.cache.get(page_no)
        return info

    def cross(
        self,
        page_no: int,
        info: PageQualInfo,
        batch: "Optional[PageBatch]",
        changed: "Sequence[int]",
        live: "Optional[frozenset[int]]",
        row_at: "Callable[[int], Row]",
        freed: "Collection[int]" = (),
    ) -> None:
        """Cross a page from ``info``, this cursor's committed entry.

        Its ``qual_slots`` are the addresses the snapshot holds here,
        and an entry that has not changed for this snapshot qualifies
        iff it is among them (``docs/invariants.md``): no predicate, no
        walk.  ``changed`` indexes the entries of ``batch`` that did
        (effective timestamp newer than ``SnapTime``; every record of a
        visit's partial batch) and the restriction runs on those alone.
        ``live`` are the page's live slots when ``batch`` is the whole
        page — a held slot it lacks was deleted — and ``None`` when it
        was not read whole: then a held slot is gone iff it is among
        ``freed``, the slots the summary names as emptied since (and not
        back in ``batch``).  What moved goes to :meth:`_send_events`; a
        skip is the case where nothing did.
        Leaves the page's qualifying slots, as they stand, in
        :attr:`page_quals`.

        A page not read whole costs what changed on it: the held slots
        are a copy of the record's, each freed or changed slot bisected
        out of it or in (the record's array is the mirror's, never
        written).  A page read whole costs the page anyway, and is
        crossed as sets.
        """
        quals = info.qual_slots
        send: "Collection[int]" = ()
        gone: "Collection[int]" = ()
        if live is None:  # not read whole: crossed from the record
            self.result.pages_fast_forwarded += 1
            if changed or freed:
                quals = array("H", quals)
                dropped: "set[int]" = set()
                for slot_no in freed:
                    at = bisect_left(quals, slot_no)
                    if at < len(quals) and quals[at] == slot_no:
                        del quals[at]
                        dropped.add(slot_no)
                if batch is not None and changed:
                    send = self._changed_quals(batch, changed)
                    slots = batch.slots
                    for index in changed:
                        slot_no = slots[index]
                        at = bisect_left(quals, slot_no)
                        held = at < len(quals) and quals[at] == slot_no
                        if slot_no in send:
                            if not held:
                                quals.insert(at, slot_no)
                                dropped.discard(slot_no)
                        elif held:
                            del quals[at]
                            dropped.add(slot_no)
                gone = dropped
        elif changed or not live.issuperset(quals):
            held_set = set(quals)
            now = held_set & live
            if batch is not None and changed:
                send = self._changed_quals(batch, changed)
                slots = batch.slots
                now = now.difference([slots[index] for index in changed])
                now.update(send)
            gone = held_set - now
            quals = array("H", sorted(now))
        self.result.qualified += len(quals)
        self.page_quals = quals
        self._send_events(page_no, quals, send, gone, row_at)

    def _changed_quals(
        self, batch: PageBatch, changed: "Sequence[int]"
    ) -> "set[int]":
        """The slots of the ``changed`` entries of ``batch`` that qualify:
        the restriction run on those alone."""
        self.result.entries_evaluated += len(changed)
        slots = batch.slots
        hits = batch.qualifying(self.restriction, changed)
        return {slots[index] for index in hits}

    def cross_run(self, start: int, infos: "Sequence[PageQualInfo]") -> None:
        """Cross the pages from ``start`` on, one per committed record in
        ``infos``, none of which the pass read and none with an event
        for this cursor: :meth:`cross` of a skipped page, once for the
        run.  The caller has checked that no carried ``Deletion`` flag
        meets a qualifier here; ``LastQual`` moves to the run's last
        one and the value mirror is carried page by page."""
        count = len(infos)
        result = self.result
        result.pages_skipped += count
        result.pages_fast_forwarded += count
        quals = list(map(_QUAL_SLOTS, infos))
        result.qualified += sum(map(len, quals))
        for index in range(count - 1, -1, -1):
            if quals[index]:
                self.last_qual = Rid(start + index, quals[index][-1])
                break
        staged = self._staged_values
        if staged is not None:
            pages = self.value_cache.pages
            staged.update(
                (page_no, pages[page_no])
                for page_no in range(start, start + count)
                if pages.get(page_no)
            )

    # -- the Figure-3 transmit decision --------------------------------------

    def paper_rule(
        self,
        batch: PageBatch,
        changed: "Sequence[int]",
        pure_inserts: "Sequence[int]" = (),
        anomalies: "Sequence[int]" = (),
    ) -> None:
        """Figure 3 over a page read whole, for a cursor that holds no
        record of it: the paper's rule.

        ``changed`` indexes the entries whose value changed for this
        snapshot: effective timestamp — the entry's own, or
        :data:`~repro.core.scanpass.TS_INFINITY` when it was found with a
        NULL annotation (inserted or updated since the last fix-up) —
        newer than ``SnapTime``.  Every live entry is taken in slot order, its
        inputs handed over as columns — ``pure_inserts`` and
        ``anomalies`` are the slots the fix-up found newly inserted
        (NULL ``PrevAddr``) or preceded by a detected deletion,
        qualification comes from the batch's memoized index over the
        whole page, and full rows are materialized only for entries
        actually transmitted.
        """
        result = self.result
        result.entries_evaluated += batch.count
        page_no = batch.page_no
        slots = batch.slots
        quals = array(
            "H", [slots[index] for index in batch.qualifying(self.restriction)]
        )
        self.page_quals = quals
        result.qualified += len(quals)
        # A pure insert matters only to a cursor that suppresses them.
        suppressed = pure_inserts if self.suppress_pure_inserts else ()
        # ``still``: no address left the snapshot here, for all it knows.
        still = not anomalies and not suppressed
        if still and not quals:
            # Unqualified-but-changed entries still arm the Deletion
            # flag ("may have qualified before") for the next page.
            if changed:
                self.deletion = True
            return
        if still and not changed and not self.deletion:
            # Nothing on the page is newer than SnapTime and no deletion
            # is pending: every qualified entry is carried unchanged and
            # the flag cannot arm mid-page.
            if self._staged_values is not None:
                for slot_no in quals:
                    self._carry_value(Rid(page_no, slot_no))
            self.last_qual = Rid(page_no, quals[-1])
            return
        newer = {slots[index] for index in changed}
        arming = newer.difference(suppressed).union(anomalies)
        self._decide(page_no, set(quals), newer, batch.row_at, arming, anomalies)

    def _decide(
        self,
        page_no: int,
        now: "set[int]",
        changed: "set[int]",
        row_at: "Callable[[int], Row]",
        arming: "Iterable[int]",
        anomalies: "Sequence[int]",
    ) -> None:
        """Figure 3's transmit decision over one page, keyed by slot,
        for a cursor that holds no record of it: the paper's rule.

        Only two kinds of entry can move the cursor: the qualifiers
        (``now``), and entries not among them that arm the ``Deletion``
        flag — ``arming``: changed for this snapshot ("may have
        qualified before") unless a suppressed pure insert, or preceded
        by a detected deletion (``anomalies``).  ``row_at`` is called
        only for entries transmitted.
        """
        for slot_no in sorted(now.union(arming)):
            if slot_no not in now:
                self.deletion = True
                continue
            if slot_no in anomalies:
                # The deletion was detected just before this entry: the
                # flag is armed whatever the entry's own timestamp.
                self.deletion = True
            rid = Rid(page_no, slot_no)
            if slot_no in changed or self.deletion:
                if self.optimize_deletes and slot_no not in changed:
                    self.transmit(DeleteRangeMessage(self.last_qual, rid))
                    self._carry_value(rid)
                else:
                    projected = self.projection(row_at(slot_no))
                    self.transmit(self._value_message(rid, projected))
                    if self._staged_values is not None:
                        self._staged_values.setdefault(page_no, {})[
                            rid
                        ] = projected.values
            else:
                self._carry_value(rid)
            self.last_qual = rid
            self.deletion = False

    def _send_events(
        self,
        page_no: int,
        quals: "Sequence[int]",
        send: "Collection[int]",
        gone: "Collection[int]",
        row_at: "Callable[[int], Row]",
    ) -> None:
        """Figure 3 over the events of one page, for a cursor that knows
        what the snapshot held there: the mirror's rule.

        ``quals`` are the page's qualifying slots, ascending; ``send``
        those whose value changed for this snapshot or that are new to
        it; ``gone`` the held slots that no longer qualify — exactly
        where the ``Deletion`` flag arms, instead of at every changed
        non-qualifier that "may have qualified before".  Only ``send``
        and the first qualifier after each ``gone`` slot (or after a flag
        carried in) are transmitted, each with its predecessor in
        ``quals`` as ``prev_qual``; the receiver keeps every other one
        and its mirrored values are carried in bulk.  The stream is the
        paper's with messages omitted, never altered.
        """
        forced = [quals[0]] if self.deletion and quals else []
        for slot_no in gone:
            after = bisect_right(quals, slot_no)
            if after < len(quals):
                forced.append(quals[after])
        events = sorted({*send, *forced}) if send or forced else ()
        staged = self._staged_values
        if staged is not None:
            page_values = self.value_cache.page(page_no)
            if page_values and (events or gone):
                # A page dict of this pass's own (an abort must leave the
                # committed one be), less the rows that left, for what is
                # sent.  Its keys are among the held slots (the value
                # mirror clause of the sanitizer), so those that left
                # are exactly the gone ones.
                page_values = without(page_values, page_no, gone)
            if page_values:
                # Untouched, the committed dict is shared, never written.
                staged[page_no] = page_values
        for slot_no in events:
            before = bisect_left(quals, slot_no)
            if before:
                self.last_qual = Rid(page_no, quals[before - 1])
            rid = Rid(page_no, slot_no)
            if self.optimize_deletes and slot_no not in send:
                # Entry itself unchanged: clear the region before it.
                self.transmit(DeleteRangeMessage(self.last_qual, rid))
                continue
            projected = self.projection(row_at(slot_no))
            self.transmit(self._value_message(rid, projected))
            if staged is not None:
                staged.setdefault(page_no, {})[rid] = projected.values
        if quals:
            self.last_qual = Rid(page_no, quals[-1])
            self.deletion = bool(gone) and max(gone) > quals[-1]
        elif gone:
            self.deletion = True

    def _value_message(self, rid: Rid, projected: Row) -> RefreshMessage:
        """Full entry, or a per-column delta when the mirror allows it.

        A delta is only sent when it is *strictly* smaller than the full
        entry payload — a row whose every column changed would otherwise
        pay the column bitmap for nothing.
        """
        values = projected.values
        value_bytes = encoded_size(self.value_schema, projected)
        if self.value_cache is not None:
            old = self.value_cache.lookup(rid)
            if old is not None and len(old) == len(values):
                positions = [
                    index
                    for index, value in enumerate(values)
                    if not (value is old[index] or value == old[index])
                ]
                mask = 0
                for index in positions:
                    mask |= 1 << index
                delta_bytes = encoded_fields_size(
                    self.value_schema,
                    positions,
                    [values[index] for index in positions],
                )
                mask_bytes = max(1, (mask.bit_length() + 7) // 8)
                if mask_bytes + delta_bytes < value_bytes:
                    return UpdateDeltaMessage(
                        rid,
                        self.last_qual,
                        mask,
                        tuple(values[index] for index in positions),
                        delta_bytes,
                    )
        return EntryMessage(rid, self.last_qual, values, value_bytes)

    def _carry_value(self, rid: Rid) -> None:
        """A qualified entry the receiver keeps unchanged: mirror it on."""
        if self._staged_values is None:
            return
        old = self.value_cache.lookup(rid)
        if old is not None:
            self._staged_values.setdefault(rid.page_no, {})[rid] = old

    def end_scan(self) -> None:
        """``EndOfScan``: covers deletions at the end of the base table.
        Then the repairs queued during the pass, in ascending page order
        (a page repaired twice, in repair order): sent earlier, an
        interval message or the ``EndOfScan`` itself could wipe them."""
        self.transmit(EndOfScanMessage(self.last_qual))
        repairs, self._repairs = self._repairs, []
        repairs.sort(key=itemgetter(0))  # stable
        for _, messages in repairs:
            for message in messages:
                self.transmit(message)

    def repair_page(
        self,
        page_no: int,
        info: "Optional[PageQualInfo]",
        changed: "Sequence[int]",
        batch: PageBatch,
    ) -> None:
        """Publish what writers did to a page after the scan read it.

        Point messages — no ``prev_qual``, no ``Deletion`` flag to carry
        — queued until :meth:`end_scan`, which sends them between the
        ``EndOfScan`` and the new ``SnapTime``.
        ``changed`` are the slots written since, emptied ones included.
        With ``info`` — see :meth:`page_info` — the page is crossed as
        :meth:`cross` crosses it: ``batch`` is the partial one of the
        changed slots (and any successor Figure 7 read), the
        restriction runs on the changed records only, the
        ones that qualify are upserted, ``held - now`` deleted, and a
        held unchanged qualifier costs nothing.  Without one (no page
        cache) the paper-rule oracle: ``batch`` is the whole page, the
        receiver's image of it is wiped (the open-interval delete
        excludes both endpoints, so slot 0 gets its own delete) and
        every qualifier upserted back.  Either way the committed page
        equals the base restriction at commit time and the staged value
        mirror follows.  Leaves the page's qualifying slots in
        :attr:`page_quals`.
        """
        held: "Sequence[int]" = info.qual_slots if info is not None else ()
        kept = set(held).difference(changed)
        slots = batch.slots
        # A partial batch may hold the successors Figure 7 read too.
        among = None
        if info is not None:
            written = set(changed)
            among = [index for index, slot_no in enumerate(slots) if slot_no in written]
        publish = batch.qualifying(self.restriction, among)
        now = kept.union(slots[index] for index in publish)
        messages: "list[RefreshMessage]" = []
        if info is None:
            messages += [
                DeleteRangeMessage(Rid(page_no, 0), Rid(page_no + 1, 0)),
                DeleteMessage(Rid(page_no, 0)),
            ]
        for slot_no in held:
            if slot_no not in now:
                messages.append(DeleteMessage(Rid(page_no, slot_no)))
        page_values: "dict[Rid, tuple]" = {}
        if self._staged_values is not None:
            # A page dict of this pass's own: a skipped page shares the
            # committed one, which no path may write to.
            staged = self._staged_values.get(page_no, {})
            page_values = {
                rid: values
                for rid, values in staged.items()
                if rid.slot_no in kept
            }
        for index in publish:
            rid = Rid(page_no, slots[index])
            projected = self.projection(batch.row(index))
            value_bytes = encoded_size(self.value_schema, projected)
            messages.append(UpsertMessage(rid, projected.values, value_bytes))
            page_values[rid] = projected.values
        if self._staged_values is not None:
            if page_values:
                self._staged_values[page_no] = page_values
            else:
                self._staged_values.pop(page_no, None)
        self._repairs.append((page_no, messages))
        self.page_quals = array("H", sorted(now))

    def finish(self, new_time: int) -> None:
        """The new ``SnapTime``, sent last; stages the value mirror."""
        self.transmit(SnapTimeMessage(new_time))
        self.result.new_snap_time = new_time
        if self.value_cache is not None:
            self.value_cache.stage(self._staged_values)

    def __repr__(self) -> str:
        return (
            f"RefreshCursor({self.name or '?'}, snap_time={self.snap_time}, "
            f"restrict={self.restriction.text}, "
            f"{'failed' if self.failed else 'live'})"
        )


def each_live(
    cursors: "Iterable[RefreshCursor]", step: "Callable[[RefreshCursor], object]"
) -> None:
    """``step(cursor)`` for every cursor still live: a
    :class:`~repro.errors.ChannelError` on one cursor's output marks it
    failed (``cursor.error``) and the rest carry on.  The page loop of
    :meth:`~repro.core.scanpass._ScanPass._serve` writes the same loop
    out, without a step closure per page."""
    for cursor in cursors:
        if cursor.failed:
            continue
        try:
            step(cursor)
        except ChannelError as error:
            cursor.fail(error)
