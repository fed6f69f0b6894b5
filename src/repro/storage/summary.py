"""Per-page change summaries: the skip index for differential refresh.

The paper's refresh scan reads and decodes every entry of the base table
even when almost nothing changed — the cost is O(table size) per refresh.
A :class:`PageSummary` condenses each heap page's change state into a few
words so the combined fix-up + refresh scan can decide, without pinning
the page, that nothing on it needs repairing or transmitting:

``max_ts``
    Upper bound on the committed ``$TIMESTAMP$`` values of the page's
    live entries (an over-estimate after deletes, which is safe: it can
    only force an unnecessary scan, never permit a wrong skip).

``null_slots``
    Slots whose ``$PREVADDR$`` or ``$TIMESTAMP$`` is NULL — lazy inserts
    and updates awaiting fix-up.  Fix-up writes go through the same heap
    hook and therefore *clear* the dirty state they repair.

``structural_changed_at``
    A clock value bounding the last delete (or undo re-insert) on the
    page from above.  Deletes leave no timestamp behind in lazy mode —
    they are detected as ``PrevAddr`` anomalies at the *next* live entry,
    possibly on a later page — so a page with a recent structural change
    must be scanned even though its remaining entries look old, unless
    the summary names what changed:

``freed_slots`` / ``freed_since``
    The slots deleted since a refresh pass last ran Figure 7 over the
    page, and the clock value of that pass: the set names every delete
    on the page after ``freed_since``.  An undo re-insert, which the set
    cannot name, moves ``freed_since`` past every existing ``SnapTime``.

``first_live_slot`` / ``last_live_slot``
    The page's live-address bounds; a skipped page fast-forwards the
    scan's ``LastAddr``/``ExpectPrev`` state to its last live address.

``page_version``
    Bumped on *every* record write to the page (including annotation
    repairs).  While it matches a cached per-snapshot
    :class:`PageQualInfo`, the page bytes are exactly what the caching
    scan saw.

A page is *settled* for ``snap_time`` iff ``max_ts <= snap_time`` and every
structural change after ``snap_time`` is a delete ``freed_slots`` names:
then only its ``null_slots`` and ``freed_slots`` can differ from what a
snapshot with that ``SnapTime`` last saw, and a refresh may skip it (none
named) or visit just those slots and their successors (see
``_ScanPass._settled`` and ``Boundary.clean`` in
:mod:`repro.core.scanpass` for the additional scan-state conditions at
page boundaries).

The map also keeps a *page write log*: every record write takes the
next write number (:attr:`PageSummaryMap.writes`, the log position)
and moves its page to the end of the log, so
:meth:`PageSummaryMap.changed_since` names the pages written after a
position in O(pages written).  A :class:`PageMirror` — a snapshot's
page cache — carries the position at which its records were all
current (its *mark*), so a refresh reads the log instead of every page
("Log completeness", ``docs/invariants.md``).

Summaries are keyed by ``(page, slot)`` — never by byte offsets — so
:meth:`repro.storage.page.SlottedPage.compact` cannot invalidate them.
"""

from __future__ import annotations

from array import array
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.storage.batch import ANNOTATION_TAIL, PREV_NULL_PAGE, TS_NULL
from repro.storage.rid import Rid

if TYPE_CHECKING:  # imported lazily: heap.py is a client of this module
    from repro.storage.heap import HeapFile
    from repro.storage.page import SlottedPage


#: The freed set of a page with no delete to name: shared, since most
#: pages have none.  A page's first delete gives it a set of its own,
#: and emptying the set puts this one back, never clears it in place.
_NO_SLOTS: "frozenset[int]" = frozenset()


class PageSummary:
    """Incrementally maintained change state of one heap page."""

    __slots__ = (
        "page_no",
        "page_version",
        "max_ts",
        "null_slots",
        "structural_changed_at",
        "freed_slots",
        "freed_since",
        "first_live_slot",
        "last_live_slot",
    )

    def __init__(self, page_no: int) -> None:
        self.page_no = page_no
        self.page_version = 0
        self.max_ts = 0
        self.null_slots: "set[int]" = set()
        self.structural_changed_at = 0
        self.freed_slots: "AbstractSet[int]" = _NO_SLOTS
        self.freed_since = 0
        self.first_live_slot: Optional[int] = None
        self.last_live_slot: Optional[int] = None

    @property
    def has_null_annotations(self) -> bool:
        return bool(self.null_slots)

    @property
    def first_live_rid(self) -> Optional[Rid]:
        if self.first_live_slot is None:
            return None
        return Rid(self.page_no, self.first_live_slot)

    @property
    def last_live_rid(self) -> Optional[Rid]:
        if self.last_live_slot is None:
            return None
        return Rid(self.page_no, self.last_live_slot)

    def settled(self, snap_time: int) -> bool:
        """Content condition: nothing outside ``null_slots`` and
        ``freed_slots`` changed after ``snap_time`` — no newer stamp, no
        undo re-insert, and no delete the set does not name."""
        return self.max_ts <= snap_time and (
            self.structural_changed_at <= snap_time
            or self.freed_since <= snap_time
        )

    def __repr__(self) -> str:
        return (
            f"PageSummary(page={self.page_no}, v={self.page_version}, "
            f"max_ts={self.max_ts}, nulls={len(self.null_slots)}, "
            f"structural@{self.structural_changed_at}, "
            f"freed={sorted(self.freed_slots)}@{self.freed_since}, "
            f"live=[{self.first_live_slot}..{self.last_live_slot}])"
        )


class PageQualInfo:
    """Per-snapshot cache of one page's qualified-address layout.

    Populated when a refresh reads the page.  While the page's version
    is unchanged — or the summary names the only slots that changed
    since (``null_slots`` and ``freed_slots``, the page settled for the
    snapshot's ``SnapTime``: "summary completeness",
    ``docs/invariants.md``) — the refresh fast-forwards its
    ``LastQual``/``ExpectPrev``/``LastAddr`` state across the page from
    this record, decoding nothing but the changed slots and their
    successors.  That preserves
    the Figure-4 receiver contract: the next transmitted entry carries
    ``prev_qual = last_qual`` of the skipped page, so its deletion range
    cannot wipe out the skipped page's snapshot rows.
    """

    __slots__ = ("page_version", "first_prev", "qual_slots", "last_live")

    def __init__(
        self,
        page_version: Optional[int],
        first_prev: Optional[Rid],
        qual_slots: "array[int]",
        last_live: Optional[Rid],
    ) -> None:
        #: ``None`` marks a *holdings-only* entry (a resync published on
        #: a page no scan has recorded): only ``qual_slots`` is meaningful.
        self.page_version = page_version
        #: ``$PREVADDR$`` of the page's first live entry as the caching
        #: scan left it; a later skip requires this to equal the scan's
        #: ``ExpectPrev`` at the boundary, which is what catches
        #: deletions whose anomaly lives on this page.
        self.first_prev = first_prev
        #: Slot numbers of the page's qualifying entries, ascending
        #: (``array('H')``): the last one is the page's ``LastQual``.
        self.qual_slots = qual_slots
        self.last_live = last_live

    def __repr__(self) -> str:
        return (
            f"PageQualInfo(v={self.page_version}, first_prev={self.first_prev}, "
            f"qual_slots={list(self.qual_slots)}, last_live={self.last_live})"
        )


class LogMark(NamedTuple):
    """A position in one heap's page write log (:class:`PageSummaryMap`)
    and the ``SnapTime`` of the pass that took it."""

    log: "PageSummaryMap"
    position: int
    snap_time: int


class PageMirror(Dict[int, PageQualInfo]):
    """A snapshot's page cache, ``page_no -> PageQualInfo``, and its mark.

    ``mark`` was taken at the end of the pass whose records the cache
    last committed: every page its log does not name after the mark's
    position has a current record here, which a cursor refreshing from
    the mark's ``SnapTime`` or later would skip ("log completeness",
    ``docs/invariants.md``).  ``None`` — a fresh or cleared cache, one a
    resync rewrote (``adopt_holdings``), one a pass without a mark
    committed to — is *unknown*, and the refresh walks every page.  A
    plain ``dict`` serves as a cache that never has a mark.
    """

    __slots__ = ("mark",)

    def __init__(self) -> None:
        super().__init__()
        self.mark: Optional[LogMark] = None

    def clear(self) -> None:
        super().clear()
        self.mark = None


class PageSummaryMap:
    """All page summaries of one heap, fed by the heap's write hooks.

    ``now`` is a zero-argument callable reading the site clock *without*
    advancing it; structural changes are recorded as ``now() + 1`` — a
    value strictly greater than every completed clock tick, hence
    strictly greater than any existing snapshot's ``SnapTime``.  That
    keeps deletes (which never tick the clock in lazy mode) ordered
    after the refreshes that preceded them without perturbing the
    paper's timestamp bookkeeping.
    """

    def __init__(self, now: Callable[[], int]) -> None:
        self._now = now
        self._pages: "dict[int, PageSummary]" = {}
        #: Record writes so far: the write log's position.
        self.writes = 0
        #: The write log: page -> number of its last write, in the order
        #: of those writes.
        self._log: "dict[int, int]" = {}
        #: Position of the last :meth:`rebuild`; the log says nothing of
        #: the pages before it.
        self._floor = 0

    def changed_since(self, position: int) -> "Optional[list[int]]":
        """The pages written after log ``position``, latest first, in
        O(pages written); ``None`` when the log cannot tell (a
        :meth:`rebuild` came after ``position``)."""
        if position < self._floor:
            return None
        pages = []
        for page_no, number in reversed(self._log.items()):
            if number <= position:
                break
            pages.append(page_no)
        return pages

    def get(self, page_no: int) -> Optional[PageSummary]:
        return self._pages.get(page_no)

    def get_or_create(self, page_no: int) -> PageSummary:
        summary = self._pages.get(page_no)
        if summary is None:
            summary = PageSummary(page_no)
            self._pages[page_no] = summary
        return summary

    def __len__(self) -> int:
        return len(self._pages)

    # -- write hooks (called by HeapFile while the page is pinned) -----------

    def _written(self, page_no: int, count: int = 1) -> PageSummary:
        """The page's summary, its version bumped for ``count`` record
        writes, and the writes logged: one dict move."""
        summary = self._pages.get(page_no)
        if summary is None:
            summary = self._pages[page_no] = PageSummary(page_no)
        summary.page_version += count
        self.writes += count
        log = self._log
        log.pop(page_no, None)
        log[page_no] = self.writes
        return summary

    def _absorb(self, summary: PageSummary, slot_no: int, body: bytes) -> None:
        """Fold one record image's annotation state into the summary.

        The annotations are the record's last two 8-byte fields
        (:meth:`repro.table.Table.enable_annotations`), so ``body`` may
        be the whole record or just that tail.
        """
        prev_page, _, ts = ANNOTATION_TAIL.unpack_from(body, len(body) - 16)
        if prev_page == PREV_NULL_PAGE or ts == TS_NULL:
            summary.null_slots.add(slot_no)
        else:
            summary.null_slots.discard(slot_no)
        if ts != TS_NULL and ts > summary.max_ts:
            summary.max_ts = ts

    def note_insert(
        self, rid: Rid, body: bytes, structural: bool = False
    ) -> None:
        summary = self._written(rid.page_no)
        self._absorb(summary, rid.slot_no, body)
        if summary.first_live_slot is None or rid.slot_no < summary.first_live_slot:
            summary.first_live_slot = rid.slot_no
        if summary.last_live_slot is None or rid.slot_no > summary.last_live_slot:
            summary.last_live_slot = rid.slot_no
        if structural:
            # An undo re-insert: the freed set cannot name it.
            self._mark_structural(summary)
            self._restart_freed(summary, summary.structural_changed_at)

    def note_update(self, rid: Rid, body: bytes) -> None:
        """``body`` is the record as written."""
        self._absorb(self._written(rid.page_no), rid.slot_no, body)

    def note_tails(
        self, page_no: int, tails: "Sequence[tuple[int, memoryview]]"
    ) -> None:
        """Annotation repairs on one page, ``(slot_no, tail)`` each with
        the record's trailing ``(PrevAddr, TimeStamp)`` bytes as
        written: one record write apiece, logged with one move."""
        summary = self._written(page_no, len(tails))
        for slot_no, tail in tails:
            self._absorb(summary, slot_no, tail)

    def note_stamps(self, page_no: int, slots: "Sequence[int]", stamp: int) -> None:
        """Figure 7 stamped ``slots`` of one page in place, each record
        there with a ``PrevAddr``: what :meth:`note_tails` folds of those
        tails, in one update — one record write apiece, logged with one
        move, the slots out of ``null_slots`` and ``max_ts`` up to
        ``stamp``."""
        summary = self._written(page_no, len(slots))
        summary.null_slots.difference_update(slots)
        if stamp > summary.max_ts:
            summary.max_ts = stamp

    def note_delete(self, rid: Rid, page: "SlottedPage") -> None:
        summary = self._written(rid.page_no)
        summary.null_slots.discard(rid.slot_no)
        freed = summary.freed_slots
        if isinstance(freed, set):
            freed.add(rid.slot_no)
        else:
            summary.freed_slots = {rid.slot_no}
        self._mark_structural(summary)
        first, last = summary.first_live_slot, summary.last_live_slot
        if first is not None and last is not None and first < rid.slot_no < last:
            return  # an interior slot: the live bounds stand, skip the walk
        bounds = page.live_bounds()
        if bounds is None:
            summary.first_live_slot = None
            summary.last_live_slot = None
        else:
            summary.first_live_slot, summary.last_live_slot = bounds

    def _mark_structural(self, summary: PageSummary) -> None:
        changed_at = self._now() + 1
        if changed_at > summary.structural_changed_at:
            summary.structural_changed_at = changed_at

    @staticmethod
    def _restart_freed(summary: PageSummary, at: int) -> None:
        """The freed set names the deletes after ``at`` only."""
        summary.freed_slots = _NO_SLOTS
        if at > summary.freed_since:
            summary.freed_since = at

    # -- refresh passes ---------------------------------------------------------

    def chained(self, page_no: int, at: int) -> None:
        """A refresh pass with clock ``at`` ran Figure 7 over the page:
        each delete the freed set names is now detected (on this page or
        at a later page's boundary, in the same pass), so the set starts
        again from ``at``.  A cursor refreshing from before ``at`` can no
        longer learn those deletes from the set."""
        summary = self._pages.get(page_no)
        if summary is not None and summary.freed_slots:
            self._restart_freed(summary, at)

    # -- bulk (re)construction ------------------------------------------------

    def rebuild(self, heap: "HeapFile") -> None:
        """Recompute every summary from the heap's current contents.

        Used when annotations (and with them summaries) are enabled on a
        table that already holds data.  The rebuilt versions restart, so
        the rebuild takes a log position of its own and every earlier
        mark becomes unknown (:meth:`changed_since`).
        """
        self._pages.clear()
        self._log.clear()
        self.writes += 1
        self._floor = self.writes
        for page_no in range(heap.page_count):
            summary = self.get_or_create(page_no)
            for slot_no, body in heap.page_entries(page_no):
                self._absorb(summary, slot_no, body)
                if summary.first_live_slot is None:
                    summary.first_live_slot = slot_no
                summary.last_live_slot = slot_no
