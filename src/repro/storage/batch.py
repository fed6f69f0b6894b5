"""Columnar page batches: decode a page's refresh state once per read.

The combined fix-up + refresh scan needs, for every live entry of every
page it reads, the two trailing annotation fields (``$PREVADDR$``,
``$TIMESTAMP$``), the entry's qualification under each cursor's
restriction, and — only for entries actually transmitted — the full row.
The per-row path pays a :func:`~repro.relation.row.decode_fields` probe,
a sparse-values list, and a lazy-entry object *per record per pass*,
which is pure Python object overhead on data that usually has not
changed since the previous refresh.

A :class:`PageBatch` is the columnar alternative: one slot-directory
walk over the pinned page image extracts parallel ``array``-module
arrays of slot numbers, raw timestamps, and ``PrevAddr`` components
(both annotation types are fixed 8-byte inline-NULL encodings at the
end of every record, so a single ``Struct("<iIq")`` read per record
captures all three), plus one ``bytes`` body per record.  Alongside the
arrays the extractor computes the page-level facts that tell the scan,
in O(1), whether it must write to the page:

``has_nulls``
    Some live entry has a NULL annotation — a lazy insert or update
    awaiting fix-up.  The scan repairs such a page by walking the
    annotation columns below and writing only the records that need it
    (:meth:`repro.core.scanpass._ScanPass._fix_up`); the cursors are
    then served from the same batch.

``chain_ok``
    Every entry after the first points at its live predecessor on the
    page.  A broken intra-page chain means a deletion anomaly or an
    insert repoint hides here; the same column walk detects and
    repairs it.

``first_prev`` / ``max_live_ts``
    The boundary inputs: the first entry's ``PrevAddr`` (checked against
    the scan's ``ExpectPrev``) and an exact max over live timestamps
    (``<= snap_time`` means no entry on the page can be value-changed
    for that cursor).

A page with no NULLs, an intact chain and a matching boundary is
*write-free*: the scan serves it without touching the base table.

A batch lives for one read of its page
(:meth:`repro.storage.heap.HeapFile.fix_batch`): a refresh pass reads
each page at most once, and page summaries let a later pass skip or
visit a page that has not changed instead of reading it whole again.
The per-batch caches below make the *derived* work of that read
shared by every cursor riding it:

- :meth:`qualifying` memoizes each restriction's qualifying entries
  (the Figure-3 qualification test, evaluated once per entry per
  restriction text however many cursors share it), or evaluates it on
  just the entries a cursor names — those that changed for its snapshot.
  Either way the restriction's rendered
  :meth:`~repro.expr.predicate.Restriction.qualifier` reads the columns
  it needs off the stored records, in one call per page;
- :meth:`row` memoizes full-row materialization, so fan-out and repeat
  transmissions never decode an entry twice.

A page whose summary names every slot that changed is not extracted
whole: the scan asks for a *partial* batch of just those slots
(``only=``), which serves the same qualification and rows for those
records.  When each of them is an update in place awaiting its stamp
and the page continues the scan's chain, that read is
:func:`read_visit`, which also names where the stamps go
(:meth:`repro.storage.heap.HeapFile.stamp_named` writes them).  Where
one of them was emptied or newly inserted, the partial batch also holds
the next live record after it — the one whose ``PrevAddr`` Figure 7 may
have to repoint — and gives every record its live predecessor on the
page (``preds``), so the fix-up can walk just these records.

Everything here is read-only with respect to the page: extraction runs
under a single pin and copies what it keeps, so a batch never aliases
buffer-pool frames that may be evicted or rewritten.
"""

from __future__ import annotations

import struct
from array import array
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import StorageError
from repro.relation.row import Row, decode_row
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, directory_struct
from repro.storage.rid import Rid

if TYPE_CHECKING:  # predicate compilation is a client-layer concern
    from repro.expr.predicate import Restriction

#: The two annotation sentinels (see ``repro.relation.types``): a
#: ``$PREVADDR$`` page of ``-2**31`` and a ``$TIMESTAMP$`` of ``-2**63``
#: both mean SQL NULL, encoded inline so record sizes never change.
PREV_NULL_PAGE = -(2**31)
TS_NULL = -(2**63)

#: The trailing 16 bytes of every annotated record: PrevAddr page (i32),
#: PrevAddr slot (u32), timestamp (i64) — read in one call per record.
ANNOTATION_TAIL = struct.Struct("<iIq")

#: The tail's last 8 bytes alone, the ``TimeStamp``: what a stamp writes.
TAIL_STAMP = struct.Struct("<q")

_SLOT_COUNT = struct.Struct("<H")

#: One slot-directory entry: body offset (0: an empty slot), length.
_SLOT_ENTRY = struct.Struct("<HH")

#: Minimum record size that can carry the trailing annotations (one
#: NULL-bitmap byte plus the two fixed 8-byte annotation fields).
_MIN_ANNOTATED = 17


class PageBatch:
    """Columnar image of one heap page's live entries plus derived caches.

    Instances are built by :func:`extract_page_batch` and are immutable
    in their extracted state; the qualification/row caches fill lazily
    and stay valid for the lifetime of the batch, one read of the page:
    the bodies are copies, so later writes to the page do not reach it.
    """

    __slots__ = (
        "page_no",
        "count",
        "slots",
        "ts",
        "prev_pages",
        "prev_slots",
        "bodies",
        "has_nulls",
        "chain_ok",
        "first_prev",
        "max_live_ts",
        "materializations",
        "preds",
        "_schema",
        "_rows",
        "_qual_cache",
        "_live",
    )

    def __init__(
        self,
        page_no: int,
        schema: Schema,
        slots: "array[int]",
        ts: "array[int]",
        prev_pages: "array[int]",
        prev_slots: "array[int]",
        bodies: "List[bytes]",
        has_nulls: bool,
        chain_ok: bool,
        first_prev: object,
        max_live_ts: int,
        preds: "Optional[array[int]]" = None,
    ) -> None:
        self.page_no = page_no
        self.count = len(bodies)
        self.slots = slots
        #: Raw i64 timestamps; ``-2**63`` is the inline-NULL sentinel.
        self.ts = ts
        self.prev_pages = prev_pages
        self.prev_slots = prev_slots
        self.bodies = bodies
        self.has_nulls = has_nulls
        self.chain_ok = chain_ok
        #: Decoded ``PrevAddr`` of the first live entry (``NULL`` or a
        #: :class:`Rid`, possibly ``Rid.BEGIN``); ``None`` when empty.
        self.first_prev = first_prev
        #: Exact max over live non-NULL timestamps (0 when none).
        self.max_live_ts = max_live_ts
        #: Full-row decodes of this batch, charged by the scan to
        #: ``rows_materialized``.
        self.materializations = 0
        #: Of a partial batch that read successors: each record's live
        #: predecessor slot on the page, -1 for the page's first live
        #: record.  ``None``: entry ``i - 1`` of a whole batch, or none
        #: needed (a partial batch of in-place updates).
        self.preds = preds
        self._schema = schema
        self._rows: "List[Optional[Row]]" = [None] * len(bodies)
        self._qual_cache: "Dict[str, array[int]]" = {}
        self._live: "Optional[frozenset[int]]" = None

    def last_rid(self) -> Optional[Rid]:
        """Address of the page's last live entry (``None`` when empty)."""
        if not self.count:
            return None
        return Rid(self.page_no, self.slots[-1])

    def row(self, index: int) -> Row:
        """Full row of entry ``index``, decoded at most once per batch."""
        row = self._rows[index]
        if row is None:
            row = decode_row(self._schema, self.bodies[index])
            self._rows[index] = row
            self.materializations += 1
        return row

    def row_at(self, slot_no: int) -> Row:
        """Full row of the entry in ``slot_no`` (see :meth:`row`)."""
        return self.row(self.slots.index(slot_no))

    @property
    def live(self) -> "frozenset[int]":
        """The extracted slots as a set, built once: of a whole batch,
        every live slot of the page (a slot it lacks holds no row)."""
        if self._live is None:
            self._live = frozenset(self.slots)
        return self._live

    def qualifying(
        self,
        restriction: "Restriction",
        among: "Optional[Sequence[int]]" = None,
    ) -> "Sequence[int]":
        """Indices of entries satisfying ``restriction``, memoized by text.

        This is the batch form of the Figure-3 qualification test: the
        predicate is evaluated once per entry of this read, however many
        cursors of the pass share the restriction's text.

        With ``among`` — entry indices, ascending — only those entries
        are evaluated: the answer depends on the asker (which entries
        changed for *its* snapshot), so it is not memoized.
        """
        if among is not None:
            return restriction.qualifier(self._schema)(self.bodies, among)
        key: str = restriction.text
        cached = self._qual_cache.get(key)
        if cached is None:
            qualifier = restriction.qualifier(self._schema)
            cached = qualifier(self.bodies, range(self.count))
            self._qual_cache[key] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"PageBatch(page={self.page_no}, "
            f"count={self.count}, nulls={self.has_nulls}, "
            f"chain={'ok' if self.chain_ok else 'broken'}, "
            f"max_ts={self.max_live_ts})"
        )


def _prev_addr(prev_page: int, prev_slot: int) -> object:
    """A ``PrevAddr`` off the record tail: ``NULL`` or a :class:`Rid`."""
    return NULL if prev_page == PREV_NULL_PAGE else Rid(prev_page, prev_slot)


def extract_page_batch(
    page_no: int,
    buf: bytearray,
    schema: Schema,
    only: "Optional[Sequence[int]]" = None,
) -> PageBatch:
    """Extract a :class:`PageBatch` from a pinned page image.

    One pass over the slot directory (read whole: unpacked in a single
    call) and one :data:`ANNOTATION_TAIL` read per live record; the
    caller holds the pin for the duration and the batch copies every
    byte it keeps.
    The schema's last two columns are the annotations (see
    :meth:`repro.table.Table.enable_annotations`).

    With ``only`` — slot numbers, ascending — the batch is *partial*:
    just those records (fewer when a slot is empty), at their cost:
    each one's directory entry and annotation tail are read once off the
    frame and its body copied once, with no copy of the page
    (:func:`_read_named`).  When one of them is empty or a pure insert
    (NULL ``PrevAddr``) the batch chains (:func:`_chained`): the next
    live record after each such slot is read too, and ``preds`` gives
    every record its live predecessor.  ``first_prev`` is still the
    page's (the scan's boundary test needs it whichever entries it
    reads), read off the first live directory entry; ``has_nulls`` and
    ``max_live_ts`` cover the extracted records and ``chain_ok`` is
    False, not proven.  Its bodies are ``bytearray`` copies.
    """
    (slot_count,) = _SLOT_COUNT.unpack_from(buf, 2)
    tail_read = ANNOTATION_TAIL.unpack_from
    preds: "Optional[array[int]]" = None
    chain_ok = True
    first_prev: object = None
    named = None if only is None else _read_named(page_no, buf, slot_count, only)
    if named is not None:
        slots, ts, prev_pages, prev_slots, bodies, has_nulls, max_live_ts, _ = named
    else:
        entries: "Iterable[Tuple[int, int, int]]"
        image: "bytes | bytearray"
        if only is None:
            # One immutable copy of the page: each body is then a slice.
            image = bytes(buf)
            # One unpack for the whole slot directory, with the struct
            # built once per slot count.
            directory = directory_struct(slot_count).unpack_from(image, HEADER_SIZE)
            entries = zip(range(slot_count), directory[0::2], directory[1::2])
        else:
            image = buf  # a slice of the frame is a copy
            entries, preds = _chained(
                buf, directory_struct(slot_count).unpack_from(buf, HEADER_SIZE), only
            )
        slots = array("H")
        ts = array("q")
        prev_pages = array("i")
        prev_slots = array("I")
        bodies = []
        has_nulls = False
        max_live_ts = 0
        for slot_no, offset, length in entries:
            if offset == 0:
                continue
            if length < _MIN_ANNOTATED:
                _too_short(page_no, slot_no, length)
            prev_page, prev_slot, stamp = tail_read(image, offset + length - 16)
            if bodies:
                if prev_page != page_no or prev_slot != slots[-1]:
                    chain_ok = False
            else:
                first_prev = _prev_addr(prev_page, prev_slot)
            if stamp == TS_NULL or prev_page == PREV_NULL_PAGE:
                has_nulls = True
            elif stamp > max_live_ts:
                max_live_ts = stamp
            slots.append(slot_no)
            ts.append(stamp)
            prev_pages.append(prev_page)
            prev_slots.append(prev_slot)
            bodies.append(image[offset : offset + length])
    if only is not None:
        # The reads covered the extracted records alone.
        chain_ok = False
        first = _first_prev(buf, slot_count)
        if first is not None:
            first_prev = _prev_addr(*first)
    return PageBatch(
        page_no,
        schema,
        slots,
        ts,
        prev_pages,
        prev_slots,
        bodies,
        has_nulls,
        chain_ok,
        first_prev,
        max_live_ts,
        preds,
    )


def read_visit(
    page_no: int,
    buf: bytearray,
    schema: Schema,
    only: "Sequence[int]",
    expect: "Tuple[int, int]",
) -> "Optional[Tuple[PageBatch, List[int]]]":
    """Figure 7's visit case, decided on a pinned page image before
    anything is written: the partial batch of ``only`` (ascending slot
    numbers) and where each record's 16-byte tail ends, or ``None``.

    The case holds when every record named is there, in place (a
    ``PrevAddr``: not a pure insert) and NULL-stamped, and the page's
    first ``PrevAddr`` is ``expect``, the scan's ``ExpectPrev``: then
    Figure 7 writes just the stamps, and reads none of the page's other
    records.  Each named record's directory entry and tail are read
    once (:func:`_read_named`); the bodies are copies, as read.
    """
    (slot_count,) = _SLOT_COUNT.unpack_from(buf, 2)
    named = _read_named(page_no, buf, slot_count, only)
    if named is None:
        return None
    slots, ts, prev_pages, prev_slots, bodies, _, _, ends = named
    if ts.count(TS_NULL) != len(ts) or _first_prev(buf, slot_count) != expect:
        return None
    batch = PageBatch(
        page_no,
        schema,
        slots,
        ts,
        prev_pages,
        prev_slots,
        bodies,
        has_nulls=True,
        chain_ok=False,
        first_prev=Rid(*expect),
        max_live_ts=0,
    )
    return batch, ends


def _first_prev(buf: bytearray, slot_count: int) -> "Optional[Tuple[int, int]]":
    """The page's first live record's ``PrevAddr``, as ``(page, slot)``
    off its tail; ``None`` when the page is empty."""
    entry_at = _SLOT_ENTRY.unpack_from
    for first in range(slot_count):
        offset, length = entry_at(buf, HEADER_SIZE + SLOT_SIZE * first)
        if offset:
            return ANNOTATION_TAIL.unpack_from(buf, offset + length - 16)[:2]
    return None


def _too_short(page_no: int, slot_no: int, length: int) -> NoReturn:
    raise StorageError(
        f"page {page_no} slot {slot_no}: record of {length} bytes "
        f"cannot carry trailing annotations"
    )


#: What :func:`_read_named` reads: slots, timestamps, ``PrevAddr`` pages
#: and slots, bodies, whether a stamp is NULL, the largest stamp, and
#: where each record's tail ends.
_Named = Tuple[
    "array[int]",
    "array[int]",
    "array[int]",
    "array[int]",
    List[bytes],
    bool,
    int,
    List[int],
]


def _read_named(
    page_no: int, buf: bytearray, slot_count: int, only: "Sequence[int]"
) -> "Optional[_Named]":
    """The records in ``only`` when none of them chains: for each, one
    read of its directory entry and of its annotation tail, one copy of
    its body, and where its tail ends.  ``None`` at the first slot that
    is empty or holds a pure insert, which :func:`_chained` must take
    up."""
    entry_at = _SLOT_ENTRY.unpack_from
    tail_read = ANNOTATION_TAIL.unpack_from
    ts: "array[int]" = array("q")
    prev_pages: "array[int]" = array("i")
    prev_slots: "array[int]" = array("I")
    bodies: "List[bytes]" = []
    ends: "List[int]" = []
    has_nulls = False
    max_live_ts = 0
    for slot_no in only:
        if slot_no >= slot_count:
            return None
        offset, length = entry_at(buf, HEADER_SIZE + SLOT_SIZE * slot_no)
        if not offset:
            return None
        if length < _MIN_ANNOTATED:
            _too_short(page_no, slot_no, length)
        end = offset + length
        prev_page, prev_slot, stamp = tail_read(buf, end - 16)
        if prev_page == PREV_NULL_PAGE:
            return None
        if stamp == TS_NULL:
            has_nulls = True
        elif stamp > max_live_ts:
            max_live_ts = stamp
        ts.append(stamp)
        prev_pages.append(prev_page)
        prev_slots.append(prev_slot)
        bodies.append(buf[offset:end])
        ends.append(end)
    slots = array("H", only)
    return slots, ts, prev_pages, prev_slots, bodies, has_nulls, max_live_ts, ends


def _chained(
    buf: bytearray, directory: "Tuple[int, ...]", only: "Sequence[int]"
) -> "Tuple[List[Tuple[int, int, int]], array[int]]":
    """What a partial batch of ``only`` must read for Figure 7 to pass
    over the page: those records, plus the next live record after each
    slot that chains — one emptied, or a pure insert — and after each
    record so added that chains in turn.  Returns the directory entries
    ``(slot_no, offset, length)`` of the records to read, in slot order,
    and each one's live predecessor slot (-1: none on the page).  The
    neighbours are looked up in the unpacked ``directory``: a step per
    empty slot passed, where a list of the live slots would cost one per
    slot of the page."""
    offsets = directory[0::2]
    present = len(offsets)

    def chains(slot_no: int) -> bool:
        if slot_no >= present or not offsets[slot_no]:
            return True
        end = offsets[slot_no] + directory[2 * slot_no + 1]
        return ANNOTATION_TAIL.unpack_from(buf, end - 16)[0] == PREV_NULL_PAGE

    reads = {slot_no for slot_no in only if slot_no < present and offsets[slot_no]}
    pending = [slot_no for slot_no in only if chains(slot_no)]
    while pending:
        for after in range(pending.pop() + 1, present):
            if offsets[after]:
                if after not in reads:
                    reads.add(after)
                    if chains(after):
                        pending.append(after)
                break
    ordered = sorted(reads)
    preds = array("i")
    for slot_no in ordered:
        before = slot_no - 1
        while before >= 0 and not offsets[before]:
            before -= 1
        preds.append(before)
    entries = [
        (slot_no, offsets[slot_no], directory[2 * slot_no + 1])
        for slot_no in ordered
    ]
    return entries, preds
