"""Byte-level slotted pages.

Classic System-R layout: a fixed-size page holds a header, a slot
directory growing downward from the header, and record bodies growing
upward from the end of the page.  Deleting a record leaves a free slot in
the directory; re-inserting into the *lowest* free slot is what lets the
heap reuse addresses, which in turn is what the paper's empty-region
machinery has to cope with.

Layout (little-endian)::

    offset 0   u16  magic (0x5250, "RP")
    offset 2   u16  slot_count          directory entries ever allocated
    offset 4   u16  free_data_offset    lowest byte used by record bodies
    offset 6   u16  live_count          non-empty slots
    offset 8   u32  reserved (page LSN placeholder)
    offset 12  slot directory: slot_count entries of (u16 offset, u16 length)
    ...        free space
    ...        record bodies, packed toward the end of the page

A directory entry with ``offset == 0`` marks a free (empty) slot, always
written as ``(0, 0)``; record bodies never start at offset 0 because the
header occupies it.  A body may lie anywhere in the record area: a delete
leaves a hole where it was, and a later record is written into the first
hole that holds it (see :meth:`SlottedPage._place`).

Where the holes are is a :class:`FreeSpace`: the free gaps between the
frontier and the page end in address order, the free slot numbers, and
the offsets of the zero-length bodies, which split the gap they sit in.
A view reads it from the image the first time a placement needs it and
moves it in O(gaps) on every write after (:attr:`SlottedPage.space`); a
heap holds what its views read, per page, so a hole insert reads no
directory and sorts nothing.
"""

from __future__ import annotations

import functools
import struct
from bisect import bisect_left, insort
from operator import add
from typing import Iterable, Iterator, Optional

from repro.errors import PageFormatError, PageFullError, RecordNotFoundError

PAGE_SIZE = 4096

_HEADER = struct.Struct("<HHHHI")
_SLOT = struct.Struct("<HH")
_U16 = struct.Struct("<H")  # one header field: magic, slot count, ...
_MAGIC = 0x5250

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Largest record body a page of the default size can hold.
MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


@functools.lru_cache(maxsize=None)
def directory_struct(slot_count: int) -> struct.Struct:
    """A directory of ``slot_count`` entries as one struct, built once
    per length (a page has at most ``size // SLOT_SIZE`` of them)."""
    return struct.Struct(f"<{2 * slot_count}H")


class FreeSpace:
    """A page's free space, as :meth:`SlottedPage._place` searches it.

    ``gaps`` are the free byte ranges ``(start, end)`` between the
    frontier (``free_data_offset``) and the page end that no body
    covers, in address order; a zero-length body is a boundary, so two
    gaps may meet at its offset.  ``slots`` are the free slot numbers
    and ``zeros`` the zero-length bodies' offsets, both ascending.  It
    is read from ``page``'s image.
    """

    __slots__ = ("gaps", "slots", "zeros")

    def __init__(self, page: "SlottedPage") -> None:
        _, slot_count, frontier, live_count, _ = page._read_header()
        directory = page._directory(slot_count)
        offsets = directory[0::2]
        lengths = directory[1::2]
        # Live bodies' starts and ends, each sorted as ints: bodies do
        # not overlap (a zero-length one sits at another's edge), so the
        # i-th start and the i-th end are one body's, in the order of
        # ``(offset, length)``.  The free entries, ``(0, 0)``, sort first.
        free = slot_count - live_count
        starts = sorted(offsets)[free:]
        ends = sorted(map(add, offsets, lengths))[free:]
        gaps = []
        gap_start = frontier
        for start, end in zip(starts, ends):
            if start > gap_start:
                gaps.append((gap_start, start))
            gap_start = end
        if page._size > gap_start:
            gaps.append((gap_start, page._size))
        self.gaps = gaps
        self.slots = [slot for slot, offset in enumerate(offsets) if not offset]
        self.zeros = sorted(
            offset for offset, length in zip(offsets, lengths) if offset and not length
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeSpace):
            return NotImplemented
        return (self.gaps, self.slots, self.zeros) == (
            other.gaps,
            other.slots,
            other.zeros,
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FreeSpace(gaps={self.gaps}, slots={self.slots}, zeros={self.zeros})"

    def holes(self) -> int:
        """Bytes in the gaps: what a re-pack would add to the frontier."""
        return sum(end - start for start, end in self.gaps)

    def take(self, size: int) -> Optional[int]:
        """Carve ``size`` (> 0) bytes off the top of the first gap that
        holds them and return their offset, or ``None`` if none does."""
        gaps = self.gaps
        for i, (start, end) in enumerate(gaps):
            if end - start >= size:
                at = end - size
                if at > start:
                    gaps[i] = (start, at)
                else:
                    del gaps[i]
                return at
        return None

    def release(self, start: int, end: int) -> None:
        """A body's ``[start, end)`` (``end > start``) is free now: it
        joins a gap it touches unless a zero-length body lies between."""
        gaps = self.gaps
        zeros = self.zeros
        i = bisect_left(gaps, (start,))
        if i < len(gaps) and gaps[i][0] == end and end not in zeros:
            end = gaps.pop(i)[1]
        if i and gaps[i - 1][1] == start and start not in zeros:
            i -= 1
            start = gaps.pop(i)[0]
        gaps.insert(i, (start, end))

    def drop_zero(self, at: int) -> None:
        """A zero-length body at ``at`` is gone: the last one there
        stops splitting the gaps it sat between."""
        zeros = self.zeros
        zeros.remove(at)
        if at in zeros:
            return
        gaps = self.gaps
        i = bisect_left(gaps, (at,))
        if 0 < i < len(gaps) and gaps[i - 1][1] == at == gaps[i][0]:
            gaps[i - 1 : i + 1] = [(gaps[i - 1][0], gaps[i][1])]


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` image.

    The page object is a *view*: mutating it mutates the underlying image,
    so a buffer pool can hand out ``SlottedPage(frame)`` wrappers without
    copying.  ``space`` is the page's :class:`FreeSpace`: read from the
    image the first time a placement needs it (or handed in by a heap
    that holds it), then kept exact by every write through this view.
    """

    __slots__ = ("_buf", "_size", "compactions", "space")

    def __init__(
        self,
        buf: bytearray,
        initialize: bool = False,
        space: "Optional[FreeSpace]" = None,
    ) -> None:
        if initialize:
            if len(buf) < HEADER_SIZE + SLOT_SIZE:
                raise PageFormatError("page buffer too small")
            _HEADER.pack_into(buf, 0, _MAGIC, 0, len(buf), 0, 0)
        else:
            magic = _U16.unpack_from(buf, 0)[0]
            if magic != _MAGIC:
                raise PageFormatError(f"bad page magic: {magic:#06x}")
        self._buf = buf
        self._size = len(buf)
        #: Times this view re-packed the page (:meth:`compact`).
        self.compactions = 0
        self.space = space

    @classmethod
    def empty(cls, size: int = PAGE_SIZE) -> "SlottedPage":
        """Allocate and format a fresh page."""
        return cls(bytearray(size), initialize=True)

    # -- header accessors -------------------------------------------------

    def _read_header(self) -> "tuple[int, int, int, int, int]":
        return _HEADER.unpack_from(self._buf, 0)

    @property
    def slot_count(self) -> int:
        return _U16.unpack_from(self._buf, 2)[0]

    @property
    def live_count(self) -> int:
        return self._read_header()[3]

    @property
    def buffer(self) -> bytearray:
        return self._buf

    def _write_header(
        self, slot_count: int, free_data_offset: int, live_count: int
    ) -> None:
        _HEADER.pack_into(
            self._buf, 0, _MAGIC, slot_count, free_data_offset, live_count, 0
        )

    def _slot(self, slot_no: int) -> "tuple[int, int]":
        return _SLOT.unpack_from(self._buf, HEADER_SIZE + slot_no * SLOT_SIZE)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, HEADER_SIZE + slot_no * SLOT_SIZE, offset, length)

    def _directory(self, slot_count: int) -> "tuple[int, ...]":
        """The whole directory in one read: ``(offset, length)`` flattened,
        so offsets are ``[0::2]`` and lengths ``[1::2]``."""
        return directory_struct(slot_count).unpack_from(self._buf, HEADER_SIZE)

    # -- space accounting --------------------------------------------------

    def contiguous_free(self) -> int:
        """Bytes between the end of the directory and the record area."""
        _, slot_count, free_data_offset, _, _ = self._read_header()
        return free_data_offset - (HEADER_SIZE + slot_count * SLOT_SIZE)

    def reclaimable(self) -> int:
        """Bytes of the record area no live body covers (holes left by
        deletes and updates): what :meth:`_place` can fill or squeeze out."""
        _, slot_count, free_data_offset, _, _ = self._read_header()
        # A free entry's length is 0, so the lengths sum to the live bytes.
        live_bytes = sum(self._directory(slot_count)[1::2])
        return (self._size - free_data_offset) - live_bytes

    def holes(self) -> int:
        """:meth:`reclaimable`, summed over the page's free gaps rather
        than its directory."""
        return self._free_space().holes()

    def _free_space(self) -> FreeSpace:
        """The page's free space, read from the image if not yet held."""
        space = self.space
        if space is None:
            space = self.space = FreeSpace(self)
        return space

    def free_for_insert(self, record_size: int, reuse_slot: bool) -> bool:
        """Whether a record of ``record_size`` fits (possibly after compaction)."""
        need = record_size + (0 if reuse_slot else SLOT_SIZE)
        return self.contiguous_free() + self.reclaimable() >= need

    # -- record operations ---------------------------------------------------

    def lowest_free_slot(self) -> Optional[int]:
        """Index of the lowest empty directory slot, or ``None``."""
        offsets = self._directory(self.slot_count)[0::2]
        return offsets.index(0) if 0 in offsets else None

    def insert(self, record: bytes, slot_no: Optional[int] = None) -> int:
        """Store ``record``; return its slot number.

        With ``slot_no=None`` the lowest free slot is reused, else a new
        directory entry is appended.  An explicit ``slot_no`` must name a
        free slot (used by recovery redo); past the directory's end, the
        directory grows to reach it, the entries between born empty.
        """
        if slot_no is not None and self.is_live(slot_no):
            raise PageFullError(f"slot {slot_no} already occupied")
        return self._place(record, slot_no)

    def _place(self, record: bytes, slot_no: Optional[int]) -> int:
        """Write ``record`` and point a slot at it; return the slot.

        ``slot_no=None`` takes the lowest free slot, else a new entry; a
        named slot gives up whatever body it holds, and one past the
        directory's end extends it.  The body goes to the frontier (just
        below ``free_data_offset``) when it fits there, else to the top
        of the first gap that holds it, in address order, and the page
        is re-packed only when no single gap does (or when the longer
        directory leaves no room at all).  A zero-length body is a
        boundary between gaps, never part of one.  Which slot is taken,
        and whether the record fits at all, depend on neither.  The free
        slot and the gaps come off the page's :class:`FreeSpace`, read
        from the image only if the view holds none yet.
        """
        buf = self._buf
        size = len(record)
        _, slot_count, frontier, live_count, _ = _HEADER.unpack_from(buf, 0)
        space = self.space
        given_up = (0, 0)
        if slot_no is None:
            slot_no = slot_count
            if live_count < slot_count:  # else there is no entry to reuse
                if space is None:
                    space = self._free_space()
                slot_no = space.slots[0]
        elif slot_no < slot_count:
            given_up = self._slot(slot_no)
        fresh = not given_up[0]
        # Room at the frontier once the directory reaches the slot.
        new_count = max(slot_count, slot_no + 1)
        room = frontier - HEADER_SIZE - SLOT_SIZE * new_count
        at = frontier - size
        if room < size:
            if space is None:
                space = self._free_space()
            holes = space.holes() + given_up[1]
            if room + holes < size:
                raise PageFullError(
                    f"record of {size} bytes does not fit ({room} at the "
                    f"frontier, {holes} in holes)"
                )
        # The record goes in: the page changes, and its space with it.
        if space is not None:
            if not fresh:  # the body this slot gives up is free space
                if given_up[1]:
                    space.release(given_up[0], given_up[0] + given_up[1])
                else:
                    space.drop_zero(given_up[0])
            elif slot_no < slot_count:
                space.slots.remove(slot_no)
            else:  # the entries in between are born empty
                space.slots.extend(range(slot_count, slot_no))
        if room < size:
            # A directory that grows past the frontier needs a re-pack.
            at = space.take(size) if room >= 0 else None
            if at is None:
                if not fresh:
                    self._set_slot(slot_no, 0, 0)
                self.compact()
                frontier = _HEADER.unpack_from(buf, 0)[2]
                at = frontier - size
        elif space is not None and not size:
            insort(space.zeros, at)
        buf[at : at + size] = record
        if slot_no > slot_count:  # the entries in between are born empty
            born = HEADER_SIZE + SLOT_SIZE * slot_count
            buf[born : born + SLOT_SIZE * (slot_no - slot_count)] = bytes(
                SLOT_SIZE * (slot_no - slot_count)
            )
        self._write_header(new_count, min(frontier, at), live_count + fresh)
        self._set_slot(slot_no, at, size)
        return slot_no

    def read(self, slot_no: int) -> bytes:
        """Return the record body in ``slot_no``; raise if empty/out of range."""
        if slot_no >= self.slot_count:
            raise RecordNotFoundError(f"slot {slot_no} out of range")
        offset, length = self._slot(slot_no)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        return bytes(self._buf[offset : offset + length])

    def patch_tails(
        self, writes: "Iterable[tuple[int, Optional[bytes], Optional[bytes]]]"
    ) -> "list[tuple[int, memoryview]]":
        """Overwrite the trailing ``(PrevAddr, TimeStamp)`` fields of the
        records ``writes`` names — ``(slot_no, prev, ts)``, each field an
        8-byte encoding or ``None`` to keep it — where they lie, in
        order; return each ``(slot_no, tail)``, a view of the 16 bytes
        as written.  Every Figure-7 write comes through here."""
        buf = self._buf
        view = memoryview(buf)
        slot_count = _U16.unpack_from(buf, 2)[0]
        tails = []
        for slot_no, prev, ts in writes:
            offset, length = (
                _SLOT.unpack_from(buf, HEADER_SIZE + slot_no * SLOT_SIZE)
                if slot_no < slot_count
                else (0, 0)
            )
            if not offset:
                raise RecordNotFoundError(f"slot {slot_no} is empty")
            if length < 16:
                raise PageFormatError(f"slot {slot_no}: no 16-byte tail")
            tail = view[offset + length - 16 : offset + length]
            if prev is not None:
                tail[:8] = prev
            if ts is not None:
                tail[8:] = ts
            tails.append((slot_no, tail))
        return tails

    def is_live(self, slot_no: int) -> bool:
        if slot_no >= self.slot_count:
            return False
        offset, _ = self._slot(slot_no)
        return offset != 0

    def delete(self, slot_no: int) -> int:
        """Free ``slot_no`` (directory entry is kept for reuse).

        Returns the freed body's length: the hole it leaves is exactly
        what :meth:`reclaimable` grows by.
        """
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        offset, length = self._slot(slot_no) if slot_no < slot_count else (0, 0)
        if not offset:
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        self._set_slot(slot_no, 0, 0)
        self._write_header(slot_count, free_data_offset, live_count - 1)
        space = self.space
        if space is not None:
            insort(space.slots, slot_no)
            if length:
                space.release(offset, offset + length)
            else:
                space.drop_zero(offset)
        return length

    def update(self, slot_no: int, record: bytes) -> bool:
        """Replace the record in ``slot_no`` in place (same address).

        Shrinking reuses the old space; a grown record is placed like an
        insert (:meth:`_place`), its old body counting as free space.
        Raises :class:`PageFullError` when the grown record genuinely
        cannot fit, in which case the caller (the table layer) falls
        back to delete+reinsert at a new address.

        Returns whether the page's layout changed: a record of exactly
        the old length is overwritten where it lies, so neither
        :meth:`contiguous_free` nor :meth:`reclaimable` can have moved.
        """
        offset, length = self._slot(slot_no) if slot_no < self.slot_count else (0, 0)
        if not offset:
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        size = len(record)
        if size <= length:
            self._buf[offset : offset + size] = record
            if size == length:
                return False
            self._set_slot(slot_no, offset, size)
            space = self.space
            if space is not None:
                if not size:  # a boundary now, left of the bytes it frees
                    insort(space.zeros, offset)
                space.release(offset + size, offset + length)
            return True
        self._place(record, slot_no)
        return True

    def compact(self) -> None:
        """Re-pack live record bodies toward the page end, squeezing holes."""
        buf = self._buf
        _, slot_count, _, live_count, _ = self._read_header()
        directory = list(self._directory(slot_count))
        bodies = []
        write_at = self._size
        for i in range(0, 2 * slot_count, 2):
            offset = directory[i]
            if offset:
                bodies.append(buf[offset : offset + directory[i + 1]])
                write_at -= directory[i + 1]
                directory[i] = write_at
        bodies.reverse()  # slot order runs down from the page end
        buf[write_at:] = b"".join(bodies)
        directory_struct(slot_count).pack_into(buf, HEADER_SIZE, *directory)
        self._write_header(slot_count, write_at, live_count)
        self.compactions += 1
        self.space = None  # read again when next asked for

    def records(self) -> "Iterator[tuple[int, bytes]]":
        """Yield ``(slot_no, body)`` for live slots in slot order."""
        directory = self._directory(self.slot_count)
        for i in range(0, len(directory), 2):
            offset = directory[i]
            if offset:
                yield i // 2, bytes(self._buf[offset : offset + directory[i + 1]])

    def live_bounds(self) -> "Optional[tuple[int, int]]":
        """``(first_live_slot, last_live_slot)``, or ``None`` if the page is empty.

        Directory-only walk — record bodies are not read.  Page summaries
        use this to keep their live-address bounds exact across deletes.
        """
        live = [
            slot_no
            for slot_no, offset in enumerate(self._directory(self.slot_count)[0::2])
            if offset
        ]
        if not live:
            return None
        return live[0], live[-1]
