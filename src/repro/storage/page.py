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

A directory entry with ``offset == 0`` marks a free (empty) slot; record
bodies never start at offset 0 because the header occupies it.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import PageFormatError, PageFullError, RecordNotFoundError

PAGE_SIZE = 4096

_HEADER = struct.Struct("<HHHHI")
_SLOT = struct.Struct("<HH")
_MAGIC = 0x5250

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Largest record body a page of the default size can hold.
MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` image.

    The page object is a *view*: mutating it mutates the underlying image,
    so a buffer pool can hand out ``SlottedPage(frame)`` wrappers without
    copying.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, buf: bytearray, initialize: bool = False) -> None:
        if initialize:
            if len(buf) < HEADER_SIZE + SLOT_SIZE:
                raise PageFormatError("page buffer too small")
            _HEADER.pack_into(buf, 0, _MAGIC, 0, len(buf), 0, 0)
        else:
            magic = struct.unpack_from("<H", buf, 0)[0]
            if magic != _MAGIC:
                raise PageFormatError(f"bad page magic: {magic:#06x}")
        self._buf = buf
        self._size = len(buf)

    @classmethod
    def empty(cls, size: int = PAGE_SIZE) -> "SlottedPage":
        """Allocate and format a fresh page."""
        return cls(bytearray(size), initialize=True)

    # -- header accessors -------------------------------------------------

    def _read_header(self) -> "tuple[int, int, int, int, int]":
        return _HEADER.unpack_from(self._buf, 0)

    @property
    def slot_count(self) -> int:
        return self._read_header()[1]

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

    # -- space accounting --------------------------------------------------

    def contiguous_free(self) -> int:
        """Bytes between the end of the directory and the record area."""
        _, slot_count, free_data_offset, _, _ = self._read_header()
        return free_data_offset - (HEADER_SIZE + slot_count * SLOT_SIZE)

    def reclaimable(self) -> int:
        """Bytes recoverable by compaction (holes left by deletes/updates)."""
        _, slot_count, free_data_offset, _, _ = self._read_header()
        live_bytes = 0
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset != 0:
                live_bytes += length
        return (self._size - free_data_offset) - live_bytes

    def free_for_insert(self, record_size: int, reuse_slot: bool) -> bool:
        """Whether a record of ``record_size`` fits (possibly after compaction)."""
        need = record_size + (0 if reuse_slot else SLOT_SIZE)
        return self.contiguous_free() + self.reclaimable() >= need

    # -- record operations ---------------------------------------------------

    def lowest_free_slot(self) -> Optional[int]:
        """Index of the lowest empty directory slot, or ``None``."""
        for slot_no in range(self.slot_count):
            offset, _ = self._slot(slot_no)
            if offset == 0:
                return slot_no
        return None

    def insert(self, record: bytes, slot_no: Optional[int] = None) -> int:
        """Store ``record``; return its slot number.

        With ``slot_no=None`` the lowest free slot is reused, else a new
        directory entry is appended.  An explicit ``slot_no`` must name an
        existing free slot (used by recovery redo).
        """
        if slot_no is None:
            slot_no = self.lowest_free_slot()
        else:
            if slot_no >= self.slot_count:
                self._extend_directory(slot_no)
            offset, _ = self._slot(slot_no)
            if offset != 0:
                raise PageFullError(f"slot {slot_no} already occupied")
        reuse = slot_no is not None
        need = len(record) + (0 if reuse else SLOT_SIZE)
        if self.contiguous_free() < need:
            if self.contiguous_free() + self.reclaimable() < need:
                raise PageFullError(
                    f"record of {len(record)} bytes does not fit "
                    f"({self.contiguous_free()} contiguous, "
                    f"{self.reclaimable()} reclaimable)"
                )
            self.compact()
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        if slot_no is None:
            slot_no = slot_count
            slot_count += 1
        new_offset = free_data_offset - len(record)
        self._buf[new_offset : new_offset + len(record)] = record
        self._write_header(slot_count, new_offset, live_count + 1)
        self._set_slot(slot_no, new_offset, len(record))
        return slot_no

    def _extend_directory(self, slot_no: int) -> None:
        """Grow the directory so ``slot_no`` exists (entries born empty)."""
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        wanted = slot_no + 1
        extra = (wanted - slot_count) * SLOT_SIZE
        if self.contiguous_free() < extra:
            if self.contiguous_free() + self.reclaimable() < extra:
                raise PageFullError("no room to extend slot directory")
            self.compact()
            _, slot_count, free_data_offset, live_count, _ = self._read_header()
        for new_slot in range(slot_count, wanted):
            self._set_slot(new_slot, 0, 0)
        self._write_header(wanted, free_data_offset, live_count)

    def read(self, slot_no: int) -> bytes:
        """Return the record body in ``slot_no``; raise if empty/out of range."""
        if slot_no >= self.slot_count:
            raise RecordNotFoundError(f"slot {slot_no} out of range")
        offset, length = self._slot(slot_no)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        return bytes(self._buf[offset : offset + length])

    def tail(self, slot_no: int, size: int) -> memoryview:
        """A writable view of the last ``size`` bytes of the record in
        ``slot_no``: fixed-width trailing fields are patched where they lie."""
        if not self.is_live(slot_no):
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        offset, length = self._slot(slot_no)
        if length < size:
            raise PageFormatError(f"slot {slot_no}: no {size}-byte tail")
        return memoryview(self._buf)[offset + length - size : offset + length]

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
        if not self.is_live(slot_no):
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        _, length = self._slot(slot_no)
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        self._set_slot(slot_no, 0, 0)
        self._write_header(slot_count, free_data_offset, live_count - 1)
        return length

    def update(self, slot_no: int, record: bytes) -> bool:
        """Replace the record in ``slot_no`` in place (same address).

        Shrinking reuses the old space; growing allocates fresh space,
        compacting first when fragmentation allows.  Raises
        :class:`PageFullError` when the grown record genuinely cannot fit,
        in which case the caller (the table layer) falls back to
        delete+reinsert at a new address.

        Returns whether the page's layout changed: a record of exactly
        the old length is overwritten where it lies, so neither
        :meth:`contiguous_free` nor :meth:`reclaimable` can have moved.
        """
        if not self.is_live(slot_no):
            raise RecordNotFoundError(f"slot {slot_no} is empty")
        offset, length = self._slot(slot_no)
        if len(record) <= length:
            self._buf[offset : offset + len(record)] = record
            if len(record) == length:
                return False
            self._set_slot(slot_no, offset, len(record))
            return True
        # Grow: temporarily drop the old copy so compaction can reclaim it.
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        self._set_slot(slot_no, 0, 0)
        if self.contiguous_free() < len(record):
            if self.contiguous_free() + self.reclaimable() < len(record):
                self._set_slot(slot_no, offset, length)  # restore
                raise PageFullError(
                    f"updated record of {len(record)} bytes does not fit"
                )
            self.compact()
        _, slot_count, free_data_offset, live_count, _ = self._read_header()
        new_offset = free_data_offset - len(record)
        self._buf[new_offset : new_offset + len(record)] = record
        self._write_header(slot_count, new_offset, live_count)
        self._set_slot(slot_no, new_offset, len(record))
        return True

    def compact(self) -> None:
        """Re-pack live record bodies toward the page end, squeezing holes."""
        _, slot_count, _, live_count, _ = self._read_header()
        live = []
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset != 0:
                live.append((slot_no, bytes(self._buf[offset : offset + length])))
        write_at = self._size
        for slot_no, body in live:
            write_at -= len(body)
            self._buf[write_at : write_at + len(body)] = body
            self._set_slot(slot_no, write_at, len(body))
        self._write_header(slot_count, write_at, live_count)

    def records(self) -> "Iterator[tuple[int, bytes]]":
        """Yield ``(slot_no, body)`` for live slots in slot order."""
        for slot_no in range(self.slot_count):
            offset, length = self._slot(slot_no)
            if offset != 0:
                yield slot_no, bytes(self._buf[offset : offset + length])

    def live_bounds(self) -> "Optional[tuple[int, int]]":
        """``(first_live_slot, last_live_slot)``, or ``None`` if the page is empty.

        Directory-only walk — record bodies are not read.  Page summaries
        use this to keep their live-address bounds exact across deletes.
        """
        first: Optional[int] = None
        last: Optional[int] = None
        for slot_no in range(self.slot_count):
            offset, _ = self._slot(slot_no)
            if offset != 0:
                if first is None:
                    first = slot_no
                last = slot_no
        if first is None:
            return None
        return first, last
