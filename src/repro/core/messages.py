"""Refresh message types and their wire sizes.

Each message knows its byte cost (``wire_size``) and whether it counts as
an *entry message* for the paper's evaluation metric ("the number of
messages, as a percentage of the base table size").  Control messages —
the final new-SnapTime transmission, the end-of-scan marker, the clear
command of a full refresh — carry ``counts_as_entry = False`` so the
benchmarks reproduce the paper's tuple-traffic curves, while byte
accounting still includes everything.

Sizes: one type byte; addresses are 8-byte RIDs; timestamps 8 bytes;
entry values cost their real row encoding.

Each concrete message also declares its binary wire format, once:
``TAG`` is the type byte and ``LAYOUT`` the ordered ``(attribute, kind)``
fields that follow it.  :mod:`repro.net.wire` builds its tag table from
these declarations at import and interprets ``LAYOUT`` field by field;
nothing else in the tree restates a message's layout.  Attribute names
equal constructor parameter names, so a decoded message is
``cls(**fields)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.storage.rid import Rid

_TYPE_BYTE = 1
_ADDR_BYTES = Rid.WIRE_SIZE
_TIME_BYTES = 8
#: Segment bounds are bare page numbers — half a Rid on the wire.
_PAGE_BYTES = 4

# -- LAYOUT kinds: the closed set net/wire.py has an encoder/decoder for -----
#: A RID (or ``None``), delta-encoded against the frame's previous address.
ADDR = "addr"
#: A clock reading, zigzag delta against the frame's previous time.
TIME = "time"
#: An unsigned varint (counts, page numbers, column masks).
UVARINT = "uvarint"
#: Every value-schema column: NULL bitmap + compact values.  Decoding
#: also yields the modeled ``value_bytes``.
ROW = "row"
#: Only the columns the message's ``mask`` (the field before it) names.
MASKED_ROW = "masked_row"
#: Length-prefixed raw bytes.
DIGEST = "digest"
#: A count, then that many ``(slot uvarint, digest)`` pairs.
DIGEST_LIST = "digest_list"


class RefreshMessage:
    """Base class: every refresh message is sized and classified."""

    counts_as_entry = True

    #: Wire type byte and field layout; every concrete class in this
    #: module declares both (net/wire.py refuses to import otherwise).
    TAG: int
    LAYOUT: "Tuple[Tuple[str, str], ...]"

    def wire_size(self) -> int:
        raise NotImplementedError


class EntryMessage(RefreshMessage):
    """Figure 3's ``Xmit(Address, LastQual, Value)``.

    Carries the qualified entry's address, the address of the *preceding
    qualified entry* (so the receiver can clear the empty region between
    them), and the projected value.
    """

    TAG = 1
    LAYOUT = (("addr", ADDR), ("prev_qual", ADDR), ("values", ROW))
    __slots__ = ("addr", "prev_qual", "values", "value_bytes")

    def __init__(
        self, addr: Rid, prev_qual: Rid, values: Tuple, value_bytes: int
    ) -> None:
        self.addr = addr
        self.prev_qual = prev_qual
        self.values = values
        self.value_bytes = value_bytes

    def wire_size(self) -> int:
        return _TYPE_BYTE + 2 * _ADDR_BYTES + self.value_bytes

    def __repr__(self) -> str:
        return f"EntryMessage({self.addr}, prev={self.prev_qual}, {self.values})"


class UpdateDeltaMessage(RefreshMessage):
    """A qualified entry retransmission carrying only the changed columns.

    *Towards a Theory of Data-Diff*'s succinct modification: when the
    sender still holds the values it previously transmitted for this
    address (the per-snapshot value cache), it ships a column bitmap plus
    the changed values instead of the whole projected row.  The receiver
    semantics are exactly :class:`EntryMessage`'s — clear the open
    interval ``(prev_qual, addr)``, then update the entry at ``addr`` —
    except the update merges the changed columns into the row the
    receiver already has.  The sender falls back to a full
    :class:`EntryMessage` whenever the cache misses or the delta would
    not be strictly smaller.

    ``mask`` is an integer bitmap (bit *i* set means value-schema column
    *i* changed); ``values`` holds the changed columns' new values in
    ascending position order; ``value_bytes`` is the encoded size of the
    partial row (NULL sub-bitmap + changed values).
    """

    TAG = 11
    LAYOUT = (
        ("addr", ADDR),
        ("prev_qual", ADDR),
        ("mask", UVARINT),
        ("values", MASKED_ROW),
    )
    __slots__ = ("addr", "prev_qual", "mask", "values", "value_bytes")

    def __init__(
        self,
        addr: Rid,
        prev_qual: Rid,
        mask: int,
        values: Tuple,
        value_bytes: int,
    ) -> None:
        self.addr = addr
        self.prev_qual = prev_qual
        self.mask = mask
        self.values = values
        self.value_bytes = value_bytes

    @property
    def mask_bytes(self) -> int:
        """Bytes the column bitmap occupies (at least one)."""
        return max(1, (self.mask.bit_length() + 7) // 8)

    def positions(self) -> "list[int]":
        """Changed column positions, ascending (parallel to ``values``)."""
        out = []
        mask = self.mask
        position = 0
        while mask:
            if mask & 1:
                out.append(position)
            mask >>= 1
            position += 1
        return out

    def wire_size(self) -> int:
        return (
            _TYPE_BYTE + 2 * _ADDR_BYTES + self.mask_bytes + self.value_bytes
        )

    def __repr__(self) -> str:
        return (
            f"UpdateDeltaMessage({self.addr}, prev={self.prev_qual}, "
            f"mask={self.mask:b}, {self.values})"
        )


class EndOfScanMessage(RefreshMessage):
    """Figure 3's final ``Xmit(NULL, LastQual, NULL)``.

    Tells the receiver to delete every snapshot entry beyond the last
    qualified address (deletions at the end of the base table leave no
    successor to carry a timestamp).
    """

    counts_as_entry = False

    TAG = 2
    LAYOUT = (("last_qual", ADDR),)
    __slots__ = ("last_qual",)

    def __init__(self, last_qual: Rid) -> None:
        self.last_qual = last_qual

    def wire_size(self) -> int:
        return _TYPE_BYTE + 2 * _ADDR_BYTES  # NULL addr + LastQual

    def __repr__(self) -> str:
        return f"EndOfScanMessage(last_qual={self.last_qual})"


class SnapTimeMessage(RefreshMessage):
    """The new SnapTime, sent last: ``Xmit(current_time)``."""

    counts_as_entry = False

    TAG = 3
    LAYOUT = (("time", TIME),)
    __slots__ = ("time",)

    def __init__(self, time: int) -> None:
        self.time = time

    def wire_size(self) -> int:
        return _TYPE_BYTE + _TIME_BYTES

    def __repr__(self) -> str:
        return f"SnapTimeMessage({self.time})"


class RefreshBeginMessage(RefreshMessage):
    """Opens a refresh epoch at the receiver.

    Every message that follows — up to the matching
    :class:`RefreshCommitMessage` — is *staged* rather than applied, so
    a stream torn by a link failure can never leave the snapshot between
    states: the stale stage is discarded when the retried refresh opens
    its own epoch.  ``epoch`` is any site-unique monotone id (the sender
    ticks its logical clock).
    """

    counts_as_entry = False

    TAG = 4
    LAYOUT = (("epoch", TIME),)
    __slots__ = ("epoch",)

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch

    def wire_size(self) -> int:
        return _TYPE_BYTE + _TIME_BYTES

    def __repr__(self) -> str:
        return f"RefreshBeginMessage({self.epoch})"


class RefreshCommitMessage(RefreshMessage):
    """Atomically applies the epoch's staged messages.

    Carries the number of messages the sender transmitted inside the
    epoch; a mismatch with what the receiver staged means the link
    dropped part of the stream, and the receiver rolls the epoch back
    instead of committing a hole.
    """

    counts_as_entry = False

    TAG = 5
    LAYOUT = (("epoch", TIME), ("count", UVARINT))
    __slots__ = ("epoch", "count")

    def __init__(self, epoch: int, count: int) -> None:
        self.epoch = epoch
        self.count = count

    def wire_size(self) -> int:
        return _TYPE_BYTE + _TIME_BYTES + 4  # epoch + message count

    def __repr__(self) -> str:
        return f"RefreshCommitMessage({self.epoch}, count={self.count})"


class DeleteRangeMessage(RefreshMessage):
    """Delete all snapshot entries with BaseAddr strictly inside (lo, hi).

    Used by the optimized differential variant (a delete-only message is
    cheaper than retransmitting an unchanged qualified entry) and by the
    empty-region receiver.  ``hi=None`` means "to the end of the table".
    """

    TAG = 6
    LAYOUT = (("lo", ADDR), ("hi", ADDR))
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rid, hi: Optional[Rid]) -> None:
        self.lo = lo
        self.hi = hi

    def wire_size(self) -> int:
        return _TYPE_BYTE + 2 * _ADDR_BYTES

    def __repr__(self) -> str:
        return f"DeleteRangeMessage({self.lo}, {self.hi})"


class UpsertMessage(RefreshMessage):
    """Ideal/ASAP: insert-or-update one snapshot entry by base address."""

    TAG = 7
    LAYOUT = (("addr", ADDR), ("values", ROW))
    __slots__ = ("addr", "values", "value_bytes")

    def __init__(self, addr: Rid, values: Tuple, value_bytes: int) -> None:
        self.addr = addr
        self.values = values
        self.value_bytes = value_bytes

    def wire_size(self) -> int:
        return _TYPE_BYTE + _ADDR_BYTES + self.value_bytes

    def __repr__(self) -> str:
        return f"UpsertMessage({self.addr}, {self.values})"


class DeleteMessage(RefreshMessage):
    """Ideal/ASAP: delete one snapshot entry by base address."""

    TAG = 8
    LAYOUT = (("addr", ADDR),)
    __slots__ = ("addr",)

    def __init__(self, addr: Rid) -> None:
        self.addr = addr

    def wire_size(self) -> int:
        return _TYPE_BYTE + _ADDR_BYTES

    def __repr__(self) -> str:
        return f"DeleteMessage({self.addr})"


class ClearMessage(RefreshMessage):
    """Full refresh: drop the entire snapshot contents before reloading."""

    counts_as_entry = False

    TAG = 9
    LAYOUT = ()

    def wire_size(self) -> int:
        return _TYPE_BYTE

    def __repr__(self) -> str:
        return "ClearMessage()"


class FullRowMessage(RefreshMessage):
    """Full refresh: one qualified entry of the re-transmitted table."""

    TAG = 10
    LAYOUT = (("addr", ADDR), ("values", ROW))
    __slots__ = ("addr", "values", "value_bytes")

    def __init__(self, addr: Rid, values: Tuple, value_bytes: int) -> None:
        self.addr = addr
        self.values = values
        self.value_bytes = value_bytes

    def wire_size(self) -> int:
        return _TYPE_BYTE + _ADDR_BYTES + self.value_bytes

    def __repr__(self) -> str:
        return f"FullRowMessage({self.addr}, {self.values})"


class SegmentHashRequestMessage(RefreshMessage):
    """Anti-entropy: ask for the receiver's hash over a page segment.

    ``[lo, hi)`` is a half-open *page* interval of the base address
    space.  The receiver answers with a
    :class:`SegmentHashResponseMessage` digesting every snapshot entry
    whose address falls in the segment; a mismatch against the sender's
    own digest recurses by bisection, so only drifted segments are ever
    enumerated.
    """

    counts_as_entry = False

    TAG = 12
    LAYOUT = (("lo", UVARINT), ("hi", UVARINT))
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi

    def wire_size(self) -> int:
        return _TYPE_BYTE + 2 * _PAGE_BYTES

    def __repr__(self) -> str:
        return f"SegmentHashRequestMessage([{self.lo}, {self.hi}))"


class SegmentHashResponseMessage(RefreshMessage):
    """Anti-entropy: one side's digest and entry count over a segment.

    ``digest`` is an order-sensitive hash (addresses and encoded values)
    of the segment's entries; ``count`` rides along so an empty-vs-empty
    comparison is free and mismatch diagnostics are cheap.
    """

    counts_as_entry = False

    TAG = 13
    LAYOUT = (
        ("lo", UVARINT),
        ("hi", UVARINT),
        ("digest", DIGEST),
        ("count", UVARINT),
    )
    __slots__ = ("lo", "hi", "digest", "count")

    def __init__(self, lo: int, hi: int, digest: bytes, count: int) -> None:
        self.lo = lo
        self.hi = hi
        self.digest = digest
        self.count = count

    def wire_size(self) -> int:
        return _TYPE_BYTE + 2 * _PAGE_BYTES + len(self.digest) + 4

    def __repr__(self) -> str:
        return (
            f"SegmentHashResponseMessage([{self.lo}, {self.hi}), "
            f"digest={self.digest.hex()}, count={self.count})"
        )


class RowDigestsMessage(RefreshMessage):
    """Anti-entropy: the receiver's per-row digests for one dirty page.

    Once bisection has narrowed a mismatch to a leaf, re-shipping the
    whole leaf wastes bytes proportional to the page, not the drift.
    Instead the receiver enumerates ``(slot, digest)`` for its entries
    on the page; the sender diffs against its own rows and ships only
    the upserts and deletes that actually differ.  Slots are small
    (bounded by rows-per-page), so each entry costs one slot byte plus
    the short row digest.
    """

    counts_as_entry = False

    TAG = 14
    LAYOUT = (("page_no", UVARINT), ("entries", DIGEST_LIST))
    __slots__ = ("page_no", "entries")

    def __init__(
        self, page_no: int, entries: "Tuple[Tuple[int, bytes], ...]"
    ) -> None:
        self.page_no = page_no
        self.entries = tuple(entries)

    def wire_size(self) -> int:
        body = sum(1 + len(digest) for _, digest in self.entries)
        return _TYPE_BYTE + _PAGE_BYTES + 2 + body

    def __repr__(self) -> str:
        return (
            f"RowDigestsMessage(page={self.page_no}, "
            f"entries={len(self.entries)})"
        )
