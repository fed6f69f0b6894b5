"""A real binary wire format for the refresh stream.

Every transport so far shipped Python message objects whose byte cost
was only *modeled* by ``wire_size()``; the paper's whole premise — the
snapshot is remote, refresh quality is bytes on the link — deserves an
actual serialization.  This module is that wire:

- **One type tag per message** (a single byte), then the message's
  fields.  Tag and field layout are declared once, on the message class
  (``TAG``/``LAYOUT`` in :mod:`repro.core.messages`); this module
  derives its tag table from the declarations at import and the
  reference codec (:meth:`WireCodec.encode_into` /
  :meth:`WireCodec._decode_one`) interprets them with one put/get pair
  per layout kind.
- **Varint integers** everywhere a count or length crosses the wire.
- **Delta-encoded addresses**: refresh emits in address order, so each
  RID is encoded against the previous address in the frame — the common
  "next slot on the same page" costs two bytes instead of eight, and an
  ``EntryMessage``'s ``prev_qual`` (usually the immediately preceding
  transmitted address) costs the same two.
- **Relative timestamps**: times (SnapTime, epochs) are zigzag deltas
  against the previous time in the frame, seeded from the codec's
  ``base_time`` (the snapshot's SnapTime) — a refresh stream's handful
  of near-identical clock readings collapse to a byte or two each.
- **Compact values**: row payloads re-encode through a varint-aware
  column codec (ints zigzag, strings varint-length-prefixed) instead of
  the fixed-width storage encoding, with NULLs in a leading bitmap
  exactly as :func:`~repro.relation.row.encode_row` lays them out.
- **Frames**: a :class:`FrameWriter` batches encoded messages and ships
  a :class:`WireFrame` (real bytes; ``wire_size()`` is ``len(data)``)
  when the frame reaches N messages or B bytes, with optional per-frame
  ``zlib`` compression.  Delta state resets at every frame boundary, so
  a dropped frame never corrupts the decode of its successors — the
  loss surfaces as the epoch commit's count mismatch, not as garbage.

The decoder reconstructs the exact logical message sequence (same
types, addresses, values, and modeled ``wire_size()``), so a receiver
behind the wire is byte-identical to one fed the objects directly — the
round-trip property test pins this for arbitrary workloads.
"""

from __future__ import annotations

import struct
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core import messages as msg
from repro.errors import WireError
from repro.net import wirebatch
from repro.net.blocking import FRAME_OVERHEAD
from repro.relation.row import encoded_fields_size
from repro.relation.schema import Schema
from repro.relation.types import (
    NULL,
    FloatType,
    IntType,
    RidType,
    StringType,
    TimestampType,
)
from repro.storage.rid import Rid

#: Frame flags bit: payload is zlib-deflated.
FLAG_DEFLATE = 0x01

_FLOAT = struct.Struct("<d")
_RID_FIXED = struct.Struct("<iI")


# -- varints ----------------------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise WireError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, offset: int) -> "tuple[int, int]":
    value = 0
    shift = 0
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise WireError("truncated varint") from None
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-mapped signed varint (small magnitudes of either sign stay small)."""
    write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def read_svarint(data: bytes, offset: int) -> "tuple[int, int]":
    value, offset = read_uvarint(data, offset)
    return (value >> 1) ^ -(value & 1), offset


# -- compact column values ---------------------------------------------------

# Address head codes shared by the stateful address codec and RidType
# column values (which use absolute coordinates).
_ADDR_NONE = 0
_ADDR_BEGIN = 1
_ADDR_SAME_PAGE = 2
_ADDR_NEW_PAGE = 3


def _encode_value(out: bytearray, ctype: Any, value: Any) -> None:
    """Compact encoding of one non-bitmap-NULL column value."""
    if isinstance(ctype, IntType):
        write_svarint(out, value)
    elif isinstance(ctype, StringType):
        raw = value.encode("utf-8")
        write_uvarint(out, len(raw))
        out += raw
    elif isinstance(ctype, FloatType):
        out += _FLOAT.pack(float(value))
    elif isinstance(ctype, TimestampType):
        # Inline NULL: head 0 is NULL, else 1 + the stamp.
        if value is NULL:
            out.append(0)
        else:
            out.append(1)
            write_uvarint(out, value)
    elif isinstance(ctype, RidType):
        if value is NULL:
            out.append(_ADDR_NONE)
        elif value == Rid.BEGIN:
            out.append(_ADDR_BEGIN)
        else:
            out.append(_ADDR_NEW_PAGE)
            write_svarint(out, value.page_no)
            write_uvarint(out, value.slot_no)
    else:
        # Unknown type: fall back to its own storage encoding, framed.
        raw = ctype.encode(value)
        write_uvarint(out, len(raw))
        out += raw


def _decode_value(ctype: Any, data: bytes, offset: int) -> "tuple[Any, int]":
    if isinstance(ctype, IntType):
        return read_svarint(data, offset)
    if isinstance(ctype, StringType):
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise WireError("truncated string value")
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise WireError(f"malformed string value: {error}") from None
    if isinstance(ctype, FloatType):
        try:
            (value,) = _FLOAT.unpack_from(data, offset)
        except struct.error:
            raise WireError("truncated float value") from None
        return value, offset + _FLOAT.size
    if isinstance(ctype, TimestampType):
        try:
            head = data[offset]
        except IndexError:
            raise WireError("truncated timestamp value") from None
        offset += 1
        if head == 0:
            return NULL, offset
        return read_uvarint(data, offset)
    if isinstance(ctype, RidType):
        try:
            head = data[offset]
        except IndexError:
            raise WireError("truncated rid value") from None
        offset += 1
        if head == _ADDR_NONE:
            return NULL, offset
        if head == _ADDR_BEGIN:
            return Rid.BEGIN, offset
        page_no, offset = read_svarint(data, offset)
        slot_no, offset = read_uvarint(data, offset)
        return Rid(page_no, slot_no), offset
    length, offset = read_uvarint(data, offset)
    value, end = ctype.decode(data, offset)
    if end != offset + length:
        raise WireError(f"value decode overran its frame for {ctype!r}")
    return value, end


def _encode_fields(
    out: bytearray,
    schema: Schema,
    positions: Sequence[int],
    values: Sequence[Any],
) -> None:
    """NULL bitmap over ``positions`` + each value's compact encoding."""
    bitmap = bytearray((len(positions) + 7) // 8)
    mark = len(out)
    out += bitmap
    columns = schema.columns
    for index, (position, value) in enumerate(zip(positions, values)):
        ctype = columns[position].ctype
        if value is NULL and not ctype.inline_null:
            bitmap[index // 8] |= 1 << (index % 8)
        else:
            _encode_value(out, ctype, value)
    out[mark : mark + len(bitmap)] = bitmap


def _decode_fields(
    schema: Schema, positions: Sequence[int], data: bytes, offset: int
) -> "tuple[tuple, int]":
    bitmap_size = (len(positions) + 7) // 8
    bitmap = data[offset : offset + bitmap_size]
    if len(bitmap) < bitmap_size:
        raise WireError("truncated row bitmap")
    offset += bitmap_size
    values: "list[Any]" = []
    columns = schema.columns
    for index, position in enumerate(positions):
        ctype = columns[position].ctype
        if not ctype.inline_null and bitmap[index // 8] & (1 << (index % 8)):
            values.append(NULL)
        else:
            value, offset = _decode_value(ctype, data, offset)
            values.append(value)
    return tuple(values), offset


# -- layout kinds ------------------------------------------------------------

#: A decoded value and the offset just past it.
_Got = Tuple[Any, int]
#: The fields of the message being decoded, in layout order so far.
_Fields = Dict[str, Any]


class _WireState:
    """Per-frame codec state, and the one put/get pair per ``LAYOUT`` kind.

    The registers are the frame's delta state: the last address and the
    last time encoded.  Every kind of :mod:`repro.core.messages` has one
    ``put_<kind>(out, value, message)`` that appends ``value`` and one
    ``get_<kind>(data, offset, fields)`` that returns ``(value, new
    offset)`` — one signature, so the codec walks a layout without
    knowing which message it belongs to.  ``message``/``fields`` let the
    row kinds reach their sibling fields (a delta's ``mask``, the
    modeled ``value_bytes``).
    """

    __slots__ = ("schema", "all_positions", "prev_page", "prev_slot", "prev_time")

    def __init__(self, codec: "WireCodec") -> None:
        self.schema = codec.value_schema
        self.all_positions = codec._all_positions
        self.prev_page = 0
        self.prev_slot = 0
        self.prev_time = codec.base_time

    def put_addr(self, out: bytearray, rid: Optional[Rid], message: Any) -> None:
        if rid is None:
            out.append(_ADDR_NONE)
            return
        if rid == Rid.BEGIN:
            out.append(_ADDR_BEGIN)
            return
        if rid.page_no == self.prev_page:
            out.append(_ADDR_SAME_PAGE)
            write_svarint(out, rid.slot_no - self.prev_slot)
        else:
            out.append(_ADDR_NEW_PAGE)
            write_svarint(out, rid.page_no - self.prev_page)
            write_uvarint(out, rid.slot_no)
        self.prev_page = rid.page_no
        self.prev_slot = rid.slot_no

    def get_addr(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        try:
            head = data[offset]
        except IndexError:
            raise WireError("truncated address") from None
        offset += 1
        if head == _ADDR_NONE:
            return None, offset
        if head == _ADDR_BEGIN:
            return Rid.BEGIN, offset
        if head == _ADDR_SAME_PAGE:
            delta, offset = read_svarint(data, offset)
            page_no = self.prev_page
            slot_no = self.prev_slot + delta
        elif head == _ADDR_NEW_PAGE:
            delta, offset = read_svarint(data, offset)
            page_no = self.prev_page + delta
            slot_no, offset = read_uvarint(data, offset)
        else:
            raise WireError(f"unknown address head {head}")
        self.prev_page = page_no
        self.prev_slot = slot_no
        return Rid(page_no, slot_no), offset

    def put_time(self, out: bytearray, time: int, message: Any) -> None:
        write_svarint(out, time - self.prev_time)
        self.prev_time = time

    def get_time(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        delta, offset = read_svarint(data, offset)
        self.prev_time += delta
        return self.prev_time, offset

    def put_uvarint(self, out: bytearray, value: int, message: Any) -> None:
        write_uvarint(out, value)

    def get_uvarint(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        return read_uvarint(data, offset)

    def put_row(self, out: bytearray, values: Sequence[Any], message: Any) -> None:
        _encode_fields(out, self.schema, self.all_positions, values)

    def get_row(
        self,
        data: bytes,
        offset: int,
        fields: _Fields,
        positions: Optional[Sequence[int]] = None,
    ) -> _Got:
        """The columns at ``positions`` (default: all) plus ``value_bytes``."""
        if positions is None:
            positions = self.all_positions
        values, offset = _decode_fields(self.schema, positions, data, offset)
        fields["value_bytes"] = encoded_fields_size(self.schema, positions, values)
        return values, offset

    def put_masked_row(
        self, out: bytearray, values: Sequence[Any], message: Any
    ) -> None:
        _encode_fields(out, self.schema, message.positions(), values)

    def get_masked_row(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        mask = fields["mask"]
        if mask >> len(self.schema):
            raise WireError(
                f"update-delta mask {mask:#x} exceeds the "
                f"{len(self.schema)}-column value schema"
            )
        positions = [
            index for index in range(mask.bit_length()) if mask >> index & 1
        ]
        return self.get_row(data, offset, fields, positions)

    def put_digest(self, out: bytearray, digest: bytes, message: Any) -> None:
        write_uvarint(out, len(digest))
        out += digest

    def get_digest(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise WireError("truncated frame: digest cut short")
        return bytes(data[offset:end]), end

    def put_digest_list(
        self, out: bytearray, entries: "Sequence[Tuple[int, bytes]]", message: Any
    ) -> None:
        write_uvarint(out, len(entries))
        for slot, digest in entries:
            write_uvarint(out, slot)
            self.put_digest(out, digest, message)

    def get_digest_list(self, data: bytes, offset: int, fields: _Fields) -> _Got:
        count, offset = read_uvarint(data, offset)
        entries: "list[tuple[int, bytes]]" = []
        for _ in range(count):
            slot, offset = read_uvarint(data, offset)
            digest, offset = self.get_digest(data, offset, fields)
            entries.append((slot, digest))
        return tuple(entries), offset


_KINDS: "Dict[str, Tuple[Callable[..., None], Callable[..., _Got]]]" = {
    msg.ADDR: (_WireState.put_addr, _WireState.get_addr),
    msg.TIME: (_WireState.put_time, _WireState.get_time),
    msg.UVARINT: (_WireState.put_uvarint, _WireState.get_uvarint),
    msg.ROW: (_WireState.put_row, _WireState.get_row),
    msg.MASKED_ROW: (_WireState.put_masked_row, _WireState.get_masked_row),
    msg.DIGEST: (_WireState.put_digest, _WireState.get_digest),
    msg.DIGEST_LIST: (_WireState.put_digest_list, _WireState.get_digest_list),
}


# -- message registry --------------------------------------------------------


def message_registry(namespace: "Mapping[str, Any]") -> "Dict[int, Type[Any]]":
    """Tag -> class for every concrete refresh message in ``namespace``.

    Run over :mod:`repro.core.messages` at import, so a message class
    that forgot its ``TAG``/``LAYOUT``, reused a tag or named a kind
    this module cannot encode stops the program here rather than at its
    first send.
    """
    by_tag: "Dict[int, Type[Any]]" = {}
    for cls in namespace.values():
        if (
            not isinstance(cls, type)
            or not issubclass(cls, msg.RefreshMessage)
            or cls is msg.RefreshMessage
        ):
            continue
        tag = getattr(cls, "TAG", None)
        layout = getattr(cls, "LAYOUT", None)
        if tag is None or layout is None:
            raise WireError(f"{cls.__name__} declares no TAG and LAYOUT")
        if tag in by_tag:
            raise WireError(
                f"{cls.__name__} and {by_tag[tag].__name__} both declare "
                f"TAG {tag}"
            )
        for attribute, kind in layout:
            if kind not in _KINDS:
                raise WireError(
                    f"{cls.__name__}.{attribute}: unknown layout kind {kind!r}"
                )
        by_tag[tag] = cls
    return by_tag


#: The wire's type table, derived from the message declarations.
CLASS_BY_TAG = message_registry(vars(msg))

#: Per class, its layout resolved to ``(attribute, put, get)``.
_FIELDS = {
    cls: tuple((attribute,) + _KINDS[kind] for attribute, kind in cls.LAYOUT)
    for cls in CLASS_BY_TAG.values()
}


class WireFrame:
    """One physical frame of encoded refresh messages — real bytes.

    ``wire_size()`` is the actual encoded length, so a channel carrying
    wire frames counts bytes that truly crossed the link.
    ``modeled_size`` preserves what the fixed-width model
    (``sum(m.wire_size())`` plus the per-frame overhead) would have
    charged for the same messages — kept as the comparison column.
    """

    __slots__ = ("data", "count", "modeled_size")

    def __init__(self, data: bytes, count: int, modeled_size: int) -> None:
        self.data = data
        self.count = count
        self.modeled_size = modeled_size

    def wire_size(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"WireFrame({self.count} messages, {len(self.data)}B encoded, "
            f"{self.modeled_size}B modeled)"
        )


class WireCodec:
    """Encodes and decodes refresh-message frames for one snapshot.

    Bound to the snapshot's *value schema* (the projected row layout) —
    both ends of a channel must construct the codec from the same
    schema, exactly as both ends of a real replication link share the
    subscription's row format.  ``base_time`` seeds the time-delta state
    (the snapshot's SnapTime is the natural choice); any shared value
    works because every delta chain starts fresh per frame.

    :meth:`encode_into`/:meth:`_decode_one` are the *reference* codec:
    an interpreter over each message's declared ``LAYOUT``.  It is the
    oracle the byte-identity properties compare against and the
    production path for every message :mod:`repro.net.wirebatch` does
    not inline (everything but entries and update deltas).
    """

    def __init__(
        self,
        value_schema: Schema,
        compress: bool = False,
        base_time: int = 0,
    ) -> None:
        self.value_schema = value_schema
        self.compress = compress
        self.base_time = base_time
        self._all_positions = tuple(range(len(value_schema)))
        #: Precompiled per-column dispatch for the batch hot path.
        self._plan = wirebatch.compile_plan(value_schema)
        #: Schema-specialized generated decoder, built on first decode.
        self._fast_decode: Optional[wirebatch.Decoder] = None

    def _new_state(self) -> _WireState:
        """A fresh per-frame delta state seeded from ``base_time``."""
        return _WireState(self)

    # -- one message ---------------------------------------------------------

    def encode_into(self, out: bytearray, message: Any, state: _WireState) -> None:
        fields = _FIELDS.get(message.__class__)
        if fields is None:
            raise WireError(f"no wire encoding for {message!r}")
        out.append(message.TAG)
        for attribute, put, _ in fields:
            put(state, out, getattr(message, attribute), message)

    def _decode_one(
        self, data: bytes, offset: int, state: _WireState
    ) -> "tuple[Any, int]":
        try:
            tag = data[offset]
        except IndexError:
            raise WireError("truncated frame: missing message tag") from None
        cls = CLASS_BY_TAG.get(tag)
        if cls is None:
            raise WireError(f"unknown message tag {tag}")
        offset += 1
        fields: _Fields = {}
        for attribute, _, get in _FIELDS[cls]:
            fields[attribute], offset = get(state, data, offset, fields)
        return cls(**fields), offset

    # -- whole frames --------------------------------------------------------

    def encode_frame(self, messages: "Sequence[Any]") -> WireFrame:
        """Encode a batch of logical messages into one physical frame.

        The production path: :func:`wirebatch.encode_batch_into` writes
        the whole frame through one flat cursor.
        :meth:`encode_frame_per_message` is the reference the
        byte-identity property pins it against.
        """
        payload = bytearray()
        wirebatch.encode_batch_into(self, payload, messages, self._new_state())
        return self._seal(
            payload, len(messages), sum(m.wire_size() for m in messages)
        )

    def encode_frame_per_message(self, messages: "Sequence[Any]") -> WireFrame:
        """Reference path: one :meth:`encode_into` call per message."""
        state = self._new_state()
        payload = bytearray()
        for message in messages:
            self.encode_into(payload, message, state)
        return self._seal(
            payload, len(messages), sum(m.wire_size() for m in messages)
        )

    def _seal(self, body: bytearray, count: int, modeled_size: int) -> WireFrame:
        """Header + (deflated only when smaller) payload as one frame."""
        payload = bytes(body)
        flags = 0
        if self.compress:
            deflated = zlib.compress(payload, 6)
            if len(deflated) < len(payload):
                payload = deflated
                flags |= FLAG_DEFLATE
        header = bytearray((flags,))
        write_uvarint(header, count)
        return WireFrame(
            bytes(header) + payload, count, modeled_size + FRAME_OVERHEAD
        )

    def _open_frame(self, frame: "WireFrame | bytes") -> "tuple[bytes, int]":
        """Strip the frame header; returns (inflated payload, count)."""
        data = frame.data if isinstance(frame, WireFrame) else frame
        if not data:
            raise WireError("empty frame")
        flags = data[0]
        if flags & ~FLAG_DEFLATE:
            raise WireError(f"unknown frame flags {flags:#04x}")
        count, offset = read_uvarint(data, 1)
        payload = data[offset:]
        if flags & FLAG_DEFLATE:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as error:
                raise WireError(f"bad deflate payload: {error}") from None
        return payload, count

    def decode_frame(self, frame: "WireFrame | bytes") -> "List[Any]":
        """Inverse of :meth:`encode_frame`: the exact message sequence.

        The production path: the schema-specialized generated decoder of
        :mod:`repro.net.wirebatch`.  :meth:`decode_frame_per_message` is
        the reference the byte-identity property pins it against.
        """
        payload, count = self._open_frame(frame)
        messages, offset = wirebatch.decode_batch_payload(self, payload, count)
        if offset != len(payload):
            # The cursor can legitimately pass the end only when a
            # truncated length prefix made a slice read run short — the
            # generated decoder defers that bounds check to right here.
            if offset > len(payload):
                raise WireError("truncated frame payload")
            raise WireError(
                f"frame payload has {len(payload) - offset} trailing bytes"
            )
        return messages

    def decode_frame_per_message(self, frame: "WireFrame | bytes") -> "List[Any]":
        """Reference path: one :meth:`_decode_one` call per message."""
        payload, count = self._open_frame(frame)
        state = self._new_state()
        messages: "List[Any]" = []
        offset = 0
        for _ in range(count):
            message, offset = self._decode_one(payload, offset, state)
            messages.append(message)
        if offset != len(payload):
            raise WireError(
                f"frame payload has {len(payload) - offset} trailing bytes"
            )
        return messages

    def receiver(
        self, logical_receiver: "Callable[[Any], None]"
    ) -> "Callable[[Any], None]":
        """Wrap a logical receiver so it can be attached to a frame stream."""

        def decode_and_apply(frame: Any) -> None:
            for message in self.decode_frame(frame):
                logical_receiver(message)

        return decode_and_apply


class FrameWriter:
    """Batches encoded messages into frames; flushes at N messages/B bytes.

    ``sink`` receives each sealed :class:`WireFrame`.  The pending frame
    is dropped *before* the sink call (mirroring
    :class:`~repro.net.blocking.BlockingChannel.flush`): if the link dies
    mid-flush the frame is lost, never half-kept, and the refresh layer
    retries the whole stream.  A :class:`~repro.core.messages.RefreshCommitMessage`
    force-flushes, so frames never straddle refresh epochs.
    """

    def __init__(
        self,
        sink: "Callable[[WireFrame], None]",
        codec: WireCodec,
        flush_messages: int = 64,
        flush_bytes: Optional[int] = None,
    ) -> None:
        if flush_messages < 1:
            raise WireError("flush_messages must be at least 1")
        if flush_bytes is not None and flush_bytes < 1:
            raise WireError("flush_bytes must be at least 1")
        self.sink = sink
        self.codec = codec
        self.flush_messages = flush_messages
        self.flush_bytes = flush_bytes
        self._payload = bytearray()
        self._count = 0
        self._modeled = 0
        self._state = codec._new_state()
        #: Frames shipped over this writer's lifetime.
        self.frames_sent = 0

    @property
    def pending(self) -> int:
        """Messages encoded into the not-yet-shipped frame."""
        return self._count

    @property
    def pending_bytes(self) -> int:
        return len(self._payload)

    def send(self, message: Any) -> None:
        payload, state = self._payload, self._state
        mark = (len(payload), state.prev_page, state.prev_slot, state.prev_time)
        try:
            wirebatch.encode_batch_into(self.codec, payload, (message,), state)
        except BaseException:
            # A message that cannot be encoded leaves nothing behind:
            # neither its partial bytes nor the deltas it advanced, so
            # the pending frame still decodes.
            del payload[mark[0] :]
            state.prev_page, state.prev_slot, state.prev_time = mark[1:]
            raise
        self._count += 1
        self._modeled += message.wire_size()
        if (
            self._count >= self.flush_messages
            or (
                self.flush_bytes is not None
                and len(self._payload) >= self.flush_bytes
            )
            or isinstance(message, msg.RefreshCommitMessage)
        ):
            self.flush()

    def flush(self) -> None:
        if not self._count:
            return
        frame = self.codec._seal(self._payload, self._count, self._modeled)
        self._reset()
        self.frames_sent += 1
        self.sink(frame)

    def abort(self) -> int:
        """Discard the pending partial frame; returns messages dropped."""
        dropped = self._count
        self._reset()
        return dropped

    def _reset(self) -> None:
        self._payload = bytearray()
        self._count = 0
        self._modeled = 0
        self._state = self.codec._new_state()
