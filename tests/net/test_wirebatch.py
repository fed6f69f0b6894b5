"""Batch frame codec: truncation safety and batch/per-message parity.

The generated batch decoder and the per-message reference decoder must
both reject a frame truncated at *any* byte offset with a typed
:class:`~repro.errors.WireError` — never a bare ``IndexError`` /
``struct.error`` / ``UnicodeDecodeError`` escaping the codec — and
never silently return short or corrupted values.
"""

import pytest

from repro.core import messages as msg
from repro.errors import WireError
from repro.net.wire import (
    WireCodec,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from repro.net.wire import _decode_value, _encode_value
from repro.relation.row import Row, encode_row, encoded_fields_size
from repro.relation.schema import Column, Schema
from repro.relation.types import (
    NULL,
    FloatType,
    IntType,
    RidType,
    StringType,
    TimestampType,
)
from repro.storage.rid import Rid


def value_schema() -> Schema:
    return Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType(), nullable=True),
            Column("score", FloatType(), nullable=True),
        ]
    )


def wide_schema() -> Schema:
    """More than eight columns, so the NULL bitmap spans two bytes."""
    columns = [Column(f"c{i}", IntType(), nullable=True) for i in range(9)]
    columns.append(Column("tail", StringType(), nullable=True))
    return Schema(columns)


def entry(schema: Schema, addr: Rid, prev: Rid, values) -> msg.EntryMessage:
    body = len(encode_row(schema, Row(list(values))))
    return msg.EntryMessage(addr, prev, tuple(values), body)


def same_stream(schema: Schema, left, right) -> bool:
    """Messages lack ``__eq__``; byte-compare their canonical encodings."""
    probe = WireCodec(schema, base_time=0)
    return (
        probe.encode_frame_per_message(left).data
        == probe.encode_frame_per_message(right).data
    )


def sample_messages(schema: Schema):
    width = len(schema)

    def row(i):
        values = [i] + [NULL] * (width - 1)
        if isinstance(schema.columns[1].ctype, StringType):
            values[1] = f"name-{i}"
        if width > 2 and isinstance(schema.columns[2].ctype, FloatType):
            values[2] = i * 1.5
        if isinstance(schema.columns[-1].ctype, StringType):
            values[-1] = "tail ✓ value"
        return tuple(values)

    prev = Rid.BEGIN
    out = [msg.RefreshBeginMessage(41)]
    for i in range(6):
        addr = Rid(i // 3, i % 3)
        out.append(entry(schema, addr, prev, row(i)))
        prev = addr
    out.append(msg.DeleteRangeMessage(Rid(0, 1), Rid(1, 0)))
    out.append(msg.EndOfScanMessage(prev))
    out.append(msg.SnapTimeMessage(97))
    out.append(msg.RefreshCommitMessage(97, len(out)))
    return out


class TestVarintTruncation:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**63])
    def test_uvarint_truncated_at_every_offset(self, value):
        out = bytearray()
        write_uvarint(out, value)
        for cut in range(len(out)):
            with pytest.raises(WireError):
                read_uvarint(bytes(out[:cut]), 0)

    @pytest.mark.parametrize("value", [0, -1, 64, -65, 2**40, -(2**40)])
    def test_svarint_truncated_at_every_offset(self, value):
        out = bytearray()
        write_svarint(out, value)
        for cut in range(len(out)):
            with pytest.raises(WireError):
                read_svarint(bytes(out[:cut]), 0)


class TestValueTruncation:
    """_decode_value over every column type, cut at every byte offset."""

    CASES = [
        (IntType(), 0),
        (IntType(), -(2**40)),
        (StringType(), ""),
        (StringType(), "snapshot ✓ differential"),
        (FloatType(), 3.140625),
        (TimestampType(), NULL),
        (TimestampType(), 2**33),
        (RidType(), NULL),
        (RidType(), Rid.BEGIN),
        (RidType(), Rid(123456, 42)),
    ]

    @pytest.mark.parametrize("ctype,value", CASES)
    def test_round_trip_then_truncate(self, ctype, value):
        out = bytearray()
        _encode_value(out, ctype, value)
        decoded, end = _decode_value(ctype, bytes(out), 0)
        assert decoded == value
        assert end == len(out)
        for cut in range(len(out)):
            with pytest.raises(WireError):
                _decode_value(ctype, bytes(out[:cut]), 0)


@pytest.mark.parametrize("make_schema", [value_schema, wide_schema])
@pytest.mark.parametrize("compress", [False, True])
class TestFrameTruncation:
    """Whole frames cut at every byte offset, both decoders."""

    def test_batch_decoder_rejects_every_truncation(
        self, make_schema, compress
    ):
        schema = make_schema()
        codec = WireCodec(schema, compress=compress, base_time=7)
        frame = codec.encode_frame(sample_messages(schema))
        data = frame.data
        assert same_stream(
            schema,
            codec.decode_frame(data),
            codec.decode_frame_per_message(data),
        )
        for cut in range(len(data)):
            with pytest.raises(WireError):
                codec.decode_frame(data[:cut])

    def test_reference_decoder_rejects_every_truncation(
        self, make_schema, compress
    ):
        codec = WireCodec(make_schema(), compress=compress, base_time=7)
        frame = codec.encode_frame_per_message(sample_messages(make_schema()))
        data = frame.data
        for cut in range(len(data)):
            with pytest.raises(WireError):
                codec.decode_frame_per_message(data[:cut])


class TestFrameMalformations:
    def test_trailing_garbage_rejected(self):
        codec = WireCodec(value_schema())
        frame = codec.encode_frame(sample_messages(value_schema()))
        with pytest.raises(WireError):
            codec.decode_frame(frame.data + b"\x00")

    def test_unknown_tag_rejected(self):
        codec = WireCodec(value_schema())
        frame = codec.encode_frame([msg.SnapTimeMessage(5)])
        with pytest.raises(WireError):
            codec.decode_frame(frame.data[:-2] + b"\xee" + frame.data[-1:])

    def test_delta_mask_beyond_schema_rejected(self):
        schema = value_schema()
        codec = WireCodec(schema)
        delta = msg.UpdateDeltaMessage(Rid(0, 1), Rid.BEGIN, 0b1, (5,), 1)
        frame = codec.encode_frame([delta])
        # The mask is a uvarint right after the two addresses; widen it
        # past the 3-column schema and both decoders must refuse.
        payload = bytearray(frame.data)
        index = payload.index(0b1, 2)
        payload[index] = 0b1000
        for decode in (codec.decode_frame, codec.decode_frame_per_message):
            with pytest.raises(WireError):
                decode(bytes(payload))

    def test_bad_deflate_payload_rejected(self):
        codec = WireCodec(value_schema(), compress=True)
        frame = codec.encode_frame(sample_messages(value_schema()))
        if frame.data[0] & 0x1:
            with pytest.raises(WireError):
                codec.decode_frame(frame.data[:2] + b"not deflate")

    def test_empty_frame_rejected(self):
        codec = WireCodec(value_schema())
        with pytest.raises(WireError):
            codec.decode_frame(b"")


class TestBatchEncoderParity:
    def test_wide_schema_batch_matches_reference(self):
        schema = wide_schema()
        codec = WireCodec(schema, base_time=3)
        messages = sample_messages(schema)
        batch = codec.encode_frame(messages)
        reference = codec.encode_frame_per_message(messages)
        assert batch.data == reference.data
        assert same_stream(schema, codec.decode_frame(batch.data), messages)

    def test_timestamp_and_rid_columns_take_the_per_value_fallback(self):
        # No measured workload has such a column, so the batch codec no
        # longer inlines them: they ride the reference per-value codec
        # inside the inlined entry/delta branch, inline NULLs included.
        schema = Schema(
            [
                Column("id", IntType(), nullable=True),
                Column("seen", TimestampType(), nullable=True),
                Column("at", RidType(), nullable=True),
            ]
        )
        codec = WireCodec(schema, base_time=3)
        rows = [
            (1, 2**33, Rid(123456, 42)),
            (NULL, NULL, NULL),
            (-5, 0, Rid.BEGIN),
        ]
        messages = [
            entry(schema, Rid(0, i), Rid(0, i - 1) if i else Rid.BEGIN, row)
            for i, row in enumerate(rows)
        ]
        for mask, values in ((0b110, (7, Rid(1, 1))), (0b010, (NULL,))):
            positions = [i for i in range(3) if mask >> i & 1]
            messages.append(
                msg.UpdateDeltaMessage(
                    Rid(0, 1),
                    Rid(0, 0),
                    mask,
                    values,
                    encoded_fields_size(schema, positions, values),
                )
            )
        batch = codec.encode_frame(messages)
        assert batch.data == codec.encode_frame_per_message(messages).data
        for decode in (codec.decode_frame, codec.decode_frame_per_message):
            decoded = decode(batch.data)
            assert [m.values for m in decoded] == [m.values for m in messages]
            assert [m.wire_size() for m in decoded] == [
                m.wire_size() for m in messages
            ]
            for cut in range(len(batch.data)):
                with pytest.raises(WireError):
                    decode(batch.data[:cut])
