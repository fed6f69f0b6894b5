"""WireCodec: varints, address deltas, frames, and channel integration."""

import os
import subprocess
import sys

import pytest

from repro.core import messages as msg
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import ChannelError, WireError
from repro.net.blocking import BlockingChannel
from repro.net.channel import Channel
from repro.net.wire import (
    CLASS_BY_TAG,
    FrameWriter,
    WireCodec,
    message_registry,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from repro.relation.row import Row, encode_row, encoded_fields_size
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, FloatType, IntType, StringType
from repro.storage.rid import Rid


def value_schema() -> Schema:
    return Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType(), nullable=True),
            Column("score", FloatType(), nullable=True),
        ]
    )


def entry(addr: Rid, prev: Rid, values) -> msg.EntryMessage:
    body = len(encode_row(value_schema(), Row(list(values))))
    return msg.EntryMessage(addr, prev, tuple(values), body)


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**21, 2**63, 2**70]
    )
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    @pytest.mark.parametrize(
        "value", [0, 1, -1, 63, -64, 64, -65, 2**40, -(2**40)]
    )
    def test_svarint_round_trip(self, value):
        out = bytearray()
        write_svarint(out, value)
        decoded, offset = read_svarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_small_magnitudes_are_one_byte_either_sign(self):
        for value in (-64, -1, 0, 1, 63):
            out = bytearray()
            write_svarint(out, value)
            assert len(out) == 1

    def test_negative_uvarint_rejected(self):
        with pytest.raises(WireError):
            write_uvarint(bytearray(), -1)

    def test_truncated_varint_detected(self):
        with pytest.raises(WireError):
            read_uvarint(b"\x80\x80", 0)


class TestMessageRoundTrip:
    def round_trip(self, messages, compress=False, base_time=0):
        codec = WireCodec(
            value_schema(), compress=compress, base_time=base_time
        )
        frame = codec.encode_frame(messages)
        return codec.decode_frame(frame)

    def test_all_message_kinds(self):
        schema = value_schema()
        values = (7, "seven", 7.5)
        body = len(encode_row(schema, Row(list(values))))
        stream = [
            msg.RefreshBeginMessage(41),
            msg.ClearMessage(),
            entry(Rid(0, 1), Rid.BEGIN, values),
            msg.UpdateDeltaMessage(
                Rid(0, 3),
                Rid(0, 1),
                0b101,
                (8, 8.5),
                encoded_fields_size(schema, [0, 2], (8, 8.5)),
            ),
            msg.DeleteRangeMessage(Rid(0, 3), Rid(2, 0)),
            msg.UpsertMessage(Rid(2, 0), values, body),
            msg.FullRowMessage(Rid(2, 1), values, body),
            msg.DeleteMessage(Rid(2, 1)),
            msg.EndOfScanMessage(Rid(2, 0)),
            msg.SnapTimeMessage(43),
            msg.RefreshCommitMessage(41, 9),
        ]
        decoded = self.round_trip(stream, base_time=40)
        assert [type(m) for m in decoded] == [type(m) for m in stream]
        for original, copy in zip(stream, decoded):
            assert copy.wire_size() == original.wire_size()
        assert decoded[2].addr == Rid(0, 1)
        assert decoded[2].values == values
        assert decoded[3].mask == 0b101
        assert decoded[3].values == (8, 8.5)
        assert decoded[3].positions() == [0, 2]
        assert decoded[4].lo == Rid(0, 3) and decoded[4].hi == Rid(2, 0)
        assert decoded[9].time == 43
        assert decoded[10].epoch == 41 and decoded[10].count == 9

    def test_null_values_survive(self):
        decoded = self.round_trip([entry(Rid(1, 0), Rid.BEGIN, (3, NULL, NULL))])
        assert decoded[0].values == (3, NULL, NULL)
        assert decoded[0].values[1] is NULL

    def test_segment_hash_pair_roundtrip(self):
        digest = bytes(range(8))
        stream = [
            msg.SegmentHashRequestMessage(0, 128),
            msg.SegmentHashResponseMessage(64, 128, digest, 977),
        ]
        decoded = self.round_trip(stream)
        request, response = decoded
        assert isinstance(request, msg.SegmentHashRequestMessage)
        assert (request.lo, request.hi) == (0, 128)
        assert isinstance(response, msg.SegmentHashResponseMessage)
        assert (response.lo, response.hi) == (64, 128)
        assert response.digest == digest
        assert response.count == 977
        for original, copy in zip(stream, decoded):
            assert copy.wire_size() == original.wire_size()
            assert not copy.counts_as_entry

    def test_row_digests_roundtrip(self):
        entries = ((0, b"\x01\x02\x03\x04"), (7, b"\xaa\xbb\xcc\xdd"))
        stream = [msg.RowDigestsMessage(42, entries)]
        (decoded,) = self.round_trip(stream)
        assert isinstance(decoded, msg.RowDigestsMessage)
        assert decoded.page_no == 42
        assert decoded.entries == entries
        assert decoded.wire_size() == stream[0].wire_size()
        assert not decoded.counts_as_entry

    def test_empty_row_digests_roundtrip(self):
        (decoded,) = self.round_trip([msg.RowDigestsMessage(3, ())])
        assert decoded.page_no == 3
        assert decoded.entries == ()

    def test_sequential_addresses_encode_small(self):
        # Address-order scan: same-page successors should cost ~2 bytes
        # for addr + prev together, not 16.
        codec = WireCodec(Schema([Column("v", IntType())]))
        schema = Schema([Column("v", IntType())])
        stream = []
        prev = Rid.BEGIN
        for slot in range(50):
            rid = Rid(9, slot)
            body = len(encode_row(schema, Row([slot])))
            stream.append(msg.EntryMessage(rid, prev, (slot,), body))
            prev = rid
        frame = codec.encode_frame(stream)
        assert codec.decode_frame(frame) is not None
        # tag + addr + prev + bitmap + value ≈ 7-8 bytes/entry at worst.
        assert frame.wire_size() <= 8 * len(stream)
        assert frame.wire_size() < frame.modeled_size / 3

    def test_compression_only_when_smaller(self):
        repetitive = [
            entry(Rid(0, i), Rid(0, i - 1) if i else Rid.BEGIN, (1, "aaaa", 0.0))
            for i in range(64)
        ]
        plain = WireCodec(value_schema()).encode_frame(repetitive)
        squeezed = WireCodec(value_schema(), compress=True).encode_frame(
            repetitive
        )
        assert squeezed.wire_size() < plain.wire_size()
        # A frame too small to benefit ships uncompressed (flags bit 0
        # unset) and still decodes through the same codec.
        tiny = WireCodec(value_schema(), compress=True).encode_frame(
            [msg.ClearMessage()]
        )
        assert tiny.data[0] == 0
        assert len(
            WireCodec(value_schema(), compress=True).decode_frame(tiny)
        ) == 1

    def test_decoded_modeled_size_matches_sender(self):
        stream = [
            entry(Rid(4, 2), Rid(3, 9), (123456, "x" * 30, -0.5)),
            msg.UpdateDeltaMessage(Rid(4, 3), Rid(4, 2), 0b10, ("y",), 4),
        ]
        codec = WireCodec(value_schema())
        for original, copy in zip(stream, codec.decode_frame(codec.encode_frame(stream))):
            assert copy.wire_size() == original.wire_size()
            assert copy.value_bytes == original.value_bytes

    def test_trailing_garbage_rejected(self):
        codec = WireCodec(value_schema())
        frame = codec.encode_frame([msg.ClearMessage()])
        with pytest.raises(WireError):
            codec.decode_frame(frame.data + b"\x00")

    def test_unknown_message_rejected(self):
        with pytest.raises(WireError):
            WireCodec(value_schema()).encode_frame([object()])

    def test_unknown_flag_bits_rejected(self):
        # Regression: a flags byte of 0x02 used to decode silently.
        codec = WireCodec(value_schema(), compress=True)
        frame = codec.encode_frame(
            [entry(Rid(0, i), Rid.BEGIN, (i, "a" * 40, 0.0)) for i in range(8)]
        )
        assert frame.data[0] == 0x01  # deflated: the one known bit passes
        assert len(codec.decode_frame(frame)) == 8
        for flags in (0x02, 0x03, 0x80):
            data = bytes((flags,)) + frame.data[1:]
            for decode in (codec.decode_frame, codec.decode_frame_per_message):
                with pytest.raises(WireError, match="unknown frame flags"):
                    decode(data)


def sample_of(cls):
    """An instance of ``cls`` built from nothing but its ``LAYOUT``.

    Every field gets a distinct value (so swapped attributes show), and
    a row kind also fills the modeled ``value_bytes`` — exactly the two
    things a layout kind may touch.
    """
    schema = value_schema()
    row = (7, "seven", NULL)
    fields = {}
    for attribute, kind in cls.LAYOUT:
        nth = len(fields)
        if kind in (msg.ROW, msg.MASKED_ROW):
            positions = [
                i for i in range(3) if kind == msg.ROW or fields["mask"] >> i & 1
            ]
            fields[attribute] = tuple(row[i] for i in positions)
            fields["value_bytes"] = encoded_fields_size(
                schema, positions, fields[attribute]
            )
        else:
            fields[attribute] = {
                msg.ADDR: Rid(3, 4 + nth),
                msg.TIME: 1000 + nth,
                # A delta's mask is its third field: 0b101 of 3 columns.
                msg.UVARINT: 3 + nth,
                msg.DIGEST: bytes(range(8)),
                msg.DIGEST_LIST: ((0, b"\x01\x02\x03\x04"), (7, b"\xaa\xbb")),
            }[kind]
    return cls(**fields)


def assert_same_messages(decoded, original):
    assert [type(m) for m in decoded] == [type(m) for m in original]
    for copy, source in zip(decoded, original):
        for attribute, _ in source.LAYOUT:
            assert getattr(copy, attribute) == getattr(source, attribute)
        assert copy.wire_size() == source.wire_size()


class TestEveryRegisteredMessage:
    """Driven by the tag table: a new message class is covered unedited.

    This is what holds "one layout per message" now that no lint rule
    compares hand-written codec copies: the batch and reference paths
    agree byte for byte on every class the wire knows.
    """

    @pytest.mark.parametrize(
        "cls", list(CLASS_BY_TAG.values()), ids=lambda cls: cls.__name__
    )
    @pytest.mark.parametrize("compress", [False, True])
    def test_both_codecs_agree_and_reject_truncation(self, cls, compress):
        codec = WireCodec(value_schema(), compress=compress, base_time=990)
        hot = entry(Rid(3, 1), Rid.BEGIN, (1, "n", 0.5))
        # Hot-path neighbours on both sides exercise the delta-state
        # hand-off into and out of the reference codec.
        stream = [hot, sample_of(cls), sample_of(cls), hot]
        frame = codec.encode_frame(stream)
        assert frame.data == codec.encode_frame_per_message(stream).data
        assert frame.modeled_size == 64 + sum(m.wire_size() for m in stream)
        for decode in (codec.decode_frame, codec.decode_frame_per_message):
            assert_same_messages(decode(frame), stream)
            for cut in range(len(frame.data)):
                with pytest.raises(WireError):
                    decode(frame.data[:cut])


class TestRegistry:
    def test_table_is_exactly_the_declared_classes(self):
        declared = {
            cls
            for cls in vars(msg).values()
            if isinstance(cls, type)
            and issubclass(cls, msg.RefreshMessage)
            and cls is not msg.RefreshMessage
        }
        assert set(CLASS_BY_TAG.values()) == declared
        assert all(cls.TAG == tag for tag, cls in CLASS_BY_TAG.items())

    def test_duplicate_tag_rejected(self):
        class Twin(msg.RefreshMessage):
            TAG = msg.ClearMessage.TAG
            LAYOUT = ()

        with pytest.raises(WireError, match="both declare TAG 9"):
            message_registry({**vars(msg), "Twin": Twin})

    def test_subclass_without_layout_rejected(self):
        class Bare(msg.RefreshMessage):
            TAG = 99

        with pytest.raises(WireError, match="Bare declares no TAG and LAYOUT"):
            message_registry({"Bare": Bare})

    def test_inherited_declaration_is_a_duplicate(self):
        class Child(msg.DeleteMessage):
            pass

        with pytest.raises(WireError, match="both declare TAG"):
            message_registry({**vars(msg), "Child": Child})

    def test_unknown_kind_rejected(self):
        class Odd(msg.RefreshMessage):
            TAG = 99
            LAYOUT = (("x", "float128"),)

        with pytest.raises(WireError, match="unknown layout kind 'float128'"):
            message_registry({"Odd": Odd})

    def test_undeclared_class_fails_at_import_not_at_first_send(self):
        script = (
            "import repro.core.messages as m\n"
            "class Bare(m.RefreshMessage):\n"
            "    pass\n"
            "m.Bare = Bare\n"
            # The package import above already loaded the wire module;
            # run its body again now that the class exists.
            "import importlib, repro.net.wire\n"
            "importlib.reload(repro.net.wire)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0
        assert "WireError: Bare declares no TAG and LAYOUT" in result.stderr


class TestFrameWriter:
    def make(self, **kwargs):
        frames = []
        codec = WireCodec(value_schema())
        writer = FrameWriter(frames.append, codec, **kwargs)
        return writer, frames, codec

    def test_flush_at_message_count(self):
        writer, frames, _ = self.make(flush_messages=4)
        for i in range(10):
            writer.send(entry(Rid(0, i), Rid.BEGIN, (i, "n", 0.0)))
        assert len(frames) == 2
        assert all(len(frame) == 4 for frame in frames)
        assert writer.pending == 2
        writer.flush()
        assert len(frames) == 3 and len(frames[-1]) == 2
        assert writer.frames_sent == 3

    def test_flush_at_byte_threshold(self):
        writer, frames, _ = self.make(flush_messages=1000, flush_bytes=64)
        while not frames:
            writer.send(entry(Rid(0, 0), Rid.BEGIN, (1, "abcdefgh", 2.0)))
        assert frames[0].wire_size() >= 64

    def test_commit_forces_flush(self):
        # Frames never straddle refresh epochs.
        writer, frames, _ = self.make(flush_messages=1000)
        writer.send(msg.RefreshBeginMessage(7))
        writer.send(entry(Rid(0, 0), Rid.BEGIN, (1, "n", 0.0)))
        writer.send(msg.RefreshCommitMessage(7, 1))
        assert len(frames) == 1
        assert writer.pending == 0

    def test_abort_drops_pending(self):
        writer, frames, _ = self.make(flush_messages=1000)
        writer.send(entry(Rid(0, 0), Rid.BEGIN, (1, "n", 0.0)))
        assert writer.abort() == 1
        writer.flush()
        assert frames == []

    def test_delta_state_resets_per_frame(self):
        # Each frame decodes standalone: losing one cannot corrupt the next.
        writer, frames, codec = self.make(flush_messages=2)
        prev = Rid.BEGIN
        for slot in range(6):
            rid = Rid(3, slot)
            writer.send(entry(rid, prev, (slot, "n", 0.0)))
            prev = rid
        assert len(frames) == 3
        later = codec.decode_frame(frames[2])  # decoded without frames 0-1
        assert later[0].addr == Rid(3, 4)
        assert later[0].prev_qual == Rid(3, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            # int in a string column: AttributeError inside the hot path,
            # after the tag and both addresses were appended.
            msg.EntryMessage(Rid(5, 0), Rid(0, 0), (1, 2, 0.0), 0),
            # Negative slot on a new page: WireError mid-address.
            msg.EntryMessage(Rid(5, -1), Rid(0, 0), (1, "n", 0.0), 0),
            # Reference path: the address advances the delta state, then
            # the row fails.
            msg.UpsertMessage(Rid(5, 0), (1, 2, 0.0), 0),
        ],
        ids=["hot-value", "hot-address", "reference-value"],
    )
    def test_failed_send_leaves_no_torn_frame(self, bad):
        # Regression: the partial bytes of a message whose encode raised
        # stayed in the pending payload (8 B -> 15 B), and the next
        # flush shipped a frame the receiver rejected ("7 trailing
        # bytes").
        writer, frames, codec = self.make(flush_messages=1000)
        first = entry(Rid(0, 0), Rid.BEGIN, (1, "n", 0.0))
        writer.send(first)
        before = writer.pending_bytes
        with pytest.raises((AttributeError, WireError)):
            writer.send(bad)
        assert (writer.pending, writer.pending_bytes) == (1, before)
        # The delta state rolled back too: the next address still
        # decodes against the last message that made it into the frame.
        second = entry(Rid(0, 1), Rid(0, 0), (2, "n", 0.0))
        writer.send(second)
        writer.flush()
        (frame,) = frames
        assert frame.data == codec.encode_frame([first, second]).data
        assert [m.addr for m in codec.decode_frame(frame)] == [Rid(0, 0), Rid(0, 1)]

    def test_bad_thresholds_rejected(self):
        codec = WireCodec(value_schema())
        with pytest.raises(WireError):
            FrameWriter(lambda f: None, codec, flush_messages=0)
        with pytest.raises(WireError):
            FrameWriter(lambda f: None, codec, flush_messages=4, flush_bytes=0)


class TestChannelIntegration:
    def test_enable_wire_transports_frames(self):
        channel = Channel()
        channel.enable_wire(WireCodec(value_schema()), flush_messages=3)
        received = []
        channel.attach(received.append)
        stream = [
            entry(Rid(0, i), Rid(0, i - 1) if i else Rid.BEGIN, (i, "n", 0.0))
            for i in range(7)
        ]
        for message in stream:
            channel.send(message)
        channel.flush()
        # Receiver sees decoded logical messages, not frames.
        assert [m.addr for m in received] == [m.addr for m in stream]
        assert channel.stats.messages == 3  # physical frames
        assert channel.stats.bytes < channel.stats.modeled_bytes
        assert channel.stats.modeled_bytes == sum(
            m.wire_size() for m in stream
        ) + 3 * 64  # FRAME_OVERHEAD per frame

    def test_enable_wire_after_attach_rejected(self):
        channel = Channel()
        channel.attach(lambda m: None)
        with pytest.raises(ChannelError):
            channel.enable_wire(WireCodec(value_schema()))

    def test_double_enable_rejected(self):
        channel = Channel()
        channel.enable_wire(WireCodec(value_schema()))
        with pytest.raises(ChannelError):
            channel.enable_wire(WireCodec(value_schema()))

    def test_abort_returns_dropped_count(self):
        channel = Channel()
        channel.enable_wire(WireCodec(value_schema()), flush_messages=100)
        channel.attach(lambda m: None)
        channel.send(entry(Rid(0, 0), Rid.BEGIN, (1, "n", 0.0)))
        assert channel.abort() == 1
        assert channel.stats.messages == 0

    def test_object_mode_flush_and_abort_are_noops(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.flush()
        assert channel.abort() == 0

    def test_blocking_channel_rejects_wire_enabled_inner(self):
        inner = Channel()
        inner.enable_wire(WireCodec(value_schema()))
        with pytest.raises(ChannelError):
            BlockingChannel(inner, codec=WireCodec(value_schema()))

    def test_blocking_channel_ships_wire_frames(self):
        inner = Channel()
        blocked = BlockingChannel(
            inner, block_size=4, codec=WireCodec(value_schema())
        )
        received = []
        blocked.attach(received.append)
        stream = [
            entry(Rid(0, i), Rid(0, i - 1) if i else Rid.BEGIN, (i, "n", 0.0))
            for i in range(8)
        ]
        for message in stream:
            blocked.send(message)
        assert len(received) == 8
        assert inner.stats.messages == 2
        assert inner.stats.bytes < inner.stats.modeled_bytes


class TestEpochSemanticsThroughWire:
    def test_staged_epoch_commits_across_frames(self):
        db = Database()
        schema = Schema([Column("v", IntType())])
        snap = SnapshotTable(db, "s", schema, require_epochs=True)
        channel = Channel()
        channel.enable_wire(WireCodec(schema), flush_messages=2)
        channel.attach(snap.receiver())

        body = len(encode_row(schema, Row([5])))
        channel.send(msg.RefreshBeginMessage(1))
        channel.send(msg.EntryMessage(Rid(0, 0), Rid.BEGIN, (5,), body))
        channel.send(msg.EntryMessage(Rid(0, 1), Rid(0, 0), (6,), body))
        channel.send(msg.EndOfScanMessage(Rid(0, 1)))
        channel.send(msg.SnapTimeMessage(9))
        channel.send(msg.RefreshCommitMessage(1, 4))
        assert snap.last_committed_epoch == 1
        assert snap.snap_time == 9
        assert snap.as_map() == {Rid(0, 0): (5,), Rid(0, 1): (6,)}
