"""Wire-codec properties: sizes that never lie, decodes that never drift.

Two invariants pin the binary transport:

1. **Size identity** — ``encoded_size(schema, row)`` (what every
   ``wire_size()`` model charges) equals ``len(encode_row(schema, row))``
   for arbitrary schemas and values, and ``encoded_fields_size`` over
   all positions — the per-type arithmetic — agrees with both.

2. **Round-trip byte identity** — encoding any refresh-message stream
   into frames and decoding it back reproduces the exact message
   sequence (types, addresses, values, modeled sizes), and a snapshot
   fed through the encoded transport ends in exactly the state of one
   fed the message objects directly — for arbitrary workloads, page
   summaries on and off, compression on and off, per-column deltas on
   and off, solo and group refresh.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import messages as msg
from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.net.channel import Channel
from repro.net.wire import WireCodec
from repro.relation.row import Row, encode_row, encoded_fields_size, encoded_size
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid


@st.composite
def schema_and_row(draw):
    column_count = draw(st.integers(min_value=1, max_value=12))
    columns = []
    values = []
    for index in range(column_count):
        kind = draw(st.sampled_from(["int", "float", "string"]))
        nullable = draw(st.booleans())
        columns.append(Column(f"c{index}", kind, nullable=nullable))
        if nullable and draw(st.booleans()):
            values.append(NULL)
        elif kind == "int":
            values.append(draw(st.integers(min_value=-(2**62), max_value=2**62)))
        elif kind == "float":
            values.append(
                draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
            )
        else:
            values.append(draw(st.text(max_size=40)))
    return Schema(columns), Row(values)


class TestSizeIdentity:
    @settings(max_examples=150, deadline=None)
    @given(data=schema_and_row())
    def test_encoded_size_equals_encoding_length(self, data):
        schema, row = data
        assert encoded_size(schema, row) == len(encode_row(schema, row))

    @settings(max_examples=100, deadline=None)
    @given(data=schema_and_row())
    def test_fields_size_agrees_over_all_positions(self, data):
        schema, row = data
        positions = range(len(schema))
        assert encoded_fields_size(schema, positions, row.values) == len(
            encode_row(schema, row)
        )


# -- random message streams ---------------------------------------------------

_STREAM_SCHEMA = Schema(
    [
        Column("a", "int", nullable=True),
        Column("b", "string", nullable=True),
        Column("c", "float", nullable=True),
    ]
)


@st.composite
def rid_strategy(draw):
    if draw(st.booleans()):
        return Rid.BEGIN
    return Rid(
        draw(st.integers(min_value=0, max_value=500)),
        draw(st.integers(min_value=0, max_value=300)),
    )


@st.composite
def row_values(draw):
    values = []
    for kind in ("int", "string", "float"):
        if draw(st.booleans()):
            values.append(NULL)
        elif kind == "int":
            values.append(draw(st.integers(-(2**40), 2**40)))
        elif kind == "string":
            values.append(draw(st.text(max_size=20)))
        else:
            values.append(
                draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
            )
    return tuple(values)


@st.composite
def message_strategy(draw):
    kind = draw(
        st.sampled_from(
            [
                "entry",
                "delta",
                "delete_range",
                "upsert",
                "delete",
                "end",
                "snap_time",
                "begin",
                "commit",
                "clear",
                "full_row",
            ]
        )
    )
    schema = _STREAM_SCHEMA
    if kind == "entry":
        values = draw(row_values())
        return msg.EntryMessage(
            draw(rid_strategy()),
            draw(rid_strategy()),
            values,
            len(encode_row(schema, Row(list(values)))),
        )
    if kind == "delta":
        mask = draw(st.integers(min_value=1, max_value=7))
        positions = [i for i in range(3) if mask >> i & 1]
        full = draw(row_values())
        values = tuple(full[i] for i in positions)
        return msg.UpdateDeltaMessage(
            draw(rid_strategy()),
            draw(rid_strategy()),
            mask,
            values,
            encoded_fields_size(schema, positions, values),
        )
    if kind == "delete_range":
        return msg.DeleteRangeMessage(draw(rid_strategy()), draw(rid_strategy()))
    if kind == "upsert":
        values = draw(row_values())
        return msg.UpsertMessage(
            draw(rid_strategy()),
            values,
            len(encode_row(schema, Row(list(values)))),
        )
    if kind == "delete":
        return msg.DeleteMessage(draw(rid_strategy()))
    if kind == "end":
        return msg.EndOfScanMessage(draw(rid_strategy()))
    if kind == "snap_time":
        return msg.SnapTimeMessage(draw(st.integers(0, 2**40)))
    if kind == "begin":
        return msg.RefreshBeginMessage(draw(st.integers(0, 2**40)))
    if kind == "commit":
        return msg.RefreshCommitMessage(
            draw(st.integers(0, 2**40)), draw(st.integers(0, 10_000))
        )
    if kind == "full_row":
        values = draw(row_values())
        return msg.FullRowMessage(
            draw(rid_strategy()),
            values,
            len(encode_row(schema, Row(list(values)))),
        )
    return msg.ClearMessage()


def assert_streams_identical(decoded, original):
    assert len(decoded) == len(original)
    for copy, source in zip(decoded, original):
        assert type(copy) is type(source)
        assert repr(copy) == repr(source)
        assert copy.wire_size() == source.wire_size()


def _re_announces(message, held):
    """Whether ``message`` re-announces a value the receiver holds."""
    if isinstance(message, msg.DeleteRangeMessage):
        return message.hi in held
    if isinstance(message, msg.UpdateDeltaMessage):
        row = held[message.addr]
        merged = tuple(row[position] for position in message.positions())
        return merged == tuple(message.values)
    assert isinstance(message, msg.EntryMessage), message
    return held.get(message.addr) == tuple(message.values)


def assert_mirror_subsequence(mirror, paper, held):
    """``mirror`` is ``paper`` with messages left out, and each re-send of
    a held value a range delete.

    The two streams are one refresh of one snapshot, decided by the
    address mirror's arming rule and by the paper's (Figure 3's "may
    have qualified before"); ``held`` is the receiver's ``as_map()``
    before that refresh.  The mirror's stream must be a subsequence of
    the paper's (same ``repr``, same size, same order), except that a
    ``DeleteRange(lo, hi)`` of the mirror's may stand for the paper's
    entry or delta of ``hi`` with ``prev_qual`` ``lo`` that re-announces
    the value the receiver holds.  Everything it left out must be an
    entry, delta or ``DeleteRange`` re-announcing an address whose value
    the receiver already held — Figure 9's superfluous kind.
    """
    rest = iter(paper)
    omitted = []
    for message in mirror:
        for candidate in rest:
            if repr(candidate) == repr(message):
                assert type(candidate) is type(message)
                assert candidate.wire_size() == message.wire_size()
                break
            if (
                isinstance(message, msg.DeleteRangeMessage)
                and isinstance(candidate, (msg.EntryMessage, msg.UpdateDeltaMessage))
                and (candidate.prev_qual, candidate.addr) == (message.lo, message.hi)
                and _re_announces(candidate, held)
            ):
                break
            omitted.append(candidate)
        else:
            raise AssertionError(
                f"{message!r} is not (in this order) in the paper's stream"
            )
    omitted.extend(rest)
    for message in omitted:
        assert _re_announces(message, held), message
    return omitted


class TestFrameRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        stream=st.lists(message_strategy(), min_size=0, max_size=40),
        compress=st.booleans(),
        base_time=st.integers(0, 2**40),
    )
    def test_decode_reproduces_exact_sequence(self, stream, compress, base_time):
        codec = WireCodec(
            _STREAM_SCHEMA, compress=compress, base_time=base_time
        )
        frame = codec.encode_frame(stream)
        assert_streams_identical(codec.decode_frame(frame), stream)
        # Re-encoding the decoded stream is byte-identical: the codec is
        # a bijection up to frame boundaries.
        again = codec.encode_frame(codec.decode_frame(frame))
        assert again.data == frame.data


# -- end-to-end: encoded transport vs object transport ------------------------

PREDICATES = ("v < 50", "v >= 20")

workload = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "refresh", "refresh_all"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=40,
)


class _World:
    """One replayable world: base table + two managed snapshots."""

    def __init__(self, wire, summaries, compress, delta):
        self.db = Database("prop-wire")
        self.table = self.db.create_table("t", [("v", "int")], annotations="lazy")
        self.manager = SnapshotManager(self.db, use_page_summaries=summaries)
        self.live = [self.table.insert([v]) for v in range(0, 100, 9)]
        self.channels = []
        self.snaps = []
        for index, predicate in enumerate(PREDICATES):
            channel = Channel()
            self.channels.append(channel)
            self.snaps.append(
                self.manager.create_snapshot(
                    f"s{index}",
                    "t",
                    where=predicate,
                    channel=channel,
                    wire_format=wire,
                    compress=compress and wire,
                    delta_updates=delta and wire,
                )
            )

    def replay(self, script):
        for op, index, value in script:
            if op == "insert":
                self.live.append(self.table.insert([value]))
            elif op == "update" and self.live:
                self.table.update(self.live[index % len(self.live)], {"v": value})
            elif op == "delete" and self.live:
                self.table.delete(self.live.pop(index % len(self.live)))
            elif op == "refresh":
                self.snaps[index % len(self.snaps)].refresh()
            elif op == "refresh_all":
                outcome = self.manager.refresh_all("t")
                assert not outcome.errors
        for snap in self.snaps:
            snap.refresh()

    def state(self):
        return [
            (snap.table.as_map(), snap.table.snap_time) for snap in self.snaps
        ]


def run_worlds(script, summaries, compress, delta):
    plain = _World(False, summaries, False, False)
    wired = _World(True, summaries, compress, delta)
    plain.replay(script)
    wired.replay(script)
    assert wired.state() == plain.state()
    for channel in wired.channels:
        # Encoded transport must actually be counting encoded frames.
        assert channel.wire_enabled
        assert channel.stats.bytes <= channel.stats.modeled_bytes


class TestTransportEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_summaries_on_plain_frames(self, script):
        run_worlds(script, summaries=True, compress=False, delta=False)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_summaries_off_compressed(self, script):
        run_worlds(script, summaries=False, compress=True, delta=False)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_summaries_on_delta_updates(self, script):
        run_worlds(script, summaries=True, compress=False, delta=True)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_summaries_off_delta_compressed(self, script):
        run_worlds(script, summaries=False, compress=True, delta=True)
