"""Channels: delivery, queueing, counting, link failures."""

import pytest

from repro.core.messages import SnapTimeMessage
from repro.errors import ChannelError, LinkDownError
from repro.net.channel import Channel, Link
from repro.net.wire import WireCodec
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType


class Msg:
    """Minimal sized message for channel tests."""

    def __init__(self, size=10):
        self._size = size

    def wire_size(self):
        return self._size


class TestChannel:
    def test_synchronous_delivery(self):
        channel = Channel()
        received = []
        channel.attach(received.append)
        message = Msg()
        channel.send(message)
        assert received == [message]

    def test_queues_without_receiver(self):
        channel = Channel()
        channel.send(Msg())
        assert channel.queued == 1

    def test_attach_flushes_queue(self):
        channel = Channel()
        first = Msg()
        channel.send(first)
        received = []
        channel.attach(received.append)
        assert received == [first]
        assert channel.queued == 0

    def test_double_attach_rejected(self):
        channel = Channel()
        channel.attach(lambda m: None)
        with pytest.raises(ChannelError):
            channel.attach(lambda m: None)

    def test_detach_then_queue(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.detach()
        channel.send(Msg())
        assert channel.queued == 1

    def test_drain(self):
        channel = Channel()
        channel.send(Msg())
        channel.send(Msg())
        assert len(channel.drain()) == 2
        assert channel.queued == 0

    def test_enable_wire_over_queued_objects_rejected(self):
        # Regression: this used to succeed, and the later attach popped
        # (lost) the queued object and died in the frame decoder with a
        # bare TypeError.
        channel = Channel()
        queued = SnapTimeMessage(5)
        channel.send(queued)
        codec = WireCodec(Schema([Column("v", IntType())]))
        with pytest.raises(ChannelError, match="queued"):
            channel.enable_wire(codec)
        assert not channel.wire_enabled
        received = []
        channel.attach(received.append)
        assert received == [queued]
        # Draining first makes the switch legal.
        other = Channel()
        other.send(queued)
        other.drain()
        other.enable_wire(codec)
        assert other.wire_enabled


class TestStats:
    def test_counts_messages_and_bytes(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.send(Msg(7))
        channel.send(Msg(13))
        assert channel.stats.messages == 2
        assert channel.stats.bytes == 20

    def test_by_type(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.send(Msg())
        assert channel.stats.by_type == {"Msg": 1}
        assert channel.stats.bytes_by_type == {"Msg": 10}

    def test_reset(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.send(Msg())
        channel.stats.reset()
        assert channel.stats.messages == 0
        assert channel.stats.by_type == {}

    def test_snapshot_dict(self):
        channel = Channel()
        channel.attach(lambda m: None)
        channel.send(Msg())
        summary = channel.stats.snapshot()
        assert summary["messages"] == 1
        assert summary["Msg"] == 1

    def test_queued_messages_are_not_traffic(self):
        # Regression: `send` used to count a message even when it was
        # only queued, and drain() then discarded it — inflating the
        # paper's headline traffic metric with bytes that never moved.
        channel = Channel()
        channel.send(Msg(10))
        channel.send(Msg(10))
        assert channel.stats.messages == 0
        assert channel.stats.bytes == 0
        drained = channel.drain()
        assert len(drained) == 2
        assert channel.stats.messages == 0  # still no traffic
        assert channel.drained_messages == 2
        assert channel.drained_bytes == 20

    def test_queued_messages_count_when_flushed_on_attach(self):
        channel = Channel()
        channel.send(Msg(10))
        received = []
        channel.attach(received.append)
        assert len(received) == 1
        assert channel.stats.messages == 1
        assert channel.stats.bytes == 10
        assert channel.drained_messages == 0


class TestLink:
    def test_down_link_raises(self):
        link = Link()
        link.go_down()
        with pytest.raises(LinkDownError):
            link.send(Msg())
        assert link.failed_sends == 1

    def test_failed_sends_not_counted_as_traffic(self):
        link = Link()
        link.go_down()
        with pytest.raises(LinkDownError):
            link.send(Msg())
        assert link.stats.messages == 0

    def test_recovery(self):
        link = Link()
        received = []
        link.attach(received.append)
        link.go_down()
        assert not link.is_up
        link.come_up()
        link.send(Msg())
        assert len(received) == 1
