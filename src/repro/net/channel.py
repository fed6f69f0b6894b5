"""Point-to-point message channels with traffic accounting.

A :class:`Channel` delivers messages to a receiver callback (or queues
them when no receiver is attached) and tallies message counts and bytes
by message class.  Any object with a ``wire_size() -> int`` method can be
sent; the refresh message types in :mod:`repro.core.messages` qualify.

**Encoded transport.**  :meth:`Channel.enable_wire` puts the channel in
binary mode: logical messages are serialized through a
:class:`~repro.net.wire.WireCodec`, batched into
:class:`~repro.net.wire.WireFrame`\\ s by a
:class:`~repro.net.wire.FrameWriter`, and the *frames* are what cross
the channel — so :class:`TrafficStats` counts real encoded bytes, with
the fixed-width modeled sizes kept on ``modeled_bytes`` as the
comparison column.  A receiver attached after ``enable_wire`` sees the
decoded logical messages, exactly as in object mode.

A :class:`Link` adds an availability flag: while down, transmissions
raise :class:`~repro.errors.LinkDownError`.  The ASAP propagator uses
this to demonstrate the paper's "if communication ... is interrupted,
the base table changes must be buffered or rejected".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import ChannelError, LinkDownError

Receiver = Callable[[Any], None]


def wire_size_of(message: Any) -> int:
    """The single authority for a message's byte cost on a channel.

    Every byte tally — delivered traffic, drained queues, blocking
    frames — derives from this helper, so encoded-transport frames
    (whose ``wire_size()`` is their real serialized length) and modeled
    message objects can never be counted by two drifting rules.
    """
    return message.wire_size()


def modeled_size_of(message: Any) -> int:
    """What the fixed-width size model charges for ``message``.

    Equal to :func:`wire_size_of` for plain message objects; encoded
    frames carry the modeled total of their contents separately.
    """
    modeled = getattr(message, "modeled_size", None)
    return modeled if modeled is not None else message.wire_size()


class TrafficStats:
    """Message and byte counters, split by message class name.

    ``bytes`` is what actually crossed the link (for encoded transport:
    real serialized frame bytes); ``modeled_bytes`` is what the
    fixed-width ``wire_size()`` model would have charged for the same
    traffic — identical in object mode, the honest comparison column in
    wire mode.
    """

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.modeled_bytes = 0
        self.by_type: "dict[str, int]" = {}
        self.bytes_by_type: "dict[str, int]" = {}

    def record(self, message: Any) -> None:
        size = wire_size_of(message)
        name = type(message).__name__
        self.messages += 1
        self.bytes += size
        self.modeled_bytes += modeled_size_of(message)
        self.by_type[name] = self.by_type.get(name, 0) + 1
        self.bytes_by_type[name] = self.bytes_by_type.get(name, 0) + size

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.modeled_bytes = 0
        self.by_type.clear()
        self.bytes_by_type.clear()

    def snapshot(self) -> "dict[str, int]":
        """A plain-dict summary (handy for bench reporting)."""
        return {"messages": self.messages, "bytes": self.bytes, **self.by_type}

    def __repr__(self) -> str:
        return f"TrafficStats(messages={self.messages}, bytes={self.bytes})"


class Channel:
    """Reliable ordered delivery with counting.

    With a receiver attached, ``send`` delivers synchronously; without
    one, messages queue until :meth:`drain` or until a receiver is
    attached (queued messages flush immediately on attach).

    ``stats`` counts *delivered* traffic only — the paper's headline
    metric is what actually crossed the link.  A queued message is
    counted when it flushes to a receiver; messages discarded by
    :meth:`drain` never count as traffic and are reported separately
    (``drained_messages`` / ``drained_bytes``).

    In wire mode (:meth:`enable_wire`) the unit of transmission is the
    encoded frame: sends buffer into the writer's pending frame, and the
    frame ships when it fills, on :meth:`flush`, or automatically at a
    refresh commit.  :meth:`abort` drops a half-built frame (a failed
    refresh's tail).
    """

    def __init__(self, name: str = "channel") -> None:
        self.name = name
        self.stats = TrafficStats()
        self._receiver: Optional[Receiver] = None
        self._queue: "Deque[Any]" = deque()
        #: Queued messages discarded by drain() — never delivered.
        self.drained_messages = 0
        self.drained_bytes = 0
        self._codec = None
        self._writer = None

    # -- encoded transport ----------------------------------------------------

    def enable_wire(
        self,
        codec: Any,
        flush_messages: int = 64,
        flush_bytes: Optional[int] = None,
    ) -> None:
        """Switch this channel to binary frame transport under ``codec``.

        Must be called before a receiver is attached (the receiver wrap
        happens at attach time) and before anything is queued (a queued
        object message is not a frame).  Both ends share the codec — exactly as
        both ends of a real replication link share the row format.
        """
        if self._receiver is not None:
            raise ChannelError(
                f"{self.name}: enable_wire before attaching a receiver"
            )
        if self._writer is not None:
            raise ChannelError(f"{self.name}: wire transport already enabled")
        if self._queue:
            raise ChannelError(
                f"{self.name}: enable_wire with {len(self._queue)} object "
                "messages queued (the frame decoder cannot deliver them)"
            )
        from repro.net.wire import FrameWriter

        self._codec = codec
        self._writer = FrameWriter(
            self._transmit, codec, flush_messages, flush_bytes
        )

    @property
    def wire_enabled(self) -> bool:
        return self._writer is not None

    def attach(self, receiver: Receiver) -> None:
        if self._receiver is not None:
            raise ChannelError(f"{self.name}: receiver already attached")
        if self._codec is not None:
            receiver = self._codec.receiver(receiver)
        self._receiver = receiver
        self._flush_queue()

    def detach(self) -> None:
        self._receiver = None

    def send(self, message: Any) -> None:
        """Deliver (counting) or queue (not yet traffic) one message.

        Wire mode: encode into the pending frame; the physical
        transmission happens at frame boundaries.
        """
        if self._writer is not None:
            self._writer.send(message)
        else:
            self._transmit(message)

    def flush(self) -> None:
        """Ship the pending partial frame, if any (no-op in object mode)."""
        if self._writer is not None:
            self._writer.flush()

    def abort(self) -> int:
        """Discard the pending partial frame (a failed refresh's tail).

        Returns how many logical messages were dropped; 0 in object mode.
        """
        if self._writer is not None:
            return self._writer.abort()
        return 0

    def _transmit(self, message: Any) -> None:
        """Move one physical unit (message or frame) across the channel."""
        if self._receiver is not None:
            self.stats.record(message)
            self._receiver(message)
        else:
            self._queue.append(message)

    def _flush_queue(self) -> None:
        while self._queue and self._receiver is not None:
            message = self._queue.popleft()
            self.stats.record(message)
            self._receiver(message)

    def drain(self) -> "list[Any]":
        """Return and discard queued (undelivered, uncounted) messages."""
        drained = list(self._queue)
        self._queue.clear()
        self.drained_messages += len(drained)
        self.drained_bytes += sum(wire_size_of(m) for m in drained)
        return drained

    @property
    def queued(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Channel({self.name}, {self.stats})"


class Link(Channel):
    """A channel that can be taken down and brought back up.

    The availability check guards the *physical* transmission: in object
    mode that is every send (unchanged behavior); in wire mode a down
    link fails at the frame boundary — exactly when bytes would have
    moved.
    """

    def __init__(self, name: str = "link") -> None:
        super().__init__(name)
        self._up = True
        self.failed_sends = 0

    @property
    def is_up(self) -> bool:
        return self._up

    def go_down(self) -> None:
        self._up = False

    def come_up(self) -> None:
        self._up = True
        self._flush_queue()

    def _transmit(self, message: Any) -> None:
        if not self._up:
            self.failed_sends += 1
            raise LinkDownError(f"{self.name} is down")
        super()._transmit(message)
