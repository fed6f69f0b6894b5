"""The benchmark's only contact with ``repro``.

Everything the driver needs from the system — building the two sites,
the three ``Table`` write calls, the three refresh entry points, the
counters of each layer and the traced channel — goes through here, so a
change to the manager's surface needs a follow-up in this file alone.
Layers are observed from outside, through public seams only:
``create_snapshot(channel=...)``, ``Channel.enable_wire/attach/send/
flush``, the codec's ``receiver``, the ``on_chunk_boundary`` hook,
``RefreshResult``, ``TrafficStats``, ``BufferStats`` and the
``SnapshotTable`` counters.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from repro.core.manager import SnapshotManager
from repro.core.messages import RefreshCommitMessage
from repro.database import Database
from repro.errors import ReproError
from repro.net.channel import Channel

from .trace import Tracer

__all__ = ["ReproError", "Site", "TracedChannel"]

TABLE = "accounts"
#: ``refresh_online`` chunk size: 32 pages is about 2k rows per lock hold.
CHUNK_PAGES = 32

#: ``RefreshResult`` fields that describe one snapshot's cursor; a shared
#: pass reports them per snapshot, so a round sums them.
_CURSOR_FIELDS = (
    "pages_scanned",
    "pages_skipped",
    "entries_evaluated",
    "entries_sent",
    "messages_sent",
)
#: Fields that describe the pass; a shared pass copies them onto every
#: snapshot's result, so a round takes them once.
_PASS_FIELDS = (
    "rows_decoded",
    "rows_materialized",
    "fixup_writes",
    "pages_batch_decoded",
    "batches_reused",
    "chunks_scanned",
    "interleaved_writes",
    "pages_repaired",
)


class TracedChannel(Channel):
    """A channel that reports where a refresh's time went.

    While the tracer is off every call goes straight to
    :class:`Channel`, at the cost of one test per call.
    """

    def __init__(self, name: str, tracer: Tracer) -> None:
        super().__init__(name)
        self.tracer = tracer

    def enable_wire(
        self,
        codec: Any,
        flush_messages: int = 64,
        flush_bytes: Optional[int] = None,
    ) -> None:
        # The codec belongs to this channel alone, so its receiver can be
        # wrapped on the instance: attach() then builds the traced one.
        build = codec.receiver
        codec.receiver = lambda logical: self._traced_receiver(build, logical)
        super().enable_wire(codec, flush_messages, flush_bytes)

    def _traced_receiver(
        self,
        build: "Callable[[Callable[[Any], None]], Callable[[Any], None]]",
        logical: "Callable[[Any], None]",
    ) -> "Callable[[Any], None]":
        tracer = self.tracer
        stage_busy = 0.0
        staged = 0
        commit = None

        def apply(message: Any) -> None:
            nonlocal stage_busy, staged, commit
            if not tracer.on:
                logical(message)
                return
            start = perf_counter()
            logical(message)
            end = perf_counter()
            if type(message) is RefreshCommitMessage:
                commit = (start, end)
            else:
                stage_busy += end - start
                staged += 1

        decode_and_apply = build(apply)

        def receive(frame: Any) -> None:
            nonlocal stage_busy, staged, commit
            if not tracer.on:
                decode_and_apply(frame)
                return
            stage_busy, staged, commit = 0.0, 0, None
            start = perf_counter()
            decode_and_apply(frame)
            tracer.frame(start, perf_counter(), stage_busy, staged, commit)

        return receive

    def send(self, message: Any) -> None:
        if not self.tracer.on:
            Channel.send(self, message)
            return
        start = perf_counter()
        Channel.send(self, message)
        self.tracer.sent(start, perf_counter())

    def flush(self) -> None:
        if not self.tracer.on:
            Channel.flush(self)
            return
        start = perf_counter()
        Channel.flush(self)
        self.tracer.sent(start, perf_counter())


class Site:
    """The base site, the receiver site and the manager between them.

    Page summaries and batch mode are the manager's defaults (on); every
    snapshot ships over the encoded transport into a separate receiver
    ``Database``.
    """

    def __init__(
        self, columns: "Iterable[tuple[str, str]]", tracer: Optional[Tracer]
    ) -> None:
        self.base = Database("base")
        self.receiver = Database("receiver")
        self.table = self.base.create_table(
            TABLE, list(columns), annotations="lazy"
        )
        self.manager = SnapshotManager(self.base)
        self.tracer = tracer
        self._handles: "list[Any]" = []
        # The system under test sees exactly these three calls.
        self.insert = self.table.insert
        self.update = self.table.update
        self.delete = self.table.delete

    def load(self, rows: "list[list[Any]]") -> "list[Any]":
        return self.table.bulk_load(rows)

    def create_snapshot(
        self,
        name: str,
        where: str,
        columns: "Optional[tuple[str, ...]]",
        compress: bool,
        delta_updates: bool,
    ) -> None:
        """Define a snapshot without populating it (see :meth:`populate`)."""
        channel = None
        if self.tracer is not None:
            channel = TracedChannel(f"{TABLE}->{name}", self.tracer)
        self._handles.append(
            self.manager.create_snapshot(
                name,
                TABLE,
                where,
                columns=list(columns) if columns is not None else None,
                method="differential",
                target_db=self.receiver,
                channel=channel,
                wire_format=True,
                compress=compress,
                delta_updates=delta_updates,
                initial_refresh=False,
            )
        )

    def populate(self) -> None:
        """The initial refresh of every snapshot, on one shared pass."""
        self._raise_errors(self.manager.refresh_all())

    @staticmethod
    def _raise_errors(outcome: Any) -> None:
        for error in outcome.errors.values():
            raise error

    # -- refresh -------------------------------------------------------------

    def refresh_solo(self) -> "dict[str, int]":
        return self._fold([self.manager.refresh(self._handles[0].name)])

    def refresh_group(self) -> "dict[str, int]":
        outcome = self.manager.refresh_all()
        self._raise_errors(outcome)
        return self._fold(list(outcome.values()))

    def refresh_online(
        self, on_chunk_boundary: "Callable[[int], None]"
    ) -> "dict[str, int]":
        return self._fold(
            [
                self.manager.refresh_online(
                    self._handles[0].name,
                    chunk_pages=CHUNK_PAGES,
                    on_chunk_boundary=on_chunk_boundary,
                )
            ]
        )

    def chunk_boundaries(self) -> int:
        """Writer windows the next ``refresh_online`` will open."""
        pages = self.table.heap.page_count
        return max(0, (pages + CHUNK_PAGES - 1) // CHUNK_PAGES - 1)

    @staticmethod
    def _fold(results: "list[Any]") -> "dict[str, int]":
        counts = {
            field: sum(getattr(result, field) for result in results)
            for field in _CURSOR_FIELDS
        }
        for field in _PASS_FIELDS:
            counts[field] = getattr(results[0], field)
        counts["cursors"] = results[0].group_cursors
        # The pass read at least the pages its widest cursor evaluated.
        counts["pass_pages_scanned"] = max(
            result.pages_scanned for result in results
        )
        return counts

    # -- counters ------------------------------------------------------------

    def counters(self) -> "dict[str, int]":
        """Cumulative counters of the layers below the manager."""
        base = self.base.pool.stats
        remote = self.receiver.pool.stats
        out = {
            "base_hits": base.hits,
            "base_misses": base.misses,
            "base_evictions": base.evictions,
            "batch_hits": base.batch_hits,
            "batch_misses": base.batch_misses,
            "remote_hits": remote.hits,
            "remote_misses": remote.misses,
            "frames": 0,
            "bytes": 0,
            "modeled_bytes": 0,
            "applied_upserts": 0,
            "applied_deletes": 0,
            "applied_merges": 0,
        }
        for handle in self._handles:
            traffic = handle.channel.stats
            out["frames"] += traffic.messages
            out["bytes"] += traffic.bytes
            out["modeled_bytes"] += traffic.modeled_bytes
            snapshot = handle.table
            out["applied_upserts"] += snapshot.applied_upserts
            out["applied_deletes"] += snapshot.applied_deletes
            out["applied_merges"] += snapshot.applied_merges
        return out

    # -- oracle inputs -------------------------------------------------------

    def base_rows(self) -> "Iterable[tuple[Any, tuple]]":
        """``(address, visible values)`` of one ``Table.scan``."""
        for rid, row in self.table.scan():
            yield rid, row.values

    def snapshot_rows(self, name: str) -> "Iterable[tuple[Any, tuple]]":
        """``(base address, values)`` of a snapshot, in address order."""
        for addr, row in self.manager.snapshot(name).table.entries():
            yield addr, row.values

    def corrupt_receiver(self, name: str) -> None:
        """Delete one stored row behind the receiver's back (self-test)."""
        storage = self.manager.snapshot(name).table.storage
        rid, _row = next(iter(storage.scan()))
        storage.system_delete(rid)
