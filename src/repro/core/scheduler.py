"""Periodic refresh scheduling and staleness accounting.

Snapshots are "periodically refreshed, read-only replicas"; the refresh
*period* is the knob the paper leaves to the operator.  This module
makes the trade-off measurable:

- a :class:`RefreshScheduler` watches commits on base tables (via the
  transaction manager's commit hook) and refreshes each scheduled
  snapshot every ``every_ops`` relevant operations;
- per snapshot it tracks *staleness*: how many committed changes the
  snapshot has not yet seen, and the running average of that number over
  the operation stream (the area under the pending-changes curve).

Longer periods coalesce more changes per transmitted entry (differential
refresh ships at most one message per entry regardless of how many times
it changed) at the price of higher average staleness; benchmark A11
sweeps the curve.

**Registry-backed due-tracking.**  The original scheduler walked every
``ScheduleEntry`` on every observed commit — O(fleet) per operation.
Scheduling state now lives in a :class:`~repro.core.registry.
SnapshotRegistry`: per-base deadline heaps make the per-op cost O(1)
amortized regardless of fleet size, and the staleness integral is kept
in closed form (byte-for-byte the numbers the eager walk produced; the
10k-entry regression test in ``tests/core/test_scheduler.py`` pins
both properties).  :class:`ScheduleEntry` remains the public face — a
thin view over the registry record.

**Coalescing window.**  With ``coalesce_window=W``, a snapshot coming
due pulls every other scheduled snapshot of the same base table that is
within ``W`` operations of its own deadline into the same refresh — and
the manager serves the whole batch from **one** shared-scan pass
(:mod:`repro.core.group`).  Refreshing an almost-due snapshot a few
operations early costs a sliver of staleness headroom; riding an
already-paid base-table scan saves the entire second pass.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cursor import RefreshResult
from repro.core.manager import Snapshot, SnapshotManager
from repro.core.registry import RegisteredSnapshot, SnapshotRegistry
from repro.core.snapshot import STORAGE_PREFIX
from repro.errors import ChannelError, RetryExhaustedError, SnapshotError
from repro.txn.transactions import Transaction


class ScheduleEntry:
    """Scheduling state for one snapshot (a view over its registry record)."""

    __slots__ = ("snapshot", "record")

    def __init__(self, snapshot: Snapshot, record: RegisteredSnapshot) -> None:
        self.snapshot = snapshot
        #: The registry record holding the live counters.
        self.record = record

    @property
    def every_ops(self) -> int:
        return self.record.every_ops

    @property
    def pending(self) -> int:
        """Committed base-table changes not yet reflected."""
        return self.record.pending

    @property
    def ops_observed(self) -> int:
        """Total base-table operations observed while scheduled."""
        return self.record.ops_observed

    @property
    def staleness_area(self) -> int:
        """Sum of `pending` sampled after every operation."""
        return self.record.staleness_area

    @property
    def refreshes(self) -> int:
        return self.record.refreshes

    @property
    def entries_shipped(self) -> int:
        return self.record.entries_shipped

    @property
    def failed_refreshes(self) -> int:
        """Scheduled refreshes that failed (link down, retries exhausted)
        and were skipped; ``pending`` is kept so the next period — or
        :meth:`RefreshScheduler.flush` — retries."""
        return self.record.failed_refreshes

    @property
    def last_failure(self) -> "BaseException | None":
        return self.record.last_failure

    @property
    def average_staleness(self) -> float:
        """Mean number of unseen changes over the operation stream."""
        return self.record.average_staleness

    def __repr__(self) -> str:
        return (
            f"ScheduleEntry({self.snapshot.name}, every={self.every_ops}, "
            f"pending={self.pending}, avg_staleness={self.average_staleness:.1f})"
        )


class RefreshScheduler:
    """Drives periodic refreshes off the commit stream."""

    def __init__(
        self,
        manager: SnapshotManager,
        coalesce_window: int = 0,
    ) -> None:
        if coalesce_window < 0:
            raise SnapshotError("coalesce window must be non-negative")
        self.manager = manager
        #: Snapshots within this many operations of their own deadline
        #: ride a due snapshot's shared-scan pass (0 = no coalescing).
        self.coalesce_window = coalesce_window
        #: Deadline buckets + staleness accounting.
        self.registry = SnapshotRegistry()
        self._entries: "Dict[str, ScheduleEntry]" = {}
        #: Scheduled refreshes skipped because the refresh failed.
        self.failed_refreshes = 0
        #: Shared-scan passes that served 2+ scheduled snapshots.
        self.group_passes = 0
        #: Refreshes that rode another snapshot's pass early.
        self.coalesced_refreshes = 0
        #: Group-pass casualties immediately re-armed solo (and healed).
        self.rearmed_solo = 0
        self._listener = self._on_commit
        manager.db.txns.on_commit(self._listener)

    def close(self) -> None:
        """Stop observing commits."""
        self.manager.db.txns.remove_commit_listener(self._listener)

    def schedule(self, snapshot_name: str, every_ops: int) -> ScheduleEntry:
        """Refresh ``snapshot_name`` every ``every_ops`` base operations.
        A snapshot over another snapshot is refused: nothing commits on
        its base, so it would never come due."""
        if every_ops < 1:
            raise SnapshotError("refresh period must be at least 1 operation")
        handle = self.manager.snapshot(snapshot_name)
        if handle.info.base_table.startswith(STORAGE_PREFIX):
            raise SnapshotError(
                f"snapshot {snapshot_name!r} reads another snapshot, whose "
                f"writes reach no commit listener: refresh it by hand after "
                f"its base"
            )
        record = self.registry.register(
            snapshot_name,
            handle.info.base_table,
            every_ops,
            restriction=handle.restriction,
        )
        entry = ScheduleEntry(handle, record)
        self._entries[snapshot_name] = entry
        return entry

    def unschedule(self, snapshot_name: str) -> None:
        del self._entries[snapshot_name]
        self.registry.unregister(snapshot_name)

    def entry(self, snapshot_name: str) -> ScheduleEntry:
        return self._entries[snapshot_name]

    def entries(self) -> "list[ScheduleEntry]":
        return list(self._entries.values())

    # -- commit hook ---------------------------------------------------------

    def _on_commit(self, txn: Transaction) -> None:
        # One pass over the commit's records — O(records), independent
        # of fleet size; the registry charges each touched base's ops to
        # its members lazily and surfaces only deadline crossings.
        counts: "Dict[str, int]" = {}
        for record in txn.data_records:
            counts[record.table] = counts.get(record.table, 0) + 1
        due: "list[str]" = []
        for base_table, ops in counts.items():
            for record_due in self.registry.observe(base_table, ops):
                if record_due.name in self._entries:
                    due.append(record_due.name)
        # Accumulate for the whole fleet first, then fire: a refresh
        # reads the base table *after* this commit, so every sibling it
        # coalesces has genuinely seen these operations — firing
        # mid-loop would re-charge a rider for ops its pass covered.
        for name in due:
            entry = self._entries.get(name)
            if entry is not None and entry.pending >= entry.every_ops:
                self._refresh(entry)

    def _coalesce_group(self, entry: ScheduleEntry) -> "list[ScheduleEntry]":
        """The due entry plus every near-due sibling on its base table."""
        group = [entry]
        if self.coalesce_window == 0:
            return group
        base = entry.snapshot.info.base_table
        for record in self.registry.near_due(
            base, self.coalesce_window, exclude=(entry.snapshot.name,)
        ):
            sibling = self._entries.get(record.name)
            if sibling is not None:
                group.append(sibling)
        return group

    def _rearm_solo(
        self, member: ScheduleEntry, group_error: "BaseException | None"
    ) -> "RefreshResult | None":
        """One immediate solo attempt for a member its group pass failed."""
        try:
            return self.manager.refresh(member.snapshot.name)
        except (ChannelError, RetryExhaustedError) as error:
            self._record_failure(member, group_error or error)
            return None

    def _record_failure(
        self, entry: ScheduleEntry, error: "BaseException | None"
    ) -> None:
        # A down link must not propagate out of the commit hook and
        # fail the writer's transaction.  Record the failure, keep
        # `pending` so the next period (or flush()) retries.
        self.registry.mark_failed(entry.snapshot.name, error)
        self.failed_refreshes += 1

    def _refresh(self, entry: ScheduleEntry) -> None:
        group = self._coalesce_group(entry)
        if len(group) == 1:
            try:
                result = self.manager.refresh(entry.snapshot.name)
            except (ChannelError, RetryExhaustedError) as error:
                self._record_failure(entry, error)
                return
            self.registry.mark_refreshed(
                entry.snapshot.name, shipped=result.entries_sent
            )
            return
        # Due refreshes within the batch window ride the same pass.
        results = self.manager.refresh_many(
            [member.snapshot.name for member in group]
        )
        self.group_passes += 1
        for member in group:
            result = results.get(member.snapshot.name)
            if result is None:
                # The shared pass failed for this member.  A rider was
                # pulled in *ahead* of its own deadline, so leaving it
                # with its pre-ride counter after a failed pass lets it
                # coast past the window it was about to hit and its
                # staleness area quietly under-reports the miss.
                # Re-arm it solo right now; only if that attempt also
                # fails do we record the failure (keeping ``pending``
                # so the next period or flush() retries).
                result = self._rearm_solo(
                    member, results.errors.get(member.snapshot.name)
                )
                if result is None:
                    continue
                self.rearmed_solo += 1
            self.registry.mark_refreshed(
                member.snapshot.name, shipped=result.entries_sent
            )
            if member is not entry:
                self.coalesced_refreshes += 1

    def flush(self) -> None:
        """Refresh every scheduled snapshot with pending changes now."""
        for entry in self._entries.values():
            if entry.pending:
                self._refresh(entry)
