"""Fleet-scale snapshot registry: deadline buckets and the cohort drain.

The scheduler's original bookkeeping walked every scheduled snapshot on
every observed commit — O(fleet) per operation, fine at 32 snapshots,
hopeless at 10^5.  This module holds the fleet in per-base-table
**deadline buckets** (a lazy-tombstone min-heap keyed by the operation
count at which each snapshot comes due) so observing K operations costs
O(K + due log n) amortized, independent of fleet size, while keeping the
scheduler's staleness accounting byte-for-byte identical via closed
forms:

- ``pending``        = ``ops_total - reset_at``
- ``staleness_area`` = ``area_base + pending * (pending + 1) // 2``

(the eager loop adds ``pending`` after each op, so a segment of t ops
contributes 1 + 2 + ... + t — the triangular number — to the area; the
segment closes when a refresh resets ``pending``).

On top of the buckets sits the **drain**:
:meth:`SnapshotRegistry.next_cohort` takes the stalest cohort of due
snapshots (clustered by :mod:`repro.core.cohort`) out of the due pool,
the driver refreshes it on one shared-scan pass, and reports each member
back through :meth:`~SnapshotRegistry.mark_refreshed` (re-armed for its
next deadline) or :meth:`~SnapshotRegistry.mark_failed` (due again at
once).  A member the driver never reports stays out of the due pool, so
``SnapshotManager.drain_registry`` reports every member it took, also
when a pass raises.

This module is deliberately manager- and scheduler-blind (replint
L404): it hands out names and takes back outcomes, so no orchestration
state can leak into a cohort.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cohort import Cohort, DueEntry, cluster_due, staleness_band
from repro.errors import SnapshotError


def _tri(t: int) -> int:
    """1 + 2 + ... + t — one staleness segment's area."""
    return t * (t + 1) // 2


class RegisteredSnapshot:
    """Registry record for one snapshot (lazy staleness accounting)."""

    __slots__ = (
        "name",
        "base_table",
        "every_ops",
        "signature",
        "columns",
        "seq",
        "_base",
        "area_base",
        "reset_at",
        "observe_from",
        "deadline",
        "refreshes",
        "entries_shipped",
        "failed_refreshes",
        "last_failure",
    )

    def __init__(
        self,
        name: str,
        base_table: str,
        every_ops: int,
        signature: str,
        columns: Tuple[str, ...],
        seq: int,
        base: "_BaseBucket",
    ) -> None:
        self.name = name
        self.base_table = base_table
        self.every_ops = every_ops
        self.signature = signature
        self.columns = columns
        self.seq = seq
        self._base = base
        #: Closed staleness area (segments ended by past refreshes).
        self.area_base = 0
        #: Base op count at the last refresh (or registration).
        self.reset_at = base.ops_total
        #: Base op count at registration.
        self.observe_from = base.ops_total
        #: The armed deadline (base op count); heap items that disagree
        #: with this field are tombstones and are discarded on pop.
        self.deadline = base.ops_total + every_ops
        self.refreshes = 0
        self.entries_shipped = 0
        self.failed_refreshes = 0
        self.last_failure: "BaseException | None" = None

    @property
    def pending(self) -> int:
        """Committed base-table changes not yet reflected."""
        return self._base.ops_total - self.reset_at

    @property
    def ops_observed(self) -> int:
        """Total base-table operations observed while registered."""
        return self._base.ops_total - self.observe_from

    @property
    def staleness_area(self) -> int:
        """Sum of ``pending`` sampled after every operation (closed form)."""
        return self.area_base + _tri(self.pending)

    @property
    def average_staleness(self) -> float:
        """Mean number of unseen changes over the operation stream."""
        if self.ops_observed == 0:
            return 0.0
        return self.staleness_area / self.ops_observed

    @property
    def band(self) -> int:
        """Current staleness band (see :func:`staleness_band`)."""
        return staleness_band(self.pending)

    def __repr__(self) -> str:
        return (
            f"RegisteredSnapshot({self.name}, base={self.base_table}, "
            f"every={self.every_ops}, pending={self.pending})"
        )


class _BaseBucket:
    """Per-base-table state: op counter, deadline heap, membership."""

    __slots__ = ("ops_total", "heap", "members", "due")

    def __init__(self) -> None:
        #: Operations observed on this base since it first had a member.
        self.ops_total = 0
        #: Min-heap of (deadline, seq, name); entries are lazy — a popped
        #: item only counts if it matches the record's armed deadline.
        self.heap: "list[tuple[int, int, str]]" = []
        self.members: "Dict[str, RegisteredSnapshot]" = {}
        #: Snapshots past their deadline, not yet refreshed or taken by
        #: :meth:`SnapshotRegistry.next_cohort`.
        self.due: "Dict[str, RegisteredSnapshot]" = {}


class SnapshotRegistry:
    """Deadline-bucketed due-tracking and cohort draining for a fleet.

    The registry is a pure scheduling data structure: it never touches a
    manager, never opens a channel, never reads a table.  Drivers feed
    it observed operations (:meth:`observe`), take due work out of it
    (directly, or a cohort at a time with :meth:`next_cohort`), and
    report outcomes back (:meth:`mark_refreshed` / :meth:`mark_failed`).
    It belongs to one thread, like the :class:`~repro.database.Database`
    it schedules for, and it never calls out: a driver that re-enters
    it — a transaction committed from inside a scheduler-fired refresh
    comes back through the commit hook into :meth:`observe` — finds it
    between two complete operations.
    """

    def __init__(self, cohort_size: int = 64) -> None:
        if cohort_size < 1:
            raise SnapshotError("cohort size must be at least 1")
        self.cohort_size = cohort_size
        self._bases: "Dict[str, _BaseBucket]" = {}
        self._records: "Dict[str, RegisteredSnapshot]" = {}
        self._next_seq = 0
        #: Observable work/outcome counters (regression tests key on the
        #: heap counters: per-op cost must not scale with fleet size).
        self.stats: "Dict[str, int]" = {
            "heap_pushes": 0,
            "heap_pops": 0,
            "tombstone_pops": 0,
            "observe_calls": 0,
            "ops_observed": 0,
            "due_transitions": 0,
            "cohorts_formed": 0,
        }

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        base_table: str,
        every_ops: int,
        restriction: Optional[Any] = None,
        signature: Optional[str] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> RegisteredSnapshot:
        """Register ``name`` for refresh every ``every_ops`` base ops.

        ``restriction`` (anything with ``.signature`` and an ``.expr``
        exposing ``columns()``, i.e. a compiled ``Restriction``) supplies
        the cohort signature; pass ``signature``/``columns`` explicitly
        to register without one.
        """
        if every_ops < 1:
            raise SnapshotError("refresh period must be at least 1 operation")
        if signature is None:
            signature = restriction.signature if restriction is not None else "*"
        if columns is None:
            columns = (
                tuple(sorted(restriction.expr.columns()))
                if restriction is not None
                else ()
            )
        if name in self._records:
            self.unregister(name)
        base = self._bases.setdefault(base_table, _BaseBucket())
        record = RegisteredSnapshot(
            name, base_table, every_ops, signature, columns, self._next_seq, base
        )
        self._next_seq += 1
        self._records[name] = record
        base.members[name] = record
        heapq.heappush(base.heap, (record.deadline, record.seq, name))
        self.stats["heap_pushes"] += 1
        return record

    def unregister(self, name: str) -> None:
        record = self._records.pop(name)
        base = record._base
        base.members.pop(name, None)
        base.due.pop(name, None)
        # Heap items for this record become tombstones; if it is the
        # base's last member the whole bucket (and its op counter)
        # retires with it.
        if not base.members:
            self._bases.pop(record.base_table, None)

    def record(self, name: str) -> RegisteredSnapshot:
        return self._records[name]

    def records(self) -> "List[RegisteredSnapshot]":
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    # -- due-tracking --------------------------------------------------------

    def observe(self, base_table: str, ops: int = 1) -> "List[RegisteredSnapshot]":
        """Record ``ops`` committed operations on ``base_table``.

        Returns every member of the base now past its deadline and not
        taken by :meth:`next_cohort` — including members already due
        from earlier failed refreshes, matching the eager scheduler's
        retry-on-next-relevant-commit behavior.  Cost is
        O(ops + newly_due * log n): the heap is touched only for
        deadlines actually crossed.
        """
        self.stats["observe_calls"] += 1
        base = self._bases.get(base_table)
        if base is None or ops <= 0:
            return []
        base.ops_total += ops
        self.stats["ops_observed"] += ops
        heap = base.heap
        while heap and heap[0][0] <= base.ops_total:
            deadline, seq, name = heapq.heappop(heap)
            self.stats["heap_pops"] += 1
            record = base.members.get(name)
            if record is None or record.deadline != deadline:
                self.stats["tombstone_pops"] += 1
                continue
            base.due[name] = record
            self.stats["due_transitions"] += 1
        return list(base.due.values())

    def due(self, base_table: Optional[str] = None) -> "List[RegisteredSnapshot]":
        """Currently due snapshots (optionally one base's)."""
        buckets = (
            [self._bases[base_table]]
            if base_table is not None and base_table in self._bases
            else list(self._bases.values())
        )
        out: "List[RegisteredSnapshot]" = []
        for base in buckets:
            out.extend(base.due.values())
        return out

    def near_due(
        self, base_table: str, window: int, exclude: "Tuple[str, ...]" = ()
    ) -> "List[RegisteredSnapshot]":
        """Members of ``base_table`` within ``window`` ops of their deadline.

        Mirrors the scheduler's coalescing predicate: ``pending > 0`` and
        ``pending + window >= every_ops``.  O(base fleet) — called only
        when a refresh actually fires, never on the per-op path.
        """
        base = self._bases.get(base_table)
        if base is None:
            return []
        skip = set(exclude)
        return [
            r
            for r in base.members.values()
            if r.name not in skip
            and r.pending > 0
            and r.pending + window >= r.every_ops
        ]

    def mark_refreshed(self, name: str, shipped: int = 0) -> None:
        """Close the staleness segment and re-arm the deadline."""
        record = self._records[name]
        base = record._base
        record.area_base += _tri(record.pending)
        record.reset_at = base.ops_total
        record.deadline = base.ops_total + record.every_ops
        record.refreshes += 1
        record.entries_shipped += shipped
        base.due.pop(name, None)
        heapq.heappush(base.heap, (record.deadline, record.seq, name))
        self.stats["heap_pushes"] += 1

    def mark_failed(self, name: str, error: "BaseException | None" = None) -> None:
        """Record a failed refresh; the snapshot stays due for retry."""
        record = self._records[name]
        record.failed_refreshes += 1
        record.last_failure = error
        # Still past its deadline: back into (or still in) the due
        # pool so the next relevant commit — or the next drain —
        # retries it.
        record._base.due[name] = record

    # -- drain -----------------------------------------------------------------

    def next_cohort(self) -> Optional[Cohort]:
        """Take the stalest cohort of due snapshots out of the due pool.

        The due set is clustered by :func:`cluster_due` and the cohort
        chosen stalest first: highest band, then largest, then key
        order.  Its members leave the due pool, so :meth:`observe` and
        :meth:`due` cannot hand them out again; the driver refreshes
        them and reports each one back through :meth:`mark_refreshed`
        or :meth:`mark_failed`.  Returns ``None`` when nothing is due.
        """
        candidates = [
            DueEntry(
                record.name,
                base_name,
                record.signature,
                record.columns,
                record.pending,
                record.seq,
            )
            for base_name, base in self._bases.items()
            for record in base.due.values()
        ]
        if not candidates:
            return None
        cohorts = cluster_due(candidates, max_size=self.cohort_size)
        self.stats["cohorts_formed"] += len(cohorts)
        cohort = min(cohorts, key=lambda c: (-c.bands[-1], -len(c), c.key))
        for member in cohort.members:
            self._records[member]._base.due.pop(member)
        return cohort
