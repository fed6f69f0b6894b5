"""A write-ahead log with scans, truncation, and byte accounting.

This is the substrate for two things:

1. transaction rollback (undo from before-images) and the notion of
   *committed* changes;
2. the paper's log-scan refresh alternative, which must "cull the
   relevant, committed data from the log" — including the costs the
   paper warns about: most log records are irrelevant to a given
   snapshot, and truncation forces a full refresh
   (:class:`~repro.errors.LogTruncatedError`).

Records live in memory as :class:`LogRecord` objects; ``encoded_size``
charges a realistic byte cost so benchmarks can report log volume.

There is no BEGIN record: a transaction begins at its first data record
and ends with one COMMIT or ABORT, and every reader keys on COMMIT.

**Capacity and truncation.**  Constructing the log with
``capacity_bytes`` bounds its retained size: every :meth:`~WriteAheadLog.append`
that pushes past the cap silently drops the *oldest* records (advancing
``truncated_before``) until the log fits again.  Explicit
:meth:`~WriteAheadLog.truncate_before` does the same on demand.  Either
way, a later :meth:`~WriteAheadLog.scan` that needs an LSN below
``truncated_before`` raises :class:`~repro.errors.LogTruncatedError` —
which is how a log-based snapshot whose history fell off the end learns
it must degrade to a full refresh.  The snapshot manager truncates after
every committed refresh, below what a log-method snapshot still reads,
so the log holds only what some refresh will read (undo keeps each
transaction's own records, :attr:`Transaction.data_records`).
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Optional

from repro.errors import LogTruncatedError, WalError
from repro.storage.rid import Rid


class LogRecordType(enum.Enum):
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


_HEADER_BYTES = 17  # lsn u64 + txn u32 + type u8 + table-id u32


class LogRecord:
    """One log entry.

    ``before``/``after`` are raw record images (bytes) for data records;
    control records (COMMIT/ABORT) carry neither.
    """

    __slots__ = ("lsn", "txn_id", "rtype", "table", "rid", "before", "after")

    def __init__(
        self,
        lsn: int,
        txn_id: int,
        rtype: LogRecordType,
        table: Optional[str] = None,
        rid: Optional[Rid] = None,
        before: Optional[bytes] = None,
        after: Optional[bytes] = None,
    ) -> None:
        self.lsn = lsn
        self.txn_id = txn_id
        self.rtype = rtype
        self.table = table
        self.rid = rid
        self.before = before
        self.after = after

    def encoded_size(self) -> int:
        """Approximate on-disk size in bytes (for cost accounting)."""
        size = _HEADER_BYTES
        if self.rid is not None:
            size += Rid.WIRE_SIZE
        if self.before is not None:
            size += 4 + len(self.before)
        if self.after is not None:
            size += 4 + len(self.after)
        return size

    def is_data(self) -> bool:
        return self.rtype in (
            LogRecordType.INSERT,
            LogRecordType.UPDATE,
            LogRecordType.DELETE,
        )

    def __repr__(self) -> str:
        target = f" {self.table}@{self.rid}" if self.table else ""
        return f"LogRecord({self.lsn}, txn={self.txn_id}, {self.rtype.value}{target})"


class WriteAheadLog:
    """Append-only log with monotone LSNs and prefix truncation."""

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        # Dense in LSN order from _truncated_before; truncation pops left.
        self._records: "deque[LogRecord]" = deque()
        self._next_lsn = 1
        self._truncated_before = 1  # lowest LSN still retained
        self._bytes = 0
        self.capacity_bytes = capacity_bytes

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def truncated_before(self) -> int:
        return self._truncated_before

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._records)

    def append(
        self,
        txn_id: int,
        rtype: LogRecordType,
        table: Optional[str] = None,
        rid: Optional[Rid] = None,
        before: Optional[bytes] = None,
        after: Optional[bytes] = None,
    ) -> LogRecord:
        """Append a record; auto-truncates oldest records at capacity."""
        record = LogRecord(self._next_lsn, txn_id, rtype, table, rid, before, after)
        self._next_lsn += 1
        records = self._records
        records.append(record)
        # LogRecord.encoded_size, inline: one call fewer on every write.
        size = _HEADER_BYTES
        if rid is not None:
            size += Rid.WIRE_SIZE
        if before is not None:
            size += 4 + len(before)
        if after is not None:
            size += 4 + len(after)
        self._bytes += size
        if self.capacity_bytes is not None:
            while self._bytes > self.capacity_bytes and len(records) > 1:
                dropped = records.popleft()
                self._bytes -= dropped.encoded_size()
                self._truncated_before = dropped.lsn + 1
        return record

    def scan(self, from_lsn: int = 1) -> Iterator[LogRecord]:
        """Yield retained records with ``lsn >= from_lsn`` in order.

        Raises :class:`LogTruncatedError` when ``from_lsn`` precedes the
        retained prefix — the caller's history is gone and it must fall
        back to a full refresh.  Consume the scan before appending or
        truncating again: it iterates the log itself, not a copy.
        """
        if from_lsn < self._truncated_before:
            raise LogTruncatedError(
                f"log truncated: need LSN {from_lsn}, retain from "
                f"{self._truncated_before}"
            )
        yield from islice(self._records, from_lsn - self._truncated_before, None)

    def truncate_before(self, lsn: int) -> int:
        """Drop records with LSN below ``lsn``; return how many dropped.

        Dropping every record (``lsn`` at the head, as after a refresh
        with no log reader behind it) is one ``clear``."""
        if lsn > self._next_lsn:
            raise WalError(f"cannot truncate past the log head ({lsn})")
        records = self._records
        dropped = min(max(lsn - self._truncated_before, 0), len(records))
        if dropped == len(records):
            records.clear()
            self._bytes = 0
        else:
            for _ in range(dropped):
                self._bytes -= records.popleft().encoded_size()
        self._truncated_before = max(self._truncated_before, lsn)
        return dropped

    def committed_txns(self, from_lsn: int = 1) -> "set[int]":
        """Transaction ids with a COMMIT record at or after ``from_lsn``."""
        return {
            record.txn_id
            for record in self.scan(from_lsn)
            if record.rtype is LogRecordType.COMMIT
        }

    def cull(
        self,
        table: str,
        from_lsn: int,
        committed: Optional["set[int]"] = None,
        visit: Optional[Callable[[LogRecord], None]] = None,
    ) -> "tuple[list[LogRecord], int]":
        """Extract committed data records for ``table`` since ``from_lsn``.

        Returns ``(relevant_records, scanned_count)``; the scanned count
        is the paper's "only a small portion of the log will involve
        updates to the base table for a particular snapshot" cost, which
        the log-based benchmark reports.
        """
        if committed is None:
            committed = self.committed_txns(from_lsn)
        relevant = []
        scanned = 0
        for record in self.scan(from_lsn):
            scanned += 1
            if visit is not None:
                visit(record)
            if (
                record.is_data()
                and record.table == table
                and record.txn_id in committed
            ):
                relevant.append(record)
        return relevant, scanned
