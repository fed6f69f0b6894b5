"""Transactions: begin/commit/abort, with the log as the undo record.

Base-table operations run inside transactions (autocommitted by default).
Each data operation appends one WAL record carrying its before and
after images, and the transaction keeps that record: undo is the log.
Abort walks the transaction's data records in reverse through the owning
table's storage routines (its writes' own, without their locks and log),
restoring records at their original addresses: on a lazy or plain table
byte for byte; an eager table's maintenance hook runs on undo as on any
write, so its annotation chain survives the abort.

Commit listeners exist for the ASAP propagation alternative: the paper's
"transmit changes to the snapshot(s) as they occur" requires seeing each
change at commit time, which is exactly when listeners fire.

Limitation (documented): undo of a DELETE (or of a shrinking UPDATE)
needs room for the old body on its page.  The X row lock keeps the slot,
not the room: once other transactions fill the page, or undone inserts
leave directory entries behind, the abort can raise ``PageFullError``.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.errors import InternalError, TransactionError
from repro.storage.rid import Rid
from repro.txn.locks import LockManager
from repro.txn.wal import LogRecord, LogRecordType, WriteAheadLog


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# Read on every write.  EnumType defines __getattr__ (Python 3.11), so a
# member read through its class takes the slow path: about 0.1 us.
_ACTIVE = TxnStatus.ACTIVE
_COMMITTED = TxnStatus.COMMITTED
_COMMIT = LogRecordType.COMMIT


class Transaction:
    """A unit of work; obtain via :meth:`TransactionManager.begin`."""

    __slots__ = ("txn_id", "owner", "status", "_manager", "data_records")

    def __init__(self, txn_id: int, manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self.owner = ("txn", txn_id)  # what its locks are held under
        self.status = _ACTIVE
        self._manager = manager
        #: Its data records in log order: what listeners see, abort undoes.
        self.data_records: "list[LogRecord]" = []

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def _require_active(self) -> None:
        if self.status is not _ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def __repr__(self) -> str:
        return f"Transaction({self.txn_id}, {self.status.value})"


class UndoInterface:
    """A table's storage routines (``repro.table.Table``): abort undoes
    through them, neither locking nor logging."""

    def insert_record(self, body: bytes, rid: Optional[Rid] = None) -> Rid:
        raise NotImplementedError

    def rewrite_record(
        self, rid: Rid, decide: Callable[[bytes], Optional[bytes]]
    ) -> Optional[bytes]:
        raise NotImplementedError

    def delete_record(self, rid: Rid, before: Optional[bytes] = None) -> None:
        raise NotImplementedError


CommitListener = Callable[[Transaction], None]


class TransactionManager:
    """Creates transactions, logs their work, and applies undo on abort."""

    def __init__(self, wal: WriteAheadLog, locks: LockManager) -> None:
        self.wal = wal
        self.locks = locks
        self._next_txn = 1
        self._tables: "dict[str, UndoInterface]" = {}
        self._commit_listeners: "list[CommitListener]" = []
        self.active: "dict[int, Transaction]" = {}

    def register_table(self, name: str, undo: UndoInterface) -> None:
        """Tables self-register so abort can reach their raw primitives."""
        self._tables[name] = undo

    def on_commit(self, listener: CommitListener) -> None:
        """Run ``listener(txn)`` after every successful commit."""
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: CommitListener) -> None:
        self._commit_listeners.remove(listener)

    def begin(self) -> Transaction:
        """Start a transaction; it reaches the log with its first record."""
        txn_id = self._next_txn
        self._next_txn = txn_id + 1
        txn = self.active[txn_id] = Transaction(txn_id, self)
        return txn

    def record_operation(
        self,
        txn: Transaction,
        rtype: LogRecordType,
        table: str,
        rid: Rid,
        before: Optional[bytes],
        after: Optional[bytes],
    ) -> None:
        """Log one data operation; its record is also its undo."""
        txn._require_active()
        txn.data_records.append(
            self.wal.append(txn.txn_id, rtype, table, rid, before, after)
        )

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        self.wal.append(txn.txn_id, _COMMIT)
        txn.status = _COMMITTED
        self.locks.release_all(txn.owner)
        del self.active[txn.txn_id]
        for listener in self._commit_listeners:
            listener(txn)

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        for record in reversed(txn.data_records):
            table = self._tables.get(record.table) if record.table else None
            if table is None:
                raise TransactionError(
                    f"cannot undo: table {record.table!r} not registered"
                )
            rid, before = record.rid, record.before
            if rid is None:
                raise InternalError("data log record carries no RID")
            if record.rtype is LogRecordType.INSERT:
                table.delete_record(rid)
            elif before is None:
                raise InternalError(
                    f"{record.rtype.value} log record carries no before-image"
                )
            elif record.rtype is LogRecordType.UPDATE:
                table.rewrite_record(rid, lambda stored: before)
            elif record.rtype is LogRecordType.DELETE:
                table.insert_record(before, rid)
        self.wal.append(txn.txn_id, LogRecordType.ABORT)
        txn.status = TxnStatus.ABORTED
        self.locks.release_all(txn.owner)
        del self.active[txn.txn_id]

    def autocommit(self) -> "AutoCommit":
        """Context manager: begin on entry, commit on success, abort on error."""
        return AutoCommit(self)


class AutoCommit:
    """``with manager.autocommit() as txn: ...`` convenience wrapper."""

    def __init__(self, manager: TransactionManager) -> None:
        self._manager = manager
        self.txn: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        self.txn = self._manager.begin()
        return self.txn

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if self.txn is None:
            raise InternalError("AutoCommit exited without being entered")
        if self.txn.status is TxnStatus.ACTIVE:
            if exc_type is None:
                self.txn.commit()
            else:
                self.txn.abort()
        return False
