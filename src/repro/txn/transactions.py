"""Transactions: begin/commit/abort with WAL-backed undo.

Base-table operations run inside transactions (autocommitted by default).
Each data operation appends a WAL record with before/after images and an
undo entry; abort replays the undo entries in reverse through the owning
table's *raw* (non-logging) operations, restoring records at their
original addresses.

Commit listeners exist for the ASAP propagation alternative: the paper's
"transmit changes to the snapshot(s) as they occur" requires seeing each
change at commit time, which is exactly when listeners fire.

Limitation (documented): undo of a DELETE re-inserts at the original
address; if another transaction has already reused that slot the abort
fails.  Under the library's locking discipline (X row locks held to end
of transaction, table X lock during refresh) this cannot happen in
single-threaded use unless a test constructs it deliberately.
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


class _UndoEntry:
    __slots__ = ("table", "rtype", "rid", "before")

    def __init__(
        self,
        table: str,
        rtype: LogRecordType,
        rid: Rid,
        before: Optional[bytes],
    ) -> None:
        self.table = table
        self.rtype = rtype
        self.rid = rid
        self.before = before


class Transaction:
    """A unit of work; obtain via :meth:`TransactionManager.begin`."""

    def __init__(self, txn_id: int, manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        self._manager = manager
        self._undo: "list[_UndoEntry]" = []
        self.data_records: "list[LogRecord]" = []

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def __repr__(self) -> str:
        return f"Transaction({self.txn_id}, {self.status.value})"


#: A raw-undo callback registry entry: the table's non-logging primitives.
class UndoInterface:
    """Raw table primitives the manager uses to roll back."""

    def raw_insert_at(self, rid: Rid, record: bytes) -> None:
        raise NotImplementedError

    def raw_update(self, rid: Rid, record: bytes) -> None:
        raise NotImplementedError

    def raw_delete(self, rid: Rid) -> None:
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
        txn = Transaction(self._next_txn, self)
        self._next_txn += 1
        self.active[txn.txn_id] = txn
        self.wal.append(txn.txn_id, LogRecordType.BEGIN)
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
        """Log one data operation and remember how to undo it."""
        txn._require_active()
        record = self.wal.append(txn.txn_id, rtype, table, rid, before, after)
        txn.data_records.append(record)
        txn._undo.append(_UndoEntry(table, rtype, rid, before))

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        self.wal.append(txn.txn_id, LogRecordType.COMMIT)
        txn.status = TxnStatus.COMMITTED
        self.locks.release_all(("txn", txn.txn_id))
        del self.active[txn.txn_id]
        for listener in self._commit_listeners:
            listener(txn)

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        for entry in reversed(txn._undo):
            table = self._tables.get(entry.table)
            if table is None:
                raise TransactionError(
                    f"cannot undo: table {entry.table!r} not registered"
                )
            if entry.rtype is LogRecordType.INSERT:
                table.raw_delete(entry.rid)
            elif entry.rtype is LogRecordType.UPDATE:
                if entry.before is None:
                    raise InternalError(
                        "update undo entry carries no before-image"
                    )
                table.raw_update(entry.rid, entry.before)
            elif entry.rtype is LogRecordType.DELETE:
                if entry.before is None:
                    raise InternalError(
                        "delete undo entry carries no before-image"
                    )
                table.raw_insert_at(entry.rid, entry.before)
        self.wal.append(txn.txn_id, LogRecordType.ABORT)
        txn.status = TxnStatus.ABORTED
        self.locks.release_all(("txn", txn.txn_id))
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
