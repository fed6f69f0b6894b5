"""The database facade: one site's storage, catalog, clock, and log.

A :class:`Database` models one *site* in the paper's distributed setting.
The base table lives in one database; each snapshot lives in its own
(possibly the same) database, and refresh traffic flows over a
:class:`~repro.net.channel.Channel` between them.

>>> from repro.database import Database
>>> db = Database("hq")
>>> emp = db.create_table("emp", [("name", "string"), ("salary", "int")])
>>> rid = emp.insert(["Laura", 6])
>>> emp.read(rid).values
('Laura', 6)
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.catalog.catalog import Catalog, TableInfo
from repro.relation.schema import Schema
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import InMemoryPager, Pager
from repro.table import Table
from repro.txn.clock import LogicalClock
from repro.txn.locks import LockManager
from repro.txn.transactions import TransactionManager
from repro.txn.wal import WriteAheadLog

SchemaSpec = Union[Schema, Sequence[tuple]]


class Database:
    """One site: pager, buffer pool, WAL, lock manager, clock, catalog."""

    def __init__(
        self,
        name: str = "db",
        page_size: int = PAGE_SIZE,
        buffer_capacity: int = 256,
        clock: Optional[LogicalClock] = None,
        wal_capacity_bytes: Optional[int] = None,
        pager: Optional[Pager] = None,
    ) -> None:
        self.name = name
        self.pager = pager if pager is not None else InMemoryPager(page_size)
        self.pool = BufferPool(self.pager, capacity=buffer_capacity)
        self.locks = LockManager()
        self.wal = WriteAheadLog(capacity_bytes=wal_capacity_bytes)
        self.txns = TransactionManager(self.wal, self.locks)
        self.clock = clock if clock is not None else LogicalClock()
        self.catalog = Catalog()

    def __repr__(self) -> str:
        return f"Database({self.name}, tables={len(self.catalog.tables())})"

    @staticmethod
    def _as_schema(spec: SchemaSpec) -> Schema:
        if isinstance(spec, Schema):
            return spec
        return Schema.of(*spec)

    def create_table(
        self,
        name: str,
        schema: SchemaSpec,
        insert_policy: str = "first_fit",
        annotations: Optional[str] = None,
    ) -> Table:
        """Create a table; optionally pre-enable annotations.

        ``annotations`` may be ``"lazy"`` or ``"eager"``; by default the
        table starts plain and the snapshot manager enables annotations
        when the first differential snapshot is created (the R* story).
        """
        schema_obj = self._as_schema(schema)
        heap = HeapFile(self.pool, name=name, insert_policy=insert_policy)
        table = Table(self, name, schema_obj, heap)
        self.catalog.add_table(TableInfo(name, table))
        self.txns.register_table(name, table)
        if annotations is not None:
            table.enable_annotations(annotations)
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.catalog.table(name).table

    def drop_table(self, name: str) -> None:
        """Remove a table (its pages are abandoned, not reclaimed).

        The buffer pool forgets the abandoned pages first — their frames
        are dropped without writeback, so a long-lived pool cannot keep
        holding storage that no longer has an owner.
        """
        table = self.catalog.table(name).table
        table.heap.discard_cached()
        self.catalog.drop_table(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def query(self, sql: str):
        """Run a SELECT against this site's tables and snapshots.

        >>> db.query("SELECT name FROM emp WHERE salary < 10").rows
        """
        from repro.query import run_select

        return run_select(self, sql)

    def create_index(self, table_name: str, column: str):
        """Create (and return) a secondary index on a table column."""
        from repro.query.indexes import SecondaryIndex

        return SecondaryIndex(self.table(table_name), column)


__all__ = ["Database"]
