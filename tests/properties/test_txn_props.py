"""Transaction-layer properties: the log, the locks and undo against models.

Two families.  A bounded write-ahead log, under random appends, explicit
truncations and capacities, holds exactly the suffix of an unbounded
twin from its ``truncated_before`` and accounts its bytes record by
record.  And random scripts of explicit transactions (committed or
aborted), autocommitted writes — some beside an open transaction,
some conflicting with it — and log-based snapshot refreshes keep the
table equal to a dict model, the log in the shape the manager writes
and the lock table holding exactly the open transaction's locks.  Each
script runs on a plain, a lazy and an eager table; on the eager one the
annotation chain holds after every step outside a transaction.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.errors import LockTimeoutError, LogTruncatedError
from repro.storage.rid import Rid
from repro.txn.transactions import TxnStatus
from repro.txn.wal import LogRecordType, WriteAheadLog

DATA = (LogRecordType.INSERT, LogRecordType.UPDATE, LogRecordType.DELETE)
ENDS = (LogRecordType.COMMIT, LogRecordType.ABORT)


def _fields(record):
    return (
        record.lsn,
        record.txn_id,
        record.rtype,
        record.table,
        record.rid,
        record.before,
        record.after,
    )


log_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from(DATA + ENDS),
            st.integers(min_value=0, max_value=60),
        ),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=10_000)),
    ),
    max_size=120,
)


class TestBoundedLog:
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=800), steps=log_steps)
    def test_holds_the_suffix_of_an_unbounded_twin(self, capacity, steps):
        bounded = WriteAheadLog(capacity_bytes=capacity)
        twin = WriteAheadLog()
        for step in steps:
            if step[0] == "append":
                _, rtype, size = step
                if rtype in DATA:
                    args = ("t", Rid(size, 1), b"b" * size or None, b"a" * size)
                else:
                    args = ()
                assert _fields(bounded.append(7, rtype, *args)) == _fields(
                    twin.append(7, rtype, *args)
                )
            else:
                lsn = step[1] % (bounded.next_lsn + 1)
                before = len(bounded)
                dropped = bounded.truncate_before(lsn)
                assert dropped == before - len(bounded)
            head = bounded.truncated_before
            retained = list(bounded.scan(head))
            assert [_fields(r) for r in retained] == [
                _fields(r) for r in twin.scan(head)
            ]
            assert len(bounded) == len(retained) == bounded.next_lsn - head
            assert bounded.size_bytes == sum(r.encoded_size() for r in retained)
            assert bounded.size_bytes <= capacity or len(bounded) == 1
            if head > 1:
                try:
                    list(bounded.scan(head - 1))
                except LogTruncatedError:
                    pass
                else:
                    raise AssertionError("scan below truncated_before succeeded")
        assert twin.size_bytes == sum(r.encoded_size() for r in twin.scan())


#: 512-byte pages hold 23 of the 17-byte ``(v, w)`` records: a world
#: starts with a full page and most of a second.  Every record has one
#: size.  Undo puts a body back at its address, on its page; with records
#: of different sizes the transaction's own undone inserts (whose
#: directory entries stay) can leave too little room there.
PAGE_SIZE = 512

script_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "update", "delete"] * 3
            + ["begin", "commit", "abort", "refresh"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=10,
    max_size=60,
)


#: The table's annotation modes: every script runs in each.
MODES = ("none", "lazy", "eager")


class _World:
    def __init__(self, mode: str) -> None:
        self.db = Database("prop-txn", page_size=PAGE_SIZE)
        self.table = self.db.create_table(
            "t", [("v", "int"), ("w", "int")],
            annotations=None if mode == "none" else mode,
        )
        #: The table as every reader sees it (the open transaction's
        #: writes included), and for each address that transaction wrote
        #: its values before the first such write (None: absent).
        self.model = {self.table.insert([i, i]): (i, i) for i in range(40)}
        self.undo = {}
        self.txn = None
        self.manager = SnapshotManager(self.db)
        self.snap = self.manager.create_snapshot(
            "log", "t", where="v < 50", method="log"
        )
        self.check_snapshot()

    def check_snapshot(self) -> None:
        want = {rid: values for rid, values in self.model.items() if values[0] < 50}
        assert self.snap.as_map() == want

    def write(self, op, pick, v, w, txn):
        """One table write; returns ``{address: values or None}``."""
        table = self.table
        if op == "insert":
            return {table.insert([v, w], txn=txn): (v, w)}
        live = sorted(self.model)
        if not live:
            return {}
        rid = live[pick % len(live)]
        if op == "delete":
            table.delete(rid, txn=txn)
            return {rid: None}
        assert table.update(rid, {"v": v, "w": w}, txn=txn) == rid
        return {rid: (v, w)}

    def step(self, op, pick, v, w) -> None:
        db = self.db
        mark = db.wal.next_lsn
        if op == "begin" and self.txn is None:
            self.txn = db.txns.begin()
        elif op in ("commit", "abort") and self.txn is not None:
            if op == "commit":
                self.txn.commit()
            else:
                self.txn.abort()
                for rid, values in self.undo.items():
                    self._put(rid, values)
            assert [r.rtype for r in db.wal.scan(mark)] == [
                LogRecordType[op.upper()]
            ]
            self.txn, self.undo = None, {}
        elif op == "refresh":
            try:
                self.snap.refresh()
            except LockTimeoutError:
                assert self.undo  # the open writer's IX blocks the X
            else:
                assert not self.undo
                self.check_snapshot()
            assert db.wal.next_lsn == mark
        elif op in ("insert", "update", "delete"):
            # A third of the writes run autocommitted beside the open
            # transaction; those touching its rows conflict.  Beside a
            # transaction that wrote they do not insert: its abort puts
            # deleted rows back in the room their deletes freed, which
            # locks do not keep other inserts out of (only the slot).
            txn = self.txn if pick % 3 else None
            if op == "insert" and txn is None and self.undo:
                op = "update"
            try:
                changed = self.write(op, pick, v, w, txn)
            except LockTimeoutError:
                assert txn is None and self.txn is not None
                records = list(db.wal.scan(mark))
                assert records[-1].rtype is LogRecordType.ABORT
                changed = {}
            else:
                records = list(db.wal.scan(mark))
                if txn is None and changed:
                    assert records.pop().rtype is LogRecordType.COMMIT
                assert bool(records) == bool(changed)
                assert all(r.rtype in DATA for r in records)
                if txn is not None and records:
                    assert txn.data_records[-len(records):] == records
            assert len({r.txn_id for r in db.wal.scan(mark)}) <= 1
            for rid, values in changed.items():
                if txn is not None and rid not in self.undo:
                    self.undo[rid] = self.model.get(rid)
                self._put(rid, values)
        self.check_invariants()

    def _put(self, rid, values) -> None:
        if values is None:
            self.model.pop(rid, None)
        else:
            self.model[rid] = values

    def check_invariants(self) -> None:
        db = self.db
        assert {rid: row.values for rid, row in self.table.scan()} == self.model
        locked = db.locks.locked_resources()
        if self.txn is None:
            assert locked == [] and not db.txns.active
        else:
            assert self.txn.status is TxnStatus.ACTIVE
            assert all(set(db.locks.holders(r)) == {self.txn.owner} for r in locked)
            rows = {r[2] for r in locked if r[0] == "row"}
            assert rows == set(self.undo)
        assert [r.lsn for r in db.wal.scan()] == list(range(1, db.wal.next_lsn))
        assert all(r.rtype in DATA + ENDS for r in db.wal.scan())
        if self.table.annotation_mode == "eager" and self.txn is None:
            # The chain is the eager hook's, undo included: an abort
            # leaves no PrevAddr naming a slot it freed.
            sanitize.check_annotation_chain(self.table)


class TestTransactionsAgainstModel:
    @settings(max_examples=40, deadline=None)
    @given(script=script_steps)
    # A transaction's insert takes the slot a delete freed, then aborts:
    # on the eager table the successor must not keep naming that slot.
    @example(script=[("delete", 4, 0, 0), ("begin", 0, 0, 0),
                     ("insert", 1, 5, 5), ("abort", 0, 0, 0)])
    def test_scripts_match_a_dict_model(self, script):
        for mode in MODES:
            world = _World(mode)
            for step in script:
                world.step(*step)
            if world.txn is not None:
                world.step("commit", 0, 0, 0)
            world.step("refresh", 0, 0, 0)
