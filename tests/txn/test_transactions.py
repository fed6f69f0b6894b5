"""Transactions: commit, abort/undo, listeners, autocommit, the log."""

import pytest

from repro.errors import LockTimeoutError, TransactionError
from repro.storage.rid import Rid
from repro.txn.transactions import TxnStatus
from repro.txn.wal import LogRecordType

INSERT, UPDATE, DELETE = (
    LogRecordType.INSERT,
    LogRecordType.UPDATE,
    LogRecordType.DELETE,
)
COMMIT, ABORT = LogRecordType.COMMIT, LogRecordType.ABORT


@pytest.fixture
def table(db):
    t = db.create_table("t", [("v", "int")])
    t.bulk_load([[i] for i in range(5)])
    return t


class TestCommit:
    def test_explicit_commit(self, db, table):
        txn = db.txns.begin()
        rid = table.insert([99], txn=txn)
        txn.commit()
        assert txn.status is TxnStatus.COMMITTED
        assert table.read(rid).values == (99,)

    def test_double_commit_rejected(self, db):
        txn = db.txns.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_operations_after_commit_rejected(self, db, table):
        txn = db.txns.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            table.insert([1], txn=txn)

    def test_locks_released_on_commit(self, db, table):
        txn = db.txns.begin()
        table.insert([1], txn=txn)
        assert db.locks.locked_resources()
        txn.commit()
        assert not db.locks.locked_resources()


class TestAbort:
    def test_abort_insert(self, db, table):
        txn = db.txns.begin()
        rid = table.insert([99], txn=txn)
        txn.abort()
        assert not table.exists(rid)

    def test_abort_update_restores_value(self, db, table):
        rids = [r for r, _ in table.scan()]
        txn = db.txns.begin()
        table.update(rids[0], {"v": 1000}, txn=txn)
        txn.abort()
        assert table.read(rids[0]).values == (0,)

    def test_abort_delete_restores_at_same_address(self, db, table):
        rids = [r for r, _ in table.scan()]
        txn = db.txns.begin()
        table.delete(rids[2], txn=txn)
        txn.abort()
        assert table.exists(rids[2])
        assert table.read(rids[2]).values == (2,)

    def test_abort_multi_op_reverse_order(self, db, table):
        rids = [r for r, _ in table.scan()]
        before = {r: row.values for r, row in table.scan()}
        txn = db.txns.begin()
        table.update(rids[0], {"v": -1}, txn=txn)
        table.delete(rids[1], txn=txn)
        new = table.insert([77], txn=txn)
        table.update(new, {"v": 78}, txn=txn)
        txn.abort()
        assert {r: row.values for r, row in table.scan()} == before

    def test_abort_releases_locks(self, db, table):
        txn = db.txns.begin()
        table.insert([1], txn=txn)
        txn.abort()
        assert not db.locks.locked_resources()


class TestAutocommit:
    def test_success_commits(self, db):
        with db.txns.autocommit() as txn:
            pass
        assert txn.status is TxnStatus.COMMITTED

    def test_error_aborts(self, db, table):
        rid = None
        with pytest.raises(RuntimeError):
            with db.txns.autocommit() as txn:
                rid = table.insert([1], txn=txn)
                raise RuntimeError("boom")
        assert not table.exists(rid)

    def test_table_ops_default_to_autocommit(self, db, table):
        rid = table.insert([42])
        assert table.read(rid).values == (42,)
        assert not db.txns.active


class TestListeners:
    def test_commit_listener_sees_data_records(self, db, table):
        seen = []
        db.txns.on_commit(lambda txn: seen.extend(txn.data_records))
        table.insert([5])
        assert len(seen) == 1
        assert seen[0].table == "t"

    def test_listener_not_fired_on_abort(self, db, table):
        fired = []
        db.txns.on_commit(lambda txn: fired.append(txn))
        txn = db.txns.begin()
        table.insert([5], txn=txn)
        txn.abort()
        assert fired == []

    def test_remove_listener(self, db, table):
        fired = []
        listener = lambda txn: fired.append(txn)  # noqa: E731
        db.txns.on_commit(listener)
        db.txns.remove_commit_listener(listener)
        table.insert([5])
        assert fired == []


def _types(db, mark):
    return [record.rtype for record in db.wal.scan(mark)]


class TestTheLogAWriteLeaves:
    def test_autocommit_is_one_data_record_then_commit(self, db, table):
        rid = next(rid for rid, _ in table.scan())
        for write, rtype in (
            (lambda: table.update(rid, {"v": 7}), UPDATE),
            (lambda: table.insert([8]), INSERT),
            (lambda: table.delete(rid), DELETE),
        ):
            mark = db.wal.next_lsn
            write()
            records = list(db.wal.scan(mark))
            assert [r.rtype for r in records] == [rtype, COMMIT]
            assert len({r.txn_id for r in records}) == 1

    def test_explicit_transaction_is_k_data_records_then_commit(self, db, table):
        rids = [rid for rid, _ in table.scan()]
        mark = db.wal.next_lsn
        txn = db.txns.begin()
        assert db.wal.next_lsn == mark  # a transaction begins at its first record
        table.update(rids[0], {"v": 10}, txn=txn)
        table.insert([11], txn=txn)
        table.delete(rids[1], txn=txn)
        table.update(rids[2], {"v": 12}, txn=txn)
        txn.commit()
        records = list(db.wal.scan(mark))
        assert [r.rtype for r in records] == [UPDATE, INSERT, DELETE, UPDATE, COMMIT]
        assert {r.txn_id for r in records} == {txn.txn_id}
        assert records[:-1] == txn.data_records

    def test_abort_restores_every_before_image_at_its_address(self, db):
        table = db.create_table("lazy", [("v", "int"), ("s", "string")])
        table.enable_annotations("lazy")
        rids = table.bulk_load([[i, "x" * i] for i in range(6)])
        for rid in rids:  # non-NULL annotations an update would clear
            table.set_annotations(rid, prev=Rid.BEGIN, ts=42)
        stored = {rid: table.heap.read(rid) for rid in rids}
        mark = db.wal.next_lsn
        txn = db.txns.begin()
        table.update(rids[0], {"v": -1}, txn=txn)
        table.update(rids[0], {"s": "changed twice"}, txn=txn)
        table.delete(rids[1], txn=txn)
        table.insert([77, "new"], txn=txn)
        table.update(rids[2], {"s": ""}, txn=txn)
        table.delete(rids[3], txn=txn)
        txn.abort()
        assert _types(db, mark) == [UPDATE, UPDATE, DELETE, INSERT, UPDATE, DELETE, ABORT]
        assert {rid: body for rid, body in table.heap.scan()} == stored
        assert db.locks.locked_resources() == []

    def test_only_data_commit_and_abort_records_are_written(self, db, table):
        rids = [rid for rid, _ in table.scan()]
        table.update(rids[0], {"v": 1})
        txn = db.txns.begin()
        table.delete(rids[1], txn=txn)
        with pytest.raises(LockTimeoutError):
            table.update(rids[1], {"v": 2})
        txn.abort()
        with db.txns.autocommit() as txn:
            table.insert([3], txn=txn)
        mark = db.wal.next_lsn
        db.txns.begin().commit()
        assert _types(db, mark) == [COMMIT]
        assert set(_types(db, 1)) <= {INSERT, UPDATE, DELETE, COMMIT, ABORT}
        assert [r.lsn for r in db.wal.scan()] == list(range(1, db.wal.next_lsn))

    def test_autocommit_beside_a_large_transaction_keeps_its_locks(self, db):
        table = db.create_table("big", [("v", "int")])
        rids = table.bulk_load([[i] for i in range(1001)])
        txn = db.txns.begin()
        for rid in rids[:1000]:
            table.update(rid, {"v": -1}, txn=txn)
        held = set(db.locks.locked_resources())
        assert len(held) == 1 + 1000  # table IX + its row X locks
        table.update(rids[1000], {"v": 5})
        with pytest.raises(LockTimeoutError):
            table.update(rids[0], {"v": 6})
        assert set(db.locks.locked_resources()) == held
        assert all(set(db.locks.holders(r)) == {txn.owner} for r in held)
        txn.commit()
        assert db.locks.locked_resources() == []

    def test_conflicting_insert_is_taken_back(self, db, table):
        rids = [rid for rid, _ in table.scan()]
        txn = db.txns.begin()
        table.delete(rids[2], txn=txn)
        mark = db.wal.next_lsn
        with pytest.raises(LockTimeoutError):
            table.insert([99])  # first fit picks the slot txn freed
        assert _types(db, mark) == [ABORT]
        assert not table.exists(rids[2])
        txn.abort()
        assert [row.values for _, row in table.scan()] == [(i,) for i in range(5)]

    def test_a_taken_back_insert_leaves_index_and_chain_whole(self, db):
        from repro import sanitize
        from repro.query.indexes import SecondaryIndex

        table = db.create_table("e", [("v", "int")], annotations="eager")
        rids = [table.insert([i]) for i in range(5)]
        index = SecondaryIndex(table, "v")
        txn = db.txns.begin()
        table.delete(rids[2], txn=txn)
        # The insert routine tells the index and chains the row in before
        # the lock refuses the slot: giving it back must undo both.
        with pytest.raises(LockTimeoutError):
            table.insert([99])
        index.check_consistency()
        sanitize.check_annotation_chain(table)
        txn.abort()
        index.check_consistency()
        sanitize.check_annotation_chain(table)
