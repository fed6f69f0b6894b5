"""Write-ahead log: append, scan, truncate, cull."""

import pytest

from repro.errors import LogTruncatedError, WalError
from repro.storage.rid import Rid
from repro.txn.wal import LogRecordType, WriteAheadLog


@pytest.fixture
def wal():
    return WriteAheadLog()


def _txn_ops(wal, txn_id, table, count):
    # The shape TransactionManager writes: data records, then COMMIT.
    for i in range(count):
        wal.append(
            txn_id,
            LogRecordType.UPDATE,
            table=table,
            rid=Rid(0, i),
            before=b"old",
            after=b"new",
        )
    wal.append(txn_id, LogRecordType.COMMIT)


class TestAppendScan:
    def test_lsns_monotone(self, wal):
        records = [wal.append(1, LogRecordType.COMMIT) for _ in range(5)]
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert wal.next_lsn == 6

    def test_scan_from(self, wal):
        _txn_ops(wal, 1, "emp", 3)
        assert [r.lsn for r in wal.scan(3)] == [3, 4]

    def test_size_accounting(self, wal):
        record = wal.append(
            1, LogRecordType.INSERT, table="emp", rid=Rid(0, 0), after=b"12345"
        )
        assert record.encoded_size() > 5
        assert wal.size_bytes == sum(r.encoded_size() for r in wal.scan())

    def test_is_data(self, wal):
        insert = wal.append(1, LogRecordType.INSERT, table="t", rid=Rid(0, 0))
        commit = wal.append(1, LogRecordType.COMMIT)
        assert not commit.is_data()
        assert insert.is_data()


class TestTruncation:
    def test_truncate_before(self, wal):
        _txn_ops(wal, 1, "emp", 3)
        dropped = wal.truncate_before(4)
        assert dropped == 3
        assert wal.truncated_before == 4
        assert [r.lsn for r in wal.scan(4)] == [4]

    def test_scan_into_truncated_raises(self, wal):
        _txn_ops(wal, 1, "emp", 3)
        wal.truncate_before(4)
        with pytest.raises(LogTruncatedError):
            list(wal.scan(2))

    def test_truncate_past_head_rejected(self, wal):
        with pytest.raises(WalError):
            wal.truncate_before(10)

    def test_capacity_auto_truncates(self):
        wal = WriteAheadLog(capacity_bytes=200)
        for i in range(50):
            wal.append(
                1, LogRecordType.UPDATE, table="t", rid=Rid(0, i),
                before=b"x" * 10, after=b"y" * 10,
            )
        assert wal.size_bytes <= 200
        assert wal.truncated_before > 1


class TestCull:
    def test_cull_filters_table_and_commit(self, wal):
        _txn_ops(wal, 1, "emp", 2)       # committed, emp
        _txn_ops(wal, 2, "dept", 2)      # committed, other table
        wal.append(
            3, LogRecordType.UPDATE, table="emp", rid=Rid(0, 9), after=b"z"
        )
        wal.append(3, LogRecordType.ABORT)  # aborted: must be excluded
        relevant, scanned = wal.cull("emp", from_lsn=1)
        assert scanned == len(wal)
        assert [r.rid for r in relevant] == [Rid(0, 0), Rid(0, 1)]

    def test_cull_from_midpoint(self, wal):
        _txn_ops(wal, 1, "emp", 2)
        midpoint = wal.next_lsn
        _txn_ops(wal, 2, "emp", 2)
        relevant, scanned = wal.cull("emp", from_lsn=midpoint)
        assert len(relevant) == 2
        assert scanned == 3  # 2 updates + COMMIT

    def test_committed_txns(self, wal):
        _txn_ops(wal, 7, "emp", 1)
        wal.append(8, LogRecordType.INSERT, table="emp", rid=Rid(0, 5))
        assert wal.committed_txns() == {7}
