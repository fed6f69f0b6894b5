"""Refresh epochs: atomic commit, rollback, idempotence at the receiver."""

import pytest

from repro.core import messages as msg
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import EpochError, SnapshotError
from repro.relation.schema import Schema
from repro.storage.rid import Rid


@pytest.fixture
def snapshot():
    return SnapshotTable(Database("remote"), "s", Schema.of(("v", "int")))


def upsert(i, value):
    return msg.UpsertMessage(Rid(0, i), (value,), 8)


class TestEpochCommit:
    def test_staged_messages_invisible_until_commit(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(7))
        snapshot.apply(upsert(0, 10))
        snapshot.apply(upsert(1, 20))
        assert len(snapshot) == 0  # nothing applied yet
        assert snapshot.staged_messages == 2
        snapshot.apply(msg.RefreshCommitMessage(7, 2))
        assert len(snapshot) == 2
        assert snapshot.committed_epochs == 1
        assert snapshot.last_committed_epoch == 7
        assert not snapshot.epoch_open

    def test_snap_time_is_epoch_guarded(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(msg.SnapTimeMessage(9))
        assert snapshot.snap_time == 0  # staged, not adopted
        snapshot.apply(msg.RefreshCommitMessage(1, 1))
        assert snapshot.snap_time == 9

    def test_out_of_order_snap_time_detected_at_commit(self, snapshot):
        snapshot.snap_time = 50
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(msg.SnapTimeMessage(9))
        with pytest.raises(SnapshotError):
            snapshot.apply(msg.RefreshCommitMessage(1, 1))


def image(snapshot):
    return list(snapshot.storage.heap.scan())


class TestNoTornCommit:
    """What the stage alone decides is checked before the first write."""

    @pytest.fixture
    def committed(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(upsert(0, 10))
        snapshot.apply(upsert(1, 11))
        snapshot.apply(msg.SnapTimeMessage(50))
        snapshot.apply(msg.RefreshCommitMessage(1, 3))
        return snapshot

    def assert_epoch_one_still_visible(self, snapshot, before):
        assert image(snapshot) == before
        assert snapshot.as_map() == {Rid(0, 0): (10,), Rid(0, 1): (11,)}
        assert snapshot.snap_time == 50
        assert snapshot.last_committed_epoch == 1
        assert snapshot.aborted_epochs == 1
        assert not snapshot.epoch_open

    def test_backward_snap_time_sent_last(self, committed):
        before = image(committed)
        committed.apply(msg.RefreshBeginMessage(2))
        committed.apply(upsert(0, 99))
        committed.apply(msg.DeleteMessage(Rid(0, 1)))
        committed.apply(msg.SnapTimeMessage(9))
        with pytest.raises(SnapshotError, match="backward"):
            committed.apply(msg.RefreshCommitMessage(2, 3))
        self.assert_epoch_one_still_visible(committed, before)

    def test_unknown_kind_in_the_stage(self, committed):
        before = image(committed)
        committed.apply(msg.RefreshBeginMessage(2))
        committed.apply(upsert(0, 99))
        committed.apply(msg.SegmentHashRequestMessage(0, 1))
        with pytest.raises(SnapshotError, match="unknown"):
            committed.apply(msg.RefreshCommitMessage(2, 2))
        self.assert_epoch_one_still_visible(committed, before)

    def test_count_mismatch(self, committed):
        before = image(committed)
        committed.apply(msg.RefreshBeginMessage(2))
        committed.apply(upsert(0, 99))
        with pytest.raises(EpochError):
            committed.apply(msg.RefreshCommitMessage(2, 2))
        self.assert_epoch_one_still_visible(committed, before)

    def test_explicit_abort(self, committed):
        before = image(committed)
        committed.apply(msg.RefreshBeginMessage(2))
        committed.apply(msg.ClearMessage())
        assert committed.abort_epoch()
        self.assert_epoch_one_still_visible(committed, before)

    def test_retry_after_a_failed_validation_commits(self, committed):
        committed.apply(msg.RefreshBeginMessage(2))
        committed.apply(msg.SnapTimeMessage(9))
        with pytest.raises(SnapshotError):
            committed.apply(msg.RefreshCommitMessage(2, 1))
        committed.apply(msg.RefreshBeginMessage(3))
        committed.apply(upsert(0, 99))
        committed.apply(msg.SnapTimeMessage(60))
        committed.apply(msg.RefreshCommitMessage(3, 2))
        assert committed.as_map() == {Rid(0, 0): (99,), Rid(0, 1): (11,)}
        assert (committed.snap_time, committed.last_committed_epoch) == (60, 3)


class TestEpochAbort:
    def test_new_begin_discards_torn_stream(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(upsert(0, 10))
        # The link died; the retry opens its own epoch.
        snapshot.apply(msg.RefreshBeginMessage(2))
        snapshot.apply(upsert(0, 11))
        snapshot.apply(msg.RefreshCommitMessage(2, 1))
        assert snapshot.aborted_epochs == 1
        assert snapshot.as_map() == {Rid(0, 0): (11,)}

    def test_explicit_abort(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(upsert(0, 10))
        assert snapshot.abort_epoch()
        assert len(snapshot) == 0
        assert snapshot.aborted_epochs == 1
        assert not snapshot.abort_epoch()  # idempotent, nothing open

    def test_commit_count_mismatch_rolls_back(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(upsert(0, 10))
        # The lossy link swallowed one message: sender counted 2.
        with pytest.raises(EpochError):
            snapshot.apply(msg.RefreshCommitMessage(1, 2))
        assert len(snapshot) == 0
        assert snapshot.aborted_epochs == 1
        assert snapshot.last_committed_epoch == 0

    def test_commit_for_wrong_epoch_rolls_back(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(1))
        snapshot.apply(upsert(0, 10))
        with pytest.raises(EpochError):
            snapshot.apply(msg.RefreshCommitMessage(99, 1))
        assert len(snapshot) == 0

    def test_commit_with_no_epoch_open(self, snapshot):
        with pytest.raises(EpochError):
            snapshot.apply(msg.RefreshCommitMessage(3, 0))


class TestIdempotence:
    def test_duplicate_begin_is_a_no_op(self, snapshot):
        begin = msg.RefreshBeginMessage(5)
        snapshot.apply(begin)
        snapshot.apply(upsert(0, 10))
        snapshot.apply(begin)  # duplicate delivery must not reset stage
        assert snapshot.staged_messages == 1
        snapshot.apply(msg.RefreshCommitMessage(5, 1))
        assert len(snapshot) == 1

    def test_duplicate_staged_message_deduped(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(5))
        message = upsert(0, 10)
        snapshot.apply(message)
        snapshot.apply(message)  # faulty link delivered it twice
        assert snapshot.staged_messages == 1
        snapshot.apply(msg.RefreshCommitMessage(5, 1))
        assert snapshot.as_map() == {Rid(0, 0): (10,)}

    def test_duplicate_commit_is_a_no_op(self, snapshot):
        snapshot.apply(msg.RefreshBeginMessage(5))
        snapshot.apply(upsert(0, 10))
        commit = msg.RefreshCommitMessage(5, 1)
        snapshot.apply(commit)
        snapshot.apply(commit)  # redelivered after the epoch closed
        assert snapshot.committed_epochs == 1
        assert len(snapshot) == 1


class TestEpochModes:
    def test_legacy_receivers_apply_immediately(self, snapshot):
        # Standalone receivers (ASAP push, direct refresher use) still
        # work without any epoch protocol.
        snapshot.apply(upsert(0, 10))
        assert len(snapshot) == 1

    def test_require_epochs_rejects_naked_data(self):
        strict = SnapshotTable(
            Database("remote"), "s", Schema.of(("v", "int")),
            require_epochs=True,
        )
        # The RefreshBegin was dropped by the link: the stream must fail
        # loudly instead of tearing the snapshot message by message.
        with pytest.raises(EpochError):
            strict.apply(upsert(0, 10))
        assert len(strict) == 0
