"""Lock manager: compatibility matrix, upgrades, bulk release."""

import pytest

from repro.errors import LockTimeoutError, TransactionError
from repro.txn.locks import LockManager, LockMode, supremum


@pytest.fixture
def locks():
    return LockManager()


TABLE = ("table", "emp")


class TestCompatibility:
    def test_shared_locks_coexist(self, locks):
        locks.acquire("a", TABLE, LockMode.S)
        locks.acquire("b", TABLE, LockMode.S)
        assert set(locks.holders(TABLE)) == {"a", "b"}

    def test_intent_locks_coexist(self, locks):
        locks.acquire("a", TABLE, LockMode.IX)
        locks.acquire("b", TABLE, LockMode.IX)
        locks.acquire("c", TABLE, LockMode.IS)

    def test_x_excludes_everything(self, locks):
        locks.acquire("a", TABLE, LockMode.X)
        for mode in LockMode:
            with pytest.raises(LockTimeoutError):
                locks.acquire("b", TABLE, mode)

    def test_refresh_blocked_by_active_writer(self, locks):
        # A transaction holds IX (it is updating rows); refresh needs X.
        locks.acquire(("txn", 1), TABLE, LockMode.IX)
        with pytest.raises(LockTimeoutError):
            locks.acquire(("refresh", "snap"), TABLE, LockMode.X)

    def test_six_allows_only_is(self, locks):
        locks.acquire("a", TABLE, LockMode.SIX)
        locks.acquire("b", TABLE, LockMode.IS)
        with pytest.raises(LockTimeoutError):
            locks.acquire("c", TABLE, LockMode.IX)
        with pytest.raises(LockTimeoutError):
            locks.acquire("d", TABLE, LockMode.S)


class TestReentrancyAndUpgrade:
    def test_reentrant_same_mode(self, locks):
        locks.acquire("a", TABLE, LockMode.S)
        locks.acquire("a", TABLE, LockMode.S)
        assert locks.mode_held("a", TABLE) == LockMode.S

    def test_upgrade_s_to_x_alone(self, locks):
        locks.acquire("a", TABLE, LockMode.S)
        locks.acquire("a", TABLE, LockMode.X)
        assert locks.mode_held("a", TABLE) == LockMode.X

    def test_upgrade_blocked_by_other_holder(self, locks):
        locks.acquire("a", TABLE, LockMode.S)
        locks.acquire("b", TABLE, LockMode.S)
        with pytest.raises(LockTimeoutError):
            locks.acquire("a", TABLE, LockMode.X)

    def test_ix_plus_s_is_six(self, locks):
        locks.acquire("a", TABLE, LockMode.IX)
        locks.acquire("a", TABLE, LockMode.S)
        assert locks.mode_held("a", TABLE) == LockMode.SIX

    def test_supremum_table(self):
        assert supremum(LockMode.IS, LockMode.IX) == LockMode.IX
        assert supremum(LockMode.IX, LockMode.S) == LockMode.SIX
        assert supremum(LockMode.S, LockMode.S) == LockMode.S
        assert supremum(LockMode.SIX, LockMode.X) == LockMode.X


class TestRelease:
    def test_release(self, locks):
        locks.acquire("a", TABLE, LockMode.S)
        locks.release("a", TABLE)
        assert locks.mode_held("a", TABLE) is None
        locks.acquire("b", TABLE, LockMode.X)

    def test_release_unheld_raises(self, locks):
        with pytest.raises(TransactionError):
            locks.release("a", TABLE)

    def test_release_all(self, locks):
        locks.acquire("a", TABLE, LockMode.IX)
        locks.acquire("a", ("row", "emp", 1), LockMode.X)
        locks.acquire("a", ("row", "emp", 2), LockMode.X)
        assert locks.release_all("a") == 3
        assert locks.locked_resources() == []

    def test_release_all_visits_only_the_owners_locks(self, locks):
        locks.acquire("a", TABLE, LockMode.IX)
        locks.acquire("b", TABLE, LockMode.IX)
        locks.acquire("a", ("row", "emp", 1), LockMode.X)
        locks.acquire("a", ("row", "emp", 1), LockMode.X)  # reentrant
        locks.acquire("b", ("row", "emp", 2), LockMode.X)
        locks.acquire("a", ("table", "dept"), LockMode.S)
        locks.acquire("a", ("table", "dept"), LockMode.X)  # upgrade
        for row in range(3, 50):
            locks.acquire("c", ("row", "emp", row), LockMode.X)

        class NoWalk(dict):
            def __iter__(self):
                raise AssertionError("release_all walked the lock table")

            def keys(self):
                raise AssertionError("release_all walked the lock table")

        locks._locks = NoWalk(locks._locks)
        assert locks.release_all("a") == 3
        assert locks.release_all("a") == 0
        locks._locks = dict(dict.items(locks._locks))
        assert locks.holders(TABLE) == {"b": LockMode.IX}
        assert locks.mode_held("a", ("row", "emp", 1)) is None
        assert ("table", "dept") not in locks.locked_resources()
        assert len(locks.locked_resources()) == 2 + 47
        with pytest.raises(TransactionError):
            locks.release("a", ("row", "emp", 2))
        with pytest.raises(TransactionError):
            locks.release("a", TABLE)
        locks.release("b", ("row", "emp", 2))
        assert locks.release_all("b") == 1
        assert locks.release_all("c") == 47
        assert locks.locked_resources() == []

    def test_locking_context_manager(self, locks):
        with locks.locking("a", TABLE, LockMode.X):
            assert locks.mode_held("a", TABLE) == LockMode.X
        assert locks.mode_held("a", TABLE) is None

    def test_locking_releases_on_error(self, locks):
        with pytest.raises(RuntimeError):
            with locks.locking("a", TABLE, LockMode.X):
                raise RuntimeError("boom")
        assert locks.mode_held("a", TABLE) is None
