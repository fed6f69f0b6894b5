"""A hierarchical lock manager (IS/IX/S/SIX/X) for tables and rows.

The refresh algorithms need "a table level lock on the base table during
the fix up (and refresh) procedures" so the scan sees a transaction-
consistent state.  Normal base-table operations take intent locks on the
table plus exclusive locks on individual rows, so concurrent updaters
don't conflict with each other but *do* conflict with a refresh in
progress.

The library is single-process, so instead of blocking, an incompatible
request raises :class:`~repro.errors.LockTimeoutError` immediately unless
the conflicting holder is the requester itself (locks are reentrant and
upgradeable per owner).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Hashable, Optional

from repro.errors import LockTimeoutError, TransactionError


class LockMode(enum.IntEnum):
    """Standard granular lock modes."""

    IS = 0
    IX = 1
    S = 2
    SIX = 3
    X = 4


# compatibility[a][b]: can a new request in mode b coexist with held mode a?
_COMPAT = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.SIX: {LockMode.IS},
    LockMode.X: set(),
}

# Lock conversion lattice: the weakest mode covering both.
_SUPREMUM = {
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.SIX): LockMode.SIX,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.S): LockMode.SIX,
    (LockMode.IX, LockMode.SIX): LockMode.SIX,
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.SIX): LockMode.SIX,
    (LockMode.S, LockMode.X): LockMode.X,
    (LockMode.SIX, LockMode.X): LockMode.X,
}


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """The least mode at least as strong as both ``a`` and ``b``."""
    if a == b:
        return a
    return _SUPREMUM.get((min(a, b), max(a, b)), max(a, b))


class LockManager:
    """Grants, upgrades, and releases locks keyed by arbitrary resources.

    Resources are hashable names; by convention tables lock under
    ``("table", name)`` and rows under ``("row", name, rid)``.  The
    manager does not enforce the hierarchy itself — the table layer
    acquires intent locks before row locks — but it does validate
    compatibility and supports per-owner reentrancy and upgrades.
    An ``owner → [resources]`` index lets :meth:`release_all` visit only
    the owner's own locks, however many others hold.
    """

    def __init__(self) -> None:
        self._locks: "dict[Hashable, dict[Hashable, LockMode]]" = {}
        self._owned: "defaultdict[Hashable, list[Hashable]]" = defaultdict(list)

    def acquire(self, owner: Hashable, resource: Hashable, mode: LockMode) -> None:
        """Grant ``mode`` on ``resource`` to ``owner`` or raise.

        A held weaker lock is upgraded when the upgrade is compatible
        with the other holders; an incompatible request raises
        :class:`LockTimeoutError` (this library never queues waiters).
        """
        holders = self._locks.get(resource)
        if holders is None:
            self._locks[resource] = {owner: mode}
        else:
            held = holders.get(owner)
            wanted = mode if held is None else supremum(held, mode)
            for other, other_mode in holders.items():
                if other != owner and wanted not in _COMPAT[other_mode]:
                    raise LockTimeoutError(
                        f"{owner!r} cannot lock {resource!r} in {wanted.name}: "
                        f"held in {other_mode.name} by {other!r}"
                    )
            holders[owner] = wanted
            if held is not None:
                return
        self._owned[owner].append(resource)

    def release(self, owner: Hashable, resource: Hashable) -> None:
        """Release ``owner``'s lock on ``resource``."""
        holders = self._locks.get(resource)
        if holders is None or owner not in holders:
            raise TransactionError(
                f"{owner!r} does not hold a lock on {resource!r}"
            )
        del holders[owner]
        if not holders:
            del self._locks[resource]
        owned = self._owned[owner]
        owned.remove(resource)
        if not owned:
            del self._owned[owner]

    def release_all(self, owner: Hashable) -> int:
        """Release every lock held by ``owner``; return how many."""
        owned = self._owned.pop(owner, ())
        locks = self._locks
        for resource in owned:
            # One lookup where the owner held it alone, the common case.
            holders = locks.pop(resource)
            del holders[owner]
            if holders:
                locks[resource] = holders
        return len(owned)

    def mode_held(self, owner: Hashable, resource: Hashable) -> Optional[LockMode]:
        holders = self._locks.get(resource)
        return None if holders is None else holders.get(owner)

    def holders(self, resource: Hashable) -> "dict[Hashable, LockMode]":
        return dict(self._locks.get(resource, {}))

    def locked_resources(self) -> "list[Hashable]":
        return list(self._locks)

    class _Guard:
        def __init__(self, manager: "LockManager", owner: Hashable, resource: Hashable):
            self._manager = manager
            self._owner = owner
            self._resource = resource

        def __enter__(self) -> None:
            return None

        def __exit__(self, *exc: object) -> None:
            self._manager.release(self._owner, self._resource)

    def locking(
        self, owner: Hashable, resource: Hashable, mode: LockMode
    ) -> "LockManager._Guard":
        """Context manager: acquire now, release on exit."""
        self.acquire(owner, resource, mode)
        return LockManager._Guard(self, owner, resource)
