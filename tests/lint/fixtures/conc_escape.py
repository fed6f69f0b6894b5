"""Seeded L603: a drain worker's cursor escapes to the shared registry.

Publication happens *under the registry lock*, so no L601 fires — the
escape is the defect: another root can observe the worker's private
cursor while its pass is still running.  ``solo`` builds the same
cursor on a main-only path and is clean.
"""

import threading
from concurrent.futures import ThreadPoolExecutor


class RefreshCursor:
    def __init__(self, claim_no: int) -> None:
        self.claim_no = claim_no
        self.rows = []


class SnapshotRegistry:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims = {}


def drain_worker(registry: SnapshotRegistry, claim_no: int) -> list:
    cursor = RefreshCursor(claim_no)
    with registry._lock:
        registry._claims[claim_no] = cursor  # line 28: L603
    return cursor.rows


def solo(registry: SnapshotRegistry, claim_no: int) -> "RefreshCursor":
    cursor = RefreshCursor(claim_no)
    return cursor


def run(registry: SnapshotRegistry) -> None:
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(drain_worker, registry, 0)
    solo(registry, 1)
