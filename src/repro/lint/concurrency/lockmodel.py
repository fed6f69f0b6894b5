"""The declared lock model driving the whole-program concurrency pass.

The lockset analysis (:mod:`repro.lint.concurrency.lockset`) is driven
by *explicit intent*, not guessing: this table declares every lock the
analyzer knows, which shared attribute each lock guards, which classes
are shared across threads, which classes are worker-local, and which
functions are thread-entry roots that cannot be inferred syntactically.
A disagreement between this table and the code is exactly what rules
L601/L602/L603 report.

Keeping the model in one registry (rather than scattering decorators
through the runtime modules) keeps the annotated core import-clean and
makes the whole model reviewable in one screen; the cost is that a new
shared class must be declared here before the analyzer watches it, which
``docs/invariants.md`` records as a known approximation.

Lock identity
-------------
Locks are named abstract resources:

- **Mutex locks** are matched by ``with <expr>.<attr>:`` (or a bare
  ``with <name>:`` for function-local locks) where ``(class, attr)`` —
  or the attribute name alone when it is unambiguous — appears in
  :data:`MUTEX_ATTRS`.
- **Database locks** are matched by ``.acquire(owner, resource, mode)``
  / ``.locking(owner, resource, mode)`` calls whose resource tuple
  starts with a known level name (``"table"``/``"row"``), exactly the
  shape rule L401 checks per-site.
- **Chunk hooks**: a call to a *bare, unresolvable* ``acquire()`` /
  ``release()`` (the :class:`~repro.core.differential.ScanPlan` lock hooks)
  reacquires / releases the ``table`` lock — this is what creates the
  release-between-chunks edges in the L602 acquisition graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

#: ``(class_name, attr_name) -> lock name``.  ``class_name`` ``None``
#: declares a function-local lock matched by bare variable name.
MUTEX_ATTRS: "Dict[Tuple[Optional[str], str], str]" = {
    ("BufferPool", "_mutex"): "buffer_mutex",
    ("HeapFile", "_write_mutex"): "heap_write",
    ("LogicalClock", "_tick_lock"): "clock_tick",
    ("TransactionManager", "_id_lock"): "txn_ids",
    ("WriteAheadLog", "_append_lock"): "wal_append",
    ("SnapshotRegistry", "_lock"): "registry",
    ("Restriction", "_parse_lock"): "parse_memo",
    # Function-local budget lock in SnapshotManager.drain_registry.
    (None, "counter_lock"): "drain_counter",
}

#: Database lock levels (the L401/L402 hierarchy, reused as L602 nodes).
DB_LOCK_LEVELS: "Set[str]" = {"table", "row"}

#: Locks that may be re-acquired while already held (RLock semantics,
#: or per-owner reentrancy in the database lock manager).  Self-edges
#: on these are not lock-order cycles.
REENTRANT_LOCKS: "Set[str]" = {"registry", "table", "row"}

#: Which attribute is guarded by which lock: ``class -> {attr: lock}``.
#: Inherited by subclasses (``ManualClock`` writes ``_now`` under the
#: ``LogicalClock`` tick lock).  An L601 fires when one of these
#: attributes is *mutated* on a path reachable from two thread roots
#: without its declared lock in the held set.
GUARDED_FIELDS: "Dict[str, Dict[str, str]]" = {
    "BufferPool": {
        "_frames": "buffer_mutex",
        "_batches": "buffer_mutex",
    },
    # The pool's stats object is mutated under the pool mutex; its own
    # class carries the guard so `self.stats.hits += 1` resolves.
    "BufferStats": {
        "hits": "buffer_mutex",
        "misses": "buffer_mutex",
        "evictions": "buffer_mutex",
        "writebacks": "buffer_mutex",
        "batch_hits": "buffer_mutex",
        "batch_misses": "buffer_mutex",
    },
    "HeapFile": {
        "_record_count": "heap_write",
        # The free-space hint is a *declared benign race* — every
        # unguarded write site carries a justified L601 suppression.
        "_free_hint": "heap_write",
    },
    "HeapWriteCounts": {
        "inserts": "heap_write",
        "updates": "heap_write",
        "deletes": "heap_write",
    },
    "LogicalClock": {"_now": "clock_tick"},
    "TransactionManager": {
        "_next_txn": "txn_ids",
        "active": "txn_ids",
    },
    "WriteAheadLog": {
        "_records": "wal_append",
        "_next_lsn": "wal_append",
        "_bytes": "wal_append",
        "_truncated_before": "wal_append",
    },
    "SnapshotRegistry": {
        "_bases": "registry",
        "_records": "registry",
        "_claims": "registry",
        "_next_seq": "registry",
        "_next_claim": "registry",
        "stats": "registry",
    },
    # Registry satellite records: mutated only under the registry lock.
    "RegisteredSnapshot": {
        "area_base": "registry",
        "reset_at": "registry",
        "deadline": "registry",
        "refreshes": "registry",
        "entries_shipped": "registry",
        "failed_refreshes": "registry",
        "last_failure": "registry",
        "claim_id": "registry",
    },
    "_BaseBucket": {
        "ops_total": "registry",
        "members": "registry",
        "due": "registry",
        "heap": "registry",
    },
    "CohortClaim": {
        "state": "registry",
        "expires_at": "registry",
    },
    "Restriction": {
        "_parse_cache": "parse_memo",
        "parse_cache_hits": "parse_memo",
    },
    "FleetDrainResult": {
        "claims": "drain_counter",
        "refreshed": "drain_counter",
        "cohorts": "drain_counter",
        "errors": "drain_counter",
        "worker_errors": "drain_counter",
        "per_worker": "drain_counter",
    },
}

#: Classes whose instances are shared across thread roots.  L603 flags
#: worker-local state stored into an attribute of one of these.
SHARED_CLASSES: "FrozenSet[str]" = frozenset(GUARDED_FIELDS)

#: Classes whose instances are private to the drain worker running one
#: refresh pass.  Storing one of these into a shared class (or a module
#: global) from root-reachable code is a thread escape (L603).
WORKER_LOCAL_CLASSES: "FrozenSet[str]" = frozenset(
    {"RefreshCursor", "_ScanPass", "WatermarkBracket"}
)

#: Thread-entry roots the call-site inference cannot see, declared as
#: ``(logical module path, function qualname)``: the scheduler hook is
#: registered through a ``self._listener`` indirection.
DECLARED_THREAD_ROOTS: "Set[Tuple[str, str]]" = {
    ("core/scheduler.py", "RefreshScheduler._on_commit"),
}

#: Bare zero-argument calls that manage the base-table lock through
#: the scan-plan hook seam: a call to an *unresolved* name below
#: acquires/releases the named database lock.
CHUNK_HOOKS: "Dict[str, Tuple[str, str]]" = {
    "acquire": ("acquire", "table"),
    "release": ("release", "table"),
}

#: Method names that mutate their receiver in place: a call
#: ``X.attr.<name>(...)`` counts as a mutation of ``X.attr``.
MUTATOR_METHODS: "FrozenSet[str]" = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
    }
)

#: Functions that construct the object they mutate: exempt from L601
#: (an object under construction is not yet shared).
CONSTRUCTION_EXEMPT: "FrozenSet[str]" = frozenset(
    {"__init__", "__new__", "__post_init__"}
)


def guard_for(
    class_name: "Optional[str]",
    attr: str,
    bases_of: "Dict[str, Tuple[str, ...]]",
) -> "Optional[str]":
    """The lock guarding ``class_name.attr``, walking declared bases.

    ``bases_of`` maps project class names to their base-class names so
    subclasses inherit their parents' guards (``ManualClock._now`` ->
    ``clock_tick``).  Returns ``None`` for unmodeled attributes.
    """
    seen: "Set[str]" = set()
    stack = [class_name] if class_name is not None else []
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        fields = GUARDED_FIELDS.get(name)
        if fields is not None and attr in fields:
            return fields[attr]
        stack.extend(bases_of.get(name, ()))
    return None


def mutex_lock_name(
    class_name: "Optional[str]",
    attr: str,
    bases_of: "Dict[str, Tuple[str, ...]]",
) -> "Optional[str]":
    """Resolve a ``with <obj>.<attr>:`` item to a declared mutex lock.

    Prefers an exact ``(class, attr)`` match (walking base classes);
    falls back to the attribute name alone when exactly one declared
    lock uses it, so untyped call sites still resolve.
    """
    seen: "Set[str]" = set()
    stack = [class_name] if class_name is not None else []
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        lock = MUTEX_ATTRS.get((name, attr))
        if lock is not None:
            return lock
        stack.extend(bases_of.get(name, ()))
    matches = {
        lock
        for (owner, attr_name), lock in MUTEX_ATTRS.items()
        if attr_name == attr
    }
    if len(matches) == 1:
        return next(iter(matches))
    return None


def local_lock_name(name: str) -> "Optional[str]":
    """Resolve a bare ``with <name>:`` to a declared function-local lock."""
    return MUTEX_ATTRS.get((None, name))
