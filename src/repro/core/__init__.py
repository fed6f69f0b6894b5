"""The paper's contribution: snapshot refresh algorithms.

Stage-by-stage, as the paper develops them:

- :mod:`~repro.core.simple` — dense address space, per-address
  timestamps (Figures 1–2);
- :mod:`~repro.core.empty_regions` — explicit empty-region summaries;
- :mod:`~repro.core.eager` — ``PrevAddr`` maintained eagerly, a hook
  on the base table's writes;
- :mod:`~repro.core.refresh` — ``BaseRefresh`` (Figure 3) over
  PrevAddr-annotated tables, and the snapshot receiver (Figure 4) lives
  in :mod:`~repro.core.snapshot`;
- :mod:`~repro.core.fixup` — ``BaseFixup`` (Figure 7) batch repair;
- :mod:`~repro.core.differential` — the production algorithm: combined
  fix-up + refresh in one scan;
- :mod:`~repro.core.group` — shared-scan group refresh: one pass serves
  every pending snapshot of a base table; its address mirror takes the
  paper's invited improvements (:mod:`~repro.core.cursor`).

Baselines and alternatives: :mod:`~repro.core.full`,
:mod:`~repro.core.ideal`, :mod:`~repro.core.asap`,
:mod:`~repro.core.logbased`.  Method selection:
:mod:`~repro.core.costmodel`.  Orchestration (CREATE/REFRESH/DROP
SNAPSHOT): :mod:`~repro.core.manager`.
"""

from repro.core.cursor import RefreshCursor, RefreshResult
from repro.core.differential import DifferentialRefresher
from repro.core.full import FullRefresher
from repro.core.group import GroupRefresher, GroupRefreshResult
from repro.core.ideal import IdealRefresher
from repro.core.manager import Snapshot, SnapshotManager
from repro.core.messages import (
    ClearMessage,
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    FullRowMessage,
    SnapTimeMessage,
    UpsertMessage,
)
from repro.core.cohort import Cohort, CohortKey, cluster_due, staleness_band
from repro.core.registry import RegisteredSnapshot, SnapshotRegistry
from repro.core.snapshot import SnapshotTable

__all__ = [
    "ClearMessage",
    "Cohort",
    "CohortKey",
    "DeleteMessage",
    "DeleteRangeMessage",
    "DifferentialRefresher",
    "EndOfScanMessage",
    "EntryMessage",
    "FullRefresher",
    "FullRowMessage",
    "GroupRefresher",
    "GroupRefreshResult",
    "IdealRefresher",
    "RefreshCursor",
    "RefreshResult",
    "RegisteredSnapshot",
    "Snapshot",
    "SnapshotManager",
    "SnapshotRegistry",
    "SnapshotTable",
    "SnapTimeMessage",
    "UpsertMessage",
    "cluster_due",
    "staleness_band",
]
