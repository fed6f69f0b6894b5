"""repro — a reproduction of "A Snapshot Differential Refresh Algorithm".

Lindsay, Haas, Mohan, Pirahesh, Wilms (IBM Almaden), SIGMOD 1986.

The package implements the paper's differential snapshot refresh
algorithm end to end — annotated base tables, the fix-up pass, the
combined single-scan refresh, the snapshot-side receiver — on top of a
small real storage engine (slotted pages, heap files, buffer pool,
B+tree), together with every alternative the paper discusses (full,
ideal, ASAP, log-scan) and the analytical traffic model behind its
evaluation figures.

Quickstart::

    from repro import Database, SnapshotManager

    hq = Database("hq")
    emp = hq.create_table("emp", [("name", "string"), ("salary", "int")])
    emp.insert(["Laura", 6])

    branch = Database("branch")
    manager = SnapshotManager(hq)
    lowpaid = manager.create_snapshot(
        "lowpaid", "emp", where="salary < 10", target_db=branch
    )
    lowpaid.rows()       # [Row(('Laura', 6))]
    emp.insert(["Mohan", 9])
    lowpaid.refresh()    # ships only the change
"""

from repro.analysis.model import TrafficModel
from repro.catalog.compiler import (
    JoinSpec,
    RefreshMethod,
    RefreshPlan,
    SnapshotDefinition,
    compile_snapshot,
)
from repro.core.asap import AsapPropagator
from repro.core.costmodel import CostModel
from repro.core.cursor import RefreshResult
from repro.core.differential import DifferentialRefresher, base_refresh
from repro.core.empty_regions import EmptyRegionTable, RegionSnapshot
from repro.core.fixup import FixupResult, base_fixup
from repro.core.full import FullRefresher
from repro.core.ideal import IdealRefresher
from repro.core.logbased import LogRefresher, LogRefreshResult
from repro.core.manager import Snapshot, SnapshotManager
from repro.core.registry import SnapshotRegistry
from repro.core.scheduler import RefreshScheduler, ScheduleEntry
from repro.core.simple import SimpleBaseTable, SimpleSnapshot
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import ReproError
from repro.expr.predicate import Projection, Restriction
from repro.net.blocking import BlockingChannel
from repro.net.channel import Channel, Link
from repro.net.faults import FaultyLink
from repro.net.retry import RetryPolicy
from repro.query import run_select
from repro.query.indexes import SecondaryIndex
from repro.relation.row import Row
from repro.relation.schema import Column, Schema
from repro.sql import Session
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.table import Table
from repro.workload.generator import MixedWorkload, WorkloadMix

__version__ = "1.0.0"

__all__ = [
    "NULL",
    "AsapPropagator",
    "BlockingChannel",
    "Channel",
    "Column",
    "CostModel",
    "Database",
    "DifferentialRefresher",
    "EmptyRegionTable",
    "FaultyLink",
    "FixupResult",
    "FullRefresher",
    "IdealRefresher",
    "JoinSpec",
    "Link",
    "LogRefreshResult",
    "LogRefresher",
    "MixedWorkload",
    "Projection",
    "RefreshMethod",
    "RefreshPlan",
    "RefreshResult",
    "RefreshScheduler",
    "RetryPolicy",
    "ScheduleEntry",
    "SnapshotRegistry",
    "ReproError",
    "Restriction",
    "Rid",
    "Row",
    "Schema",
    "SecondaryIndex",
    "Session",
    "SimpleBaseTable",
    "SimpleSnapshot",
    "RegionSnapshot",
    "Snapshot",
    "SnapshotDefinition",
    "SnapshotManager",
    "SnapshotTable",
    "Table",
    "TrafficModel",
    "WorkloadMix",
    "base_fixup",
    "base_refresh",
    "compile_snapshot",
    "run_select",
]
