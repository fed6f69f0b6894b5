"""Cohort clustering: which due snapshots should share one scan pass.

The paper's economy is one sequential base-table pass amortized over
every snapshot that needs it.  The group-refresh path (PR 3) realizes
that for an explicit list of snapshots; this module decides the *list*
when the fleet is large: due snapshots cluster into **cohorts** — same
base table, same canonical restriction signature (structure with
constants masked, see ``Restriction.signature``), adjacent staleness
band — so each cohort rides one ``run_refresh_scan`` pass with a tight
shared decode footprint, and a drain takes whole cohorts one at a time
(``SnapshotRegistry.next_cohort``).

Clustering is pure data-structure work over ``DueEntry`` value objects:
this module knows nothing about the manager or the scheduler (enforced
by replint L404) — a cohort is fully described by its key and member names, so nothing else
can leak into the pass that serves it.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple


class DueEntry(NamedTuple):
    """One due snapshot, as the clustering pass sees it."""

    name: str
    base_table: str
    #: Canonical '?'-masked restriction signature (``Restriction.signature``).
    signature: str
    #: Sorted referenced column names (compatibility fallback for merging).
    columns: Tuple[str, ...]
    #: Ops accumulated since the last refresh (drives the staleness band).
    pending: int
    #: Registration sequence number (deterministic tie-break).
    seq: int


class CohortKey(NamedTuple):
    """Identity of a cohort: one base table, one signature class, one band."""

    base_table: str
    signature: str
    band: int


class Cohort(NamedTuple):
    """A set of due snapshots that one scan pass will serve."""

    key: CohortKey
    members: Tuple[str, ...]
    #: Staleness bands actually spanned (>= key.band, adjacency-bounded).
    bands: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def staleness_band(pending: int) -> int:
    """Logarithmic staleness band: 0, 1, 2, ... for pending 0, 1, 2-3, 4-7...

    Bands are powers of two so "adjacent band" means "within 2x the
    staleness" — snapshots whose SnapTimes are that close skip and decode
    nearly the same pages, which is what makes sharing a pass cheap.
    """
    if pending <= 0:
        return 0
    return int(pending).bit_length()


def cluster_due(
    entries: Iterable[DueEntry],
    max_size: int = 64,
    min_fill: Optional[int] = None,
) -> List[Cohort]:
    """Cluster due entries into shared-scan cohorts.

    Three-step, deterministic:

    1. Partition by ``(base_table, signature)`` — the canonical predicate
       structure, so constants may differ but shape may not.
    2. Within a partition, order by (staleness band, seq) and cut greedy
       chunks of at most ``max_size``; a chunk also closes when the next
       entry's band is more than one away from the chunk's first band
       (the "adjacent staleness band" rule — a months-stale snapshot
       would drag a fresh one through full-history decode).
    3. Merge pass: underfilled cohorts (< ``min_fill`` members, default
       ``max(2, max_size // 4)``) of the same base table whose column
       footprints are identical and whose bands are adjacent merge, so a
       base with many singleton predicates over the same columns still
       shares passes.  Merged cohorts keep the lexically-least signature
       in their key.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    fill = max(2, max_size // 4) if min_fill is None else min_fill

    partitions: "dict[tuple[str, str], list[DueEntry]]" = {}
    for entry in entries:
        partitions.setdefault((entry.base_table, entry.signature), []).append(entry)

    cohorts: List[Cohort] = []
    for (base, signature), members in sorted(partitions.items()):
        members.sort(key=lambda e: (staleness_band(e.pending), e.seq))
        chunk: List[DueEntry] = []
        chunk_band = 0
        for entry in members:
            band = staleness_band(entry.pending)
            if chunk and (len(chunk) >= max_size or band - chunk_band > 1):
                cohorts.append(_seal(base, signature, chunk))
                chunk = []
            if not chunk:
                chunk_band = band
            chunk.append(entry)
        if chunk:
            cohorts.append(_seal(base, signature, chunk))

    return _merge_underfilled(cohorts, partitions, max_size, fill)


def _seal(base: str, signature: str, chunk: List[DueEntry]) -> Cohort:
    bands = tuple(sorted({staleness_band(e.pending) for e in chunk}))
    key = CohortKey(base, signature, bands[0])
    return Cohort(key, tuple(e.name for e in chunk), bands)


def _merge_underfilled(
    cohorts: List[Cohort],
    partitions: "dict[tuple[str, str], list[DueEntry]]",
    max_size: int,
    min_fill: int,
) -> List[Cohort]:
    """Merge small same-base cohorts with identical column footprints."""
    footprints: "dict[str, tuple[str, ...]]" = {}
    for (base, signature), members in partitions.items():
        for entry in members:
            footprints[entry.name] = entry.columns

    def footprint(cohort: Cohort) -> Tuple[str, ...]:
        return footprints[cohort.members[0]]

    merged: List[Cohort] = []
    # Group merge candidates by (base, column footprint).
    buckets: "dict[tuple[str, tuple[str, ...]], list[Cohort]]" = {}
    for cohort in cohorts:
        if len(cohort) < min_fill:
            buckets.setdefault(
                (cohort.key.base_table, footprint(cohort)), []
            ).append(cohort)
        else:
            merged.append(cohort)

    for (base, _cols), small in sorted(buckets.items()):
        small.sort(key=lambda c: (c.key.band, c.key.signature))
        acc: Optional[Cohort] = None
        for cohort in small:
            if (
                acc is not None
                and len(acc) + len(cohort) <= max_size
                and cohort.key.band - acc.bands[-1] <= 1
            ):
                key = CohortKey(
                    base,
                    min(acc.key.signature, cohort.key.signature),
                    min(acc.key.band, cohort.key.band),
                )
                acc = Cohort(
                    key,
                    acc.members + cohort.members,
                    tuple(sorted(set(acc.bands) | set(cohort.bands))),
                )
            else:
                if acc is not None:
                    merged.append(acc)
                acc = cohort
        if acc is not None:
            merged.append(acc)

    merged.sort(key=lambda c: c.key)
    return merged
