"""Traffic measurement helpers for benchmarks and tests.

The paper reports "the number of messages, as a percentage of the base
table size".  These helpers turn :class:`~repro.net.channel.TrafficStats`
and :class:`~repro.core.cursor.RefreshResult` objects into that
metric, and compute the superfluous-message ratio used in the analysis
discussion.
"""

from __future__ import annotations

from typing import Any


def percent_of_base(entries_sent: int, base_size: int) -> float:
    """Entry messages as a percentage of the base table size."""
    if base_size <= 0:
        return 0.0
    return 100.0 * entries_sent / base_size


def superfluous_ratio(differential_entries: int, ideal_entries: int) -> float:
    """Fraction of differential traffic the ideal algorithm avoids."""
    if differential_entries <= 0:
        return 0.0
    return max(0.0, (differential_entries - ideal_entries) / differential_entries)


def entry_messages(stats: Any) -> int:
    """Count entry-class messages in a TrafficStats by-type breakdown.

    Control messages (SnapTime, EndOfScan, Clear) are excluded, matching
    :attr:`RefreshMessage.counts_as_entry`.
    """
    control = {"SnapTimeMessage", "EndOfScanMessage", "ClearMessage"}
    return sum(
        count for name, count in stats.by_type.items() if name not in control
    )
