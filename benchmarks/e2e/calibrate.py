"""A reference loop that tells how fast this machine is right now.

The sandbox the benchmark runs on changes speed by up to 1.6x for
minutes at a time (host contention; no steal time is reported).  Raw
wall-clock medians of one commit then differ by 40-50% between two
sets of runs, which no regression bound survives.  The system under
test is pure Python, and a pure-Python loop of the same kind of work
(dict stores, struct packing, byte slices) slows down with it: over 20
minutes of natural noise the per-minute median of a refresh ranged
1.65x raw and 1.15x after dividing by this loop's time.

Every timed region is therefore bracketed by two calls of
:func:`speed`, and its duration is divided by their mean: timing
metrics are in seconds *at the reference speed*, the speed at which the
loop takes :data:`REFERENCE_SECONDS`.  The loop is the benchmark's own
code and never changes with the system under test, so a regression
still shows in full; only noise common to both is removed.
"""

from __future__ import annotations

import struct
from time import perf_counter

_PACK = struct.Struct("<iIq")
_ITERATIONS = 6000
#: What the loop takes on the reference sandbox in a quiet minute, so
#: that normalised and raw times agree there.
REFERENCE_SECONDS = 0.0036


def speed() -> float:
    """Slowdown against the reference: 1.0 is reference speed, 1.5 is slow."""
    start = perf_counter()
    table: "dict[int, tuple[int, int]]" = {}
    buffer = bytearray(64)
    for i in range(_ITERATIONS):
        table[i & 255] = (i, i * 3)
        _PACK.pack_into(buffer, 0, i & 0xFFFF, i, i * 7)
        _PACK.unpack_from(buffer, 0)
        bytes(buffer[:16])
    return (perf_counter() - start) / REFERENCE_SECONDS
