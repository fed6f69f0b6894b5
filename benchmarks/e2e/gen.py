"""Seeded operation generator: uniform, hotspot and churn mixes.

The generator never sees the system under test.  It works in *keys*
(the ``id`` column) and hands the driver plain :class:`Op` tuples; the
driver owns the key -> record-address map and the system sees only
``Table.insert/update/delete`` calls.  The same seed always yields the
same initial rows and the same op stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, NamedTuple

#: The accounts-style row every workload uses.  ``name`` is fixed-width
#: and the rest are 8-byte ints, so an update never outgrows its page.
COLUMNS = (
    ("id", "int"),
    ("name", "string"),
    ("balance", "int"),
    ("branch", "int"),
    ("v", "int"),
)
#: ``branch`` is uniform on ``[0, BRANCHES)``; a snapshot restricted to
#: ``branch < k`` therefore has selectivity ``k / BRANCHES``.
BRANCHES = 100
BRANCH_POSITION = 3
#: Share of updates that also redraw ``branch``, moving the row into or
#: out of snapshots (the rest change only ``balance`` and ``v``).
REQUALIFY_SHARE = 0.2

INSERT, UPDATE, DELETE = "insert", "update", "delete"


class Op(NamedTuple):
    kind: str
    key: int
    #: insert: the row values; update: ``{column: value}``; delete: None.
    payload: Any


@dataclass(frozen=True)
class Mix:
    """Shares of each op kind, and where updates land.

    ``hot_share`` of the updates go to the first ``hot_rows`` share of
    the live list.  The live list starts in load (= address) order and
    only deletes reorder it, so in a mix without deletes the hot set is
    the lowest-address rows.
    """

    insert: float
    update: float
    delete: float
    hot_share: float = 0.0
    hot_rows: float = 0.0


class OpGenerator:
    """Deterministic op stream over a tracked set of live keys."""

    def __init__(self, seed: int, rows: int, mix: Mix) -> None:
        self._rng = random.Random(seed)
        self._mix = mix
        self._rows = rows
        self._live = list(range(rows))
        self._next_key = rows
        self._hot = max(1, int(rows * mix.hot_rows))

    def _row(self, key: int) -> "list[Any]":
        # A new row's branch is a fixed permutation of its key, so every
        # run of 100 keys holds each branch once: a snapshot's starting
        # selectivity — over the table and over the hot set — is exact
        # for every seed, and seeds differ only in what the ops do.
        return [
            key,
            f"name-{key:08d}",
            self._rng.randrange(1_000_000),
            key * 37 % BRANCHES,
            0,
        ]

    def initial_rows(self) -> "list[list[Any]]":
        return [self._row(key) for key in range(self._rows)]

    def round(self, count: int) -> "list[Op]":
        """The next ``count`` ops; every key they name is live when used."""
        rng = self._rng
        mix = self._mix
        live = self._live
        ops = []
        for _ in range(count):
            draw = rng.random()
            if draw < mix.insert or not live:
                key = self._next_key
                self._next_key += 1
                live.append(key)
                ops.append(Op(INSERT, key, self._row(key)))
            elif draw < mix.insert + mix.update:
                if rng.random() < mix.hot_share:
                    key = live[rng.randrange(min(self._hot, len(live)))]
                else:
                    key = live[rng.randrange(len(live))]
                changes = {
                    "balance": rng.randrange(1_000_000),
                    "v": rng.randrange(1_000),
                }
                if rng.random() < REQUALIFY_SHARE:
                    changes["branch"] = rng.randrange(BRANCHES)
                ops.append(Op(UPDATE, key, changes))
            else:
                position = rng.randrange(len(live))
                key = live[position]
                live[position] = live[-1]
                live.pop()
                ops.append(Op(DELETE, key, None))
        return ops
