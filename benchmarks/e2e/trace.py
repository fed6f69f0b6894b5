"""In-memory span recorder for the traced run.

Spans nest as ``manager.refresh`` > ``channel.send`` > ``wire.decode`` >
``snapshot.stage`` | ``snapshot.commit``, plus ``writer.inject`` under
the root for the benchmark's own writes inside ``refresh_online``.
Per-message work (sends, staged applies) is accumulated into one span
per parent with a ``busy`` total and a ``count`` instead of one span per
message.  A span's self time is its ``busy`` minus its children's.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import NamedTuple, Optional

#: Self-time keys, in pipeline order.  They partition ``manager.refresh``
#: (less ``writer.inject``) exactly.
LAYERS = ("scan", "encode", "decode", "stage", "commit")


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    refresh: int
    name: str
    start: float
    end: float
    #: Time inside the span: ``end - start`` for a plain span, the sum of
    #: the accumulated calls for a per-message one.
    busy: float
    count: int


class Tracer:
    """Collects spans while ``on``; the traced channel feeds it."""

    def __init__(self) -> None:
        self.on = False
        self.spans: "list[Span]" = []
        self.refreshes = 0
        #: Self seconds per layer, summed over traced refreshes.
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        self.refresh_seconds = 0.0
        self.messages = 0
        self._ids = 0
        self._root = self._send = 0
        self._start = 0.0
        self._reset()

    def _reset(self) -> None:
        self._send_busy = 0.0
        self._send_count = 0
        self._send_first = 0.0
        self._send_last = 0.0
        self._decode_busy = 0.0
        self._stage_busy = 0.0
        self._commit_busy = 0.0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- refresh boundaries (called by the driver) ---------------------------

    def begin_refresh(self) -> None:
        self._reset()
        self.refreshes += 1
        self._root = self._new_id()
        self._send = self._new_id()
        self.on = True
        self._start = perf_counter()

    def end_refresh(self, inject_busy: float, inject_count: int) -> None:
        end = perf_counter()
        self.on = False
        refresh = self.refreshes
        total = end - self._start
        self.spans.append(
            Span(self._root, None, refresh, "manager.refresh",
                 self._start, end, total, 1)
        )
        self.spans.append(
            Span(self._send, self._root, refresh, "channel.send",
                 self._send_first, self._send_last,
                 self._send_busy, self._send_count)
        )
        if inject_count:
            self.spans.append(
                Span(self._new_id(), self._root, refresh, "writer.inject",
                     self._start, end, inject_busy, inject_count)
            )
        layers = self.self_seconds
        layers["scan"] += total - self._send_busy - inject_busy
        layers["encode"] += self._send_busy - self._decode_busy
        layers["decode"] += (
            self._decode_busy - self._stage_busy - self._commit_busy
        )
        layers["stage"] += self._stage_busy
        layers["commit"] += self._commit_busy
        self.refresh_seconds += total - inject_busy
        self.messages += self._send_count

    # -- channel callbacks ---------------------------------------------------

    def sent(self, start: float, end: float) -> None:
        if not self._send_count:
            self._send_first = start
        self._send_last = end
        self._send_busy += end - start
        self._send_count += 1

    def frame(
        self,
        start: float,
        end: float,
        stage_busy: float,
        staged: int,
        commit: "Optional[tuple[float, float]]",
    ) -> None:
        """One frame crossed: its decode span and what it applied."""
        refresh = self.refreshes
        decode = self._new_id()
        self.spans.append(
            Span(decode, self._send, refresh, "wire.decode",
                 start, end, end - start, 1)
        )
        self._decode_busy += end - start
        if staged:
            self.spans.append(
                Span(self._new_id(), decode, refresh, "snapshot.stage",
                     start, end, stage_busy, staged)
            )
            self._stage_busy += stage_busy
        if commit is not None:
            begin, done = commit
            self.spans.append(
                Span(self._new_id(), decode, refresh, "snapshot.commit",
                     begin, done, done - begin, 1)
            )
            self._commit_busy += done - begin

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: "list[dict]") -> "dict[int, dict[str, float]]":
    """Per refresh id, each span name's self time (busy minus children)."""
    children: "dict[int, float]" = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (
                children.get(span["parent"], 0.0) + span["busy"]
            )
    out: "dict[int, dict[str, float]]" = {}
    for span in spans:
        per_name = out.setdefault(span["refresh"], {})
        own = span["busy"] - children.get(span["id"], 0.0)
        per_name[span["name"]] = per_name.get(span["name"], 0.0) + own
    return out
