"""Seeded L104 violations; linted outside the heap layer."""

from repro.storage import page as page_module
from repro.storage.page import SlottedPage


def rogue(heap, frame):
    view = SlottedPage(frame)  # line 8: L104
    other = page_module.SlottedPage(frame, space=None)  # line 9: L104
    pinned = heap._pin(0)  # line 10: L104, but in the sanitizer
    return view, other, pinned


def neighbours(heap, pool, frame):
    # Not the rule's: the pool's own pin, the heap's public reads, the
    # class named without a call.
    pool.pin(3)
    heap.read(0)
    kind = SlottedPage
    return kind
