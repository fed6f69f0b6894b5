"""Seeded L1 violations; linted with logical path ``core/rogue.py``."""


def rogue_annotation_write(table, rid):
    table.set_annotations(rid, prev=None, ts=7)  # line 5: L101


def rogue_summary_state(summary):
    summary.max_ts = 0  # line 9: L102
    summary.null_slots.add(3)  # line 10: L102


def rogue_hook_call(summaries, rid, body):
    summaries.note_insert(rid, body)  # line 14: L103


def waived_annotation_write(table, rid):
    table.set_annotations(rid, prev=None)  # replint: ignore[L101]


def rogue_heap_annotation_write(heap, rid):
    heap.write_annotations(rid, None, bytes(8))  # line 22: L101


def rogue_fused_annotation_write(heap, schema):
    heap.fix_batch(0, schema, lambda batch: [(0, None, bytes(8))])  # line 26: L101
