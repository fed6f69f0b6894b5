"""Seeded L306 violations; linted with logical path ``core/cursor.py``."""


def qualifies(cursor, row):
    return cursor.restriction(row)  # line 5: L306


def through_a_local(restriction, row):
    return restriction(row)  # line 9: L306


def rendered(cursor, batch, changed):
    # The rendered qualifier is the scan path's form: not flagged.
    return batch.qualifying(cursor.restriction, changed)


def named(cursor):
    return cursor.restriction.text
