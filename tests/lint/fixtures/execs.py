"""Seeded L503 violations; linted with logical path ``core/rogue.py``."""
import builtins


def run_rendered(source, namespace):
    exec(source, namespace)  # line 6: L503
    return namespace


def waiving_does_not_help(source):
    exec(source)  # replint: ignore[L503]


def through_the_module(code):
    builtins.exec(code)  # line 15: L503


def not_the_builtin(cursor, statement):
    # A method that happens to be called exec is somebody else's API.
    return cursor.exec(statement)
