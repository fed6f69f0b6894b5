"""A21 — the repository's end-to-end benchmark: commit -> visible.

One closed loop (one writer, one refresher, one thread) drives a seeded
workload through ``SnapshotManager`` over the encoded transport into a
separate receiver site, checks every snapshot against an oracle, and
reports the metrics named in ``BENCHMARK.json``.  See ``README.md`` in
this directory for every metric's definition and the caveats.

Only :mod:`benchmarks.e2e.adapter` imports ``repro``.
"""
