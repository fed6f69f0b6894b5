"""A17's recorded decode floor only ratchets up."""

from benchmarks.bench_batch import _ratchet


class TestDecodeFloor:
    def test_first_run_records_half_its_rate(self):
        assert _ratchet(None, 600_000.0) == 300_000

    def test_a_slower_run_keeps_the_recorded_floor(self):
        assert _ratchet(304_997.0, 579_386.0) == 304_997

    def test_a_faster_run_raises_it(self):
        assert _ratchet(304_997.0, 700_000.0) == 350_000
