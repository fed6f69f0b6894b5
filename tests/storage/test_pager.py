"""Page stores: allocation, IO, bounds, file persistence."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.pager import FilePager, InMemoryPager


class TestInMemoryPager:
    def test_allocate_sequential(self):
        pager = InMemoryPager(page_size=256)
        assert pager.allocate() == 0
        assert pager.allocate() == 1
        assert pager.page_count == 2

    def test_new_pages_are_zeroed(self):
        pager = InMemoryPager(page_size=256)
        page_no = pager.allocate()
        assert pager.read_page(page_no) == bytearray(256)

    def test_write_read_roundtrip(self):
        pager = InMemoryPager(page_size=256)
        page_no = pager.allocate()
        image = bytes(range(256))
        pager.write_page(page_no, image)
        assert bytes(pager.read_page(page_no)) == image

    def test_read_returns_copy(self):
        pager = InMemoryPager(page_size=16)
        page_no = pager.allocate()
        copy = pager.read_page(page_no)
        copy[0] = 0xFF
        assert pager.read_page(page_no)[0] == 0

    def test_out_of_range_read(self):
        pager = InMemoryPager()
        with pytest.raises(StorageError):
            pager.read_page(0)

    def test_wrong_size_write(self):
        pager = InMemoryPager(page_size=256)
        page_no = pager.allocate()
        with pytest.raises(StorageError):
            pager.write_page(page_no, b"short")

    def test_write_copies_out_of_the_callers_buffer(self):
        pager = InMemoryPager(page_size=16)
        page_no = pager.allocate()
        frame = bytearray(b"a" * 16)
        pager.write_page(page_no, frame)
        frame[0] = 0xFF  # the caller reuses its buffer
        assert bytes(pager.read_page(page_no)) == b"a" * 16


class TestReadInto:
    """``read_into`` fills a page-size buffer the caller owns, on both
    pagers, and refuses what ``read_page`` refuses."""

    @pytest.fixture(params=["memory", "file"])
    def pager(self, request, tmp_path):
        if request.param == "memory":
            yield InMemoryPager(page_size=64)
        else:
            with FilePager(str(tmp_path / "p.pages"), page_size=64) as pager:
                yield pager

    def test_fills_the_buffer_in_place(self, pager):
        first, second = pager.allocate(), pager.allocate()
        pager.write_page(first, b"x" * 64)
        pager.write_page(second, b"y" * 64)
        buf = bytearray(64)
        pager.read_into(second, buf)
        assert buf == b"y" * 64
        pager.read_into(first, buf)  # the same buffer, another page
        assert buf == b"x" * 64
        buf[0] = 0  # the pager kept no reference to it
        assert pager.read_page(first) == b"x" * 64

    @pytest.mark.parametrize("size", [0, 63, 65])
    def test_a_buffer_of_another_size_is_refused(self, pager, size):
        page_no = pager.allocate()
        buf = bytearray(b"k" * size)
        with pytest.raises(StorageError, match="must be 64 bytes"):
            pager.read_into(page_no, buf)
        assert buf == b"k" * size  # neither resized nor filled

    @pytest.mark.parametrize("page_no", [-1, 1, 2])
    def test_out_of_range(self, pager, page_no):
        pager.allocate()
        with pytest.raises(StorageError, match="out of range"):
            pager.read_into(page_no, bytearray(64))
        with pytest.raises(StorageError, match="out of range"):
            pager.write_page(page_no, bytes(64))

    def test_out_of_range_is_told_before_size(self, pager):
        with pytest.raises(StorageError, match="out of range"):
            pager.read_into(0, bytearray(3))


class TestFilePager:
    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "data.pages")
        with FilePager(path, page_size=128) as pager:
            page_no = pager.allocate()
            pager.write_page(page_no, b"z" * 128)
        with FilePager(path, page_size=128) as reopened:
            assert reopened.page_count == 1
            assert bytes(reopened.read_page(0)) == b"z" * 128

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "ragged.pages"
        path.write_bytes(b"x" * 100)
        with pytest.raises(StorageError):
            FilePager(str(path), page_size=128)

    def test_out_of_range(self, tmp_path):
        with FilePager(str(tmp_path / "p.pages"), page_size=64) as pager:
            with pytest.raises(StorageError):
                pager.read_page(0)

    def test_a_short_read_is_refused(self, tmp_path):
        path = tmp_path / "p.pages"
        with FilePager(str(path), page_size=64) as pager:
            pager.allocate()
            page_no = pager.allocate()
            pager._file.flush()
            os.truncate(path, 64 + 10)  # the file lost most of a page
            with pytest.raises(StorageError, match=f"short read on page {page_no}"):
                pager.read_into(page_no, bytearray(64))
