"""Page stores: allocate, read, and write fixed-size page images.

Two implementations share the :class:`Pager` interface:

- :class:`InMemoryPager` keeps one page image per page, a ``bytearray``
  it owns (the default for simulations and tests — fast and
  deterministic);
- :class:`FilePager` memory-maps nothing fancy, just seeks and reads a
  regular file, demonstrating that the engine's page discipline is real.

The buffer pool sits on top of either and is the only component that
talks to a pager (replint L105): it reads a page into one of its own
frames (:meth:`Pager.read_into`) and writes a dirty frame back from the
same buffer (:meth:`Pager.write_page`).  Neither call keeps a reference
to the caller's buffer, so the pool may recycle a frame the moment the
call returns, and the pager's image stays distinct from a dirty frame.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import StorageError
from repro.storage.page import PAGE_SIZE


class Pager:
    """Abstract fixed-size page store."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def allocate(self) -> int:
        """Allocate a new zeroed page; return its page number."""
        raise NotImplementedError

    def read_page(self, page_no: int) -> bytearray:
        """Return a new ``bytearray`` holding a copy of the page image;
        the caller owns it."""
        buf = bytearray(self.page_size)
        self.read_into(page_no, buf)
        return buf

    def read_into(self, page_no: int, buf: bytearray) -> None:
        """Copy the page image into ``buf``, a page-size buffer the
        caller owns and keeps owning: the pager holds no reference to it
        once this returns."""
        raise NotImplementedError

    def write_page(self, page_no: int, data: bytes) -> None:
        """Persist a full page image, copied out of ``data``: the caller
        keeps owning ``data`` and may reuse it once this returns."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def _check_page_no(self, page_no: int) -> None:
        if not (0 <= page_no < self.page_count):
            raise StorageError(
                f"page {page_no} out of range (have {self.page_count})"
            )

    def _check_size(self, data: "bytes | bytearray") -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page image must be {self.page_size} bytes, got {len(data)}"
            )


class InMemoryPager(Pager):
    """Page store backed by a list of page images; the default substrate.

    Each image is a ``bytearray`` the pager owns for the page's life:
    a write copies into it and a read copies out of it, in place.
    """

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._pages: "list[bytearray]" = []

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def allocate(self) -> int:
        self._pages.append(bytearray(self.page_size))
        return len(self._pages) - 1

    # Each call tests the page number and the size once; the checks
    # raise their errors when the test fails.  A negative page number
    # would index from the end, and a slice copy between buffers of
    # different sizes would resize the target.

    def read_into(self, page_no: int, buf: bytearray) -> None:
        pages = self._pages
        if not 0 <= page_no < len(pages) or len(buf) != self.page_size:
            self._check_page_no(page_no)
            self._check_size(buf)
        buf[:] = pages[page_no]

    def write_page(self, page_no: int, data: bytes) -> None:
        pages = self._pages
        if not 0 <= page_no < len(pages) or len(data) != self.page_size:
            self._check_page_no(page_no)
            self._check_size(data)
        pages[page_no][:] = data


class FilePager(Pager):
    """Page store backed by a single flat file of page-size blocks."""

    def __init__(self, path: str, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._path = path
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            raise StorageError(
                f"{path} is not a whole number of {page_size}-byte pages"
            )
        self._count = size // page_size

    @property
    def page_count(self) -> int:
        return self._count

    def allocate(self) -> int:
        page_no = self._count
        self._file.seek(page_no * self.page_size)
        self._file.write(bytes(self.page_size))
        self._count += 1
        return page_no

    def read_into(self, page_no: int, buf: bytearray) -> None:
        self._check_page_no(page_no)
        self._check_size(buf)
        self._file.seek(page_no * self.page_size)
        if self._file.readinto(buf) != self.page_size:
            raise StorageError(f"short read on page {page_no}")

    def write_page(self, page_no: int, data: bytes) -> None:
        self._check_page_no(page_no)
        self._check_size(data)
        self._file.seek(page_no * self.page_size)
        self._file.write(data)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "FilePager":
        return self

    def __exit__(self, *exc: object) -> Optional[bool]:
        self.close()
        return None
