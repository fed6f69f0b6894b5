"""Seeded L105 violations; linted outside the buffer pool."""


def rogue(pager, pool, buf):
    image = pager.read_page(3)  # line 5: L105
    pager.read_into(3, buf)  # line 6: L105
    pool.pager.write_page(3, image)  # line 7: L105
    return image


def neighbours(pool, heap, read_page):
    # Not the rule's: the pool's own calls, a heap read, a bare name.
    pool.pin(3)
    pool.flush_all()
    heap.read(0)
    return read_page(3)
