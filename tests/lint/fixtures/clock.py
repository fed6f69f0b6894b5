"""Seeded L2 violations; linted with logical path ``core/jitter.py``."""

import random
import time
from datetime import datetime
from time import time_ns  # line 6: L201


def wall_clock():
    return time.time()  # line 10: L201


def wall_date():
    return datetime.now()  # line 14: L202


def unseeded_jitter():
    return random.random()  # line 18: L203


def seeded_is_fine(seed):
    return random.Random(seed).random()  # seeded generator: no violation


def second_thread():  # L204 holds in every module, clock and workload too
    import threading  # line 26: L204
    from concurrent.futures import ThreadPoolExecutor  # line 27: L204
    from concurrent import futures  # line 28: L204
    import multiprocessing.pool  # line 29: L204
    import concurrent  # a bare package import starts nothing: no violation

    return threading, ThreadPoolExecutor, futures, multiprocessing, concurrent
