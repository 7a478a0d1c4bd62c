"""Allocation tracing shared by the memory tests."""

import tracemalloc

import numpy as np


def traced(fn):
    """(result, bytes still held after fn, peak rise during fn), by tracemalloc.
    numpy's ufunc buffers are held to 8 KB, so the peak rise counts arrays."""
    old = np.setbufsize(1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    return out, held - before, peak - before
