"""The host's speed at the moment, gauged by a fixed reference chunk of work.

On a shared host identical work runs up to 2x faster or slower for 5-30 s
at a time, so wall-clock times of runs minutes apart spread by a third.
The benchmark times a reference chunk, a fixed loop that does not touch
the program, just before and just after every timed interval, and scales
the interval by REF_CHUNK_S over the mean of the two chunk times: the
interval's length at the reference host speed.  A program that gets
faster shortens the interval and leaves the chunks as they were.
"""

import time

import numpy as np

# One chunk: a 16-wide tanh cell stepped SMALL_STEPS times (interpreter and
# numpy call overhead, as at the tiny dimensions of cv-tiny and gradcheck),
# a 256-wide one stepped WIDE_STEPS times and WIDE_OUTERS 256 x 256 outer
# products added into eight rotating 512 KiB matrices (matrix products and
# cache traffic, as at paper dimensions).
SMALL_STEPS = 20000
WIDE_STEPS = 3000
WIDE_OUTERS = 600
# The chunk's usual time on the reference host of README.md; it sets the
# speed that adjusted times refer to, so it scales every adjusted figure
# alike and must stay fixed for figures to be comparable.
REF_CHUNK_S = 0.150

_SMALL = np.linspace(-0.5, 0.5, 256).reshape(16, 16)
_SMALL_X = np.linspace(0.0, 1.0, 16)
_WIDE = np.linspace(-0.01, 0.01, 65536).reshape(256, 256)
_WIDE_X = np.linspace(0.0, 1.0, 256)
# Written by every chunk and never read: only the time of the adds counts.
_ACC = [np.zeros((256, 256)) for _ in range(8)]


def chunk() -> float:
    """Seconds the reference chunk takes now."""
    started = time.perf_counter()
    for _ in range(SMALL_STEPS):
        np.tanh(_SMALL @ _SMALL_X)
    v = _WIDE_X
    for _ in range(WIDE_STEPS):
        v = np.tanh(_WIDE @ v)
    for i in range(WIDE_OUTERS):
        acc = _ACC[i % len(_ACC)]
        acc += np.outer(v, v)
        if i % len(_ACC) == 0:
            acc *= 0.5  # keeps the sums bounded over many chunks
    return time.perf_counter() - started


def scaled(times: list, chunks: list) -> list:
    """Each of times at the reference host speed; times[i] lies between the
    chunks that took chunks[i] and chunks[i + 1] seconds."""
    return [t * REF_CHUNK_S / ((chunks[i] + chunks[i + 1]) / 2) for i, t in enumerate(times)]


def timed(fn, repeats: int) -> list:
    """fn() called repeats times; each call's time at the reference host speed."""
    chunks, times = [chunk()], []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
        chunks.append(chunk())
    return scaled(times, chunks)
