"""A fixed reference workload that measures how fast the host is right now.

Machines shared with other tenants change speed by tens of percent over
minutes, far more than the changes the benchmark must detect. Every run
times this workload just before and just after its pipeline; dividing the
run's timings by it removes most of that drift. It imports nothing from the
program, so no change to the program moves it.

A calibrated timing is ``measured × REFERENCE_S / reference``: the seconds
the run would have taken on a host where one reference pass takes
:data:`REFERENCE_S`. The mix follows the pipeline's: interpreter-bound text parsing, like GFA
ingest; many small NumPy calls, like the per-segment merge; and sorts and
bit operations on mid-sized arrays, like selection and the PRNG.
"""
from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: Seconds one :func:`reference_seconds` pass took on the host the
#: benchmark was tuned on (2-vCPU x86-64 Linux VM, Python 3.11, numpy 2.4,
#: quiet phase). Calibrated timings are expressed at this speed.
REFERENCE_S = 0.0625

_LINES = [f"P\tpath{i}\t{','.join(f'{j}+' for j in range(i, i + 12))}\t*"
          for i in range(3000)]
_SMALL = np.linspace(1.0, 2.0, 64)
_KEYS = (np.arange(200_000, dtype=np.int64) * 7919) % 50_021
_WORDS = np.arange(1, 4097, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _text() -> int:
    ids = {}
    total = 0
    for line in _LINES:
        fields = line.split("\t")
        for step in fields[2].split(","):
            total += ids.setdefault(step[:-1], len(ids)) + (step[-1] == "-")
    return total


def _small_arrays() -> float:
    a = _SMALL.copy()
    b = np.empty_like(a)
    for _ in range(8000):
        np.multiply(a, 0.999, out=b)
        np.subtract(b, a, out=b)
        np.sqrt(np.abs(b, out=b), out=b)
        a += b
    return float(a.sum())


def _mid_arrays() -> int:
    uniq, inverse = np.unique(_KEYS, return_inverse=True)
    counts = np.bincount(inverse, minlength=uniq.size)
    s = _WORDS.copy()
    t = np.empty_like(s)
    with np.errstate(over="ignore"):
        for _ in range(150):
            np.left_shift(s, np.uint64(17), out=t)
            np.bitwise_xor(s, t, out=s)
            np.right_shift(s, np.uint64(11), out=t)
            np.bitwise_xor(s, t, out=s)
    return int(counts.max()) + int(s[0] & np.uint64(1))


def _one_pass(_=None) -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        _text()
    _small_arrays()
    for _ in range(2):
        _mid_arrays()
    return time.perf_counter() - t0


def reference_seconds(processes: int = 1) -> float:
    """Wall time of one pass of the reference workload.

    With ``processes > 1``, that many passes run at once in forked
    processes and the slowest counts, which also sees a neighbour that
    slows only one of the cores a multi-process run uses.
    """
    if processes == 1:
        return _one_pass()
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return max(pool.map(_one_pass, range(processes), chunksize=1))
