"""Test oracle: the sequential Xoshiro256+ block fill, one call at a time.

This is ``Xoshiro256Plus.next_double_block`` as it was before blocks were
split into jump-ahead lanes: one loop over calls on ``n_streams``-wide word
columns. ``tests/test_prng_lanes.py`` requires the lane draw to match it
byte for byte, output and final state.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

_U64 = np.uint64


def sequential_double_block(state: np.ndarray,
                            n_calls: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(block, new_state)`` for ``n_calls`` calls from an ``(n, 4)`` state.

    The input state is not modified.
    """
    s = np.array(state, dtype=np.uint64)
    out = np.empty((n_calls, s.shape[0]), dtype=np.float64)
    s0, s1, s2, s3 = (s[:, i].copy() for i in range(4))
    t = np.empty_like(s0)
    r = np.empty_like(s0)
    with np.errstate(over="ignore"):
        for c in range(n_calls):
            np.add(s0, s3, out=r)
            np.right_shift(r, _U64(11), out=r)
            np.copyto(out[c], r)
            np.left_shift(s1, _U64(17), out=t)
            np.bitwise_xor(s2, s0, out=s2)
            np.bitwise_xor(s3, s1, out=s3)
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s0, s3, out=s0)
            np.bitwise_xor(s2, t, out=s2)
            np.left_shift(s3, _U64(45), out=r)
            np.right_shift(s3, _U64(19), out=s3)
            np.bitwise_or(r, s3, out=s3)
    out *= 2.0 ** -53
    return out, np.stack([s0, s1, s2, s3], axis=1)
