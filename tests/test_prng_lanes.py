"""Differential tests for the jump-ahead lane draw of ``next_double_block``.

Blocks of at least ``_LANE_MIN_CALLS`` calls are drawn as L lanes started
by jump polynomials; the sequential loop in :mod:`xoshiro_reference` is the
oracle they must match byte for byte, in output and final state. The
differential tests run twice: on the compiled draw (the default when it
loads), and in ``TestNumpyLanes`` on the NumPy lanes it falls back to.
The jump polynomial's modulus (``CHARPOLY``) is pinned independently:
re-derived by Berlekamp–Massey and checked against the reference C code's
``JUMP`` and ``LONG_JUMP`` words.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prng.xoshiro import (
    CHARPOLY,
    Xoshiro256Plus,
    _LANE_MIN_CALLS,
    _LANE_MIN_STEPS,
    _LANE_WIDTH,
    _lane_masks,
    _lane_starts,
    jump_polynomial,
    lane_count,
)
from xoshiro_reference import sequential_double_block

#: The reference C code's jump() and long_jump() constants (x^(2^128) and
#: x^(2^192) mod P, least significant word first).
JUMP = (0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C,
        0xA9582618E03FC9AA, 0x39ABDC4529B1661C)
LONG_JUMP = (0x76E15D3EFEFDCBBF, 0xC5004E441C522FB3,
             0x77710069854EE241, 0x39109BB02ACBE635)


def _assert_matches_oracle(seed: int, n_streams: int, n_calls: int) -> None:
    rng = Xoshiro256Plus(seed, n_streams=n_streams)
    expected, expected_state = sequential_double_block(rng.state, n_calls)
    block = rng.next_double_block(n_calls)
    assert block.shape == (n_calls, n_streams)
    assert block.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(rng.state, expected_state)


def _block_sizes(n_streams: int):
    """Calls below, at and above the lane threshold; exact multiples of
    the lane shape and one off either side; primes."""
    sizes = {_LANE_MIN_CALLS - 1, _LANE_MIN_CALLS, _LANE_MIN_CALLS + 1,
             1031, 2053}
    if n_streams <= 256:
        lanes = lane_count(5000, n_streams)
        k = -(-5000 // lanes)
        sizes |= {lanes * k - 1, lanes * k, lanes * k + 1, 4099, 7919}
    return sorted(sizes)


@pytest.mark.parametrize("n_streams", [1, 2, 3, 5, 64, 200, 1024, 2048, 4096])
def test_lane_draw_matches_sequential_loop(n_streams):
    for n_calls in _block_sizes(n_streams):
        _assert_matches_oracle(n_streams * 7 + n_calls, n_streams, n_calls)


@pytest.mark.parametrize("n_calls", [0, 1, 7, 15808])
def test_small_and_iteration_sized_blocks(n_calls):
    _assert_matches_oracle(9399, 64, n_calls)


@pytest.mark.parametrize("a,b", [(0, 5000), (1024, 1024), (3000, 4097),
                                 (15808, 1), (7, 2000)])
def test_consecutive_blocks_equal_one_block(a, b):
    split = Xoshiro256Plus(42, n_streams=64)
    whole = Xoshiro256Plus(42, n_streams=64)
    joined = np.vstack([split.next_double_block(a), split.next_double_block(b)])
    assert joined.tobytes() == whole.next_double_block(a + b).tobytes()
    np.testing.assert_array_equal(split.state, whole.state)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_streams=st.integers(1, 300),
       n_calls=st.integers(0, 6000))
def test_lane_draw_property(seed, n_streams, n_calls):
    _assert_matches_oracle(seed, n_streams, n_calls)


@pytest.mark.usefixtures("no_kernels")
class TestNumpyLanes:
    """The differential tests above on the NumPy lanes the compiled draw
    falls back to."""

    test_lane_draw_matches_sequential_loop = staticmethod(
        test_lane_draw_matches_sequential_loop)
    test_small_and_iteration_sized_blocks = staticmethod(
        test_small_and_iteration_sized_blocks)
    test_consecutive_blocks_equal_one_block = staticmethod(
        test_consecutive_blocks_equal_one_block)
    test_lane_draw_property = staticmethod(test_lane_draw_property)


def test_lane_rule():
    assert lane_count(_LANE_MIN_CALLS - 1, 64) == 1
    assert lane_count(15808, 64) > 1  # one chr1-flat iteration's megablock
    assert lane_count(100_000, 4096) == 1
    for n_calls in (1024, 4096, 15808, 69352, 10**6):
        for n_streams in (1, 64, 256, 1024):
            lanes = lane_count(n_calls, n_streams)
            if lanes > 1:
                assert n_calls // lanes >= _LANE_MIN_STEPS
                assert lanes * n_streams <= _LANE_WIDTH
                k = -(-n_calls // lanes)
                assert (lanes - 1) * k < n_calls  # the last lane is not empty


def test_lane_masks_are_read_only_and_cached_boundedly():
    masks = _lane_masks(300, 4)
    assert masks.shape == (256, 4, 1)
    assert not masks.flags.writeable
    assert _lane_masks(300, 4) is masks
    assert _lane_masks.cache_info().maxsize is not None


def _berlekamp_massey(bits):
    """Shortest LFSR generating ``bits``: (connection polynomial, length)."""
    conn, prev, length, shift = 1, 1, 0, 1
    for i, bit in enumerate(bits):
        discrepancy = bit
        for j in range(1, length + 1):
            discrepancy ^= (conn >> j) & 1 & bits[i - j]
        if not discrepancy:
            shift += 1
        elif 2 * length <= i:
            conn, prev = conn ^ (prev << shift), conn
            length, shift = i + 1 - length, 1
        else:
            conn ^= prev << shift
            shift += 1
    return conn, length


def test_berlekamp_massey_recovers_charpoly():
    rng = Xoshiro256Plus(2024, n_streams=1)
    bits = []
    for _ in range(600):
        bits.append(int(rng.state[0, 0]) & 1)
        rng.next_uint64()
    conn, length = _berlekamp_massey(bits)
    assert length == 256
    # The characteristic polynomial is the connection polynomial reversed.
    charpoly = int(format(conn, f"0{length + 1}b")[::-1], 2)
    assert charpoly == CHARPOLY


@pytest.mark.parametrize("power,words", [(128, JUMP), (192, LONG_JUMP)])
def test_published_jump_constants(power, words):
    expected = sum(word << (64 * i) for i, word in enumerate(words))
    assert jump_polynomial(2**power) == expected


def test_jump_equals_sequential_steps():
    picks = np.random.default_rng(16).integers(1, 5000, size=6)
    for m in [1, 2, 255, 256, 257, *picks.tolist()]:
        rng = Xoshiro256Plus(int(m), n_streams=3)
        start = rng.state.copy()
        for _ in range(m):
            rng.next_uint64()
        lanes = _lane_starts(start, _lane_masks(int(m), 2))
        np.testing.assert_array_equal(lanes[:, 0].T, start)
        np.testing.assert_array_equal(lanes[:, 1].T, rng.state)
