"""Vectorised Xoshiro256+ pseudo-random number generator.

``odgi-layout`` (the paper's CPU baseline) uses Xoshiro256+ (Blackman & Vigna,
2021), a linear-feedback-shift-register generator chosen for its very low
computational cost — a property the paper identifies as contributing to the
memory-bound nature of the layout workload (Sec. III-B): generating a random
number is far cheaper than the memory traffic it triggers.

This module implements Xoshiro256+ over an arbitrary number of parallel
streams (one per simulated CPU thread or GPU thread), with outputs identical
to the reference C implementation for any given state.

The state transition T is linear over GF(2), so T^m = (x^m mod P)(T) for the
characteristic polynomial P of T (Cayley–Hamilton): any stream can jump m
calls ahead in 256 steps. The reference C code's ``jump()`` and
``long_jump()`` are the cases m = 2^128 and m = 2^192. The bulk draw uses
this to split a long block into lanes that advance side by side (the host
analogue of the paper's one-state-per-thread GPU streams, Sec. V-B2).
"""
from __future__ import annotations

import functools

import numpy as np

from .splitmix import seed_streams

__all__ = ["Xoshiro256Plus", "rotl64", "CHARPOLY", "jump_polynomial",
           "lane_count"]

_U64 = np.uint64

#: Characteristic polynomial P of the Xoshiro256 state transition over GF(2),
#: bit i holding the coefficient of x^i (degree 256). Recovered from a state
#: bit sequence by Berlekamp–Massey; ``tests/test_prng_lanes.py`` re-derives
#: it and checks the published ``JUMP``/``LONG_JUMP`` words against it.
CHARPOLY = 0x1_0003c03c3f3ecb1904b4edcf26259f850280002bcefd1a5e9d116f2bb0f0f001

#: Blocks shorter than this many calls run the plain call-at-a-time loop.
_LANE_MIN_CALLS = 1024
#: Calls per lane at least: the jump pass costs 256 transition steps, so a
#: lane shorter than that would cost more to start than it saves.
_LANE_MIN_STEPS = 256
#: Cap on lanes; together with L <= C/256 it keeps L(L-1) < C.
_LANE_MAX = 256
#: Cap on lanes x streams. Past a few thousand elements per ufunc call the
#: loop is bound by element work rather than per-call dispatch, and the
#: jump pass (256 XORs over 4 x lanes x streams words) starts to dominate.
_LANE_WIDTH = 4096


def lane_count(n_calls: int, n_streams: int) -> int:
    """Lanes :meth:`Xoshiro256Plus.next_double_block` splits a block into.

    A fixed function of the block shape, so every draw of the same shape
    takes the same path; 1 means the plain sequential loop.
    """
    if n_calls < _LANE_MIN_CALLS:
        return 1
    return max(1, min(_LANE_MAX, n_calls // _LANE_MIN_STEPS,
                      _LANE_WIDTH // max(1, n_streams)))


def _mulmod(a: int, b: int) -> int:
    """Product of two GF(2)[x] polynomials (as bit masks) reduced mod P."""
    product = 0
    while b:
        low = b & -b
        product ^= a << (low.bit_length() - 1)
        b ^= low
    while product.bit_length() > 256:
        product ^= CHARPOLY << (product.bit_length() - 257)
    return product


def jump_polynomial(m: int) -> int:
    """x^m mod P: the polynomial in T that advances a state ``m`` calls."""
    result, power = 1, 2
    while m:
        if m & 1:
            result = _mulmod(result, power)
        power = _mulmod(power, power)
        m >>= 1
    return result


@functools.lru_cache(maxsize=32)
def _lane_masks(k: int, lanes: int) -> np.ndarray:
    """Read-only ``(256, lanes, 1)`` bools: ``[i, j, 0]`` is the x^i
    coefficient of x^(j·k) mod P, the jump that starts lane ``j``."""
    step = jump_polynomial(k)
    polys = [1]
    for _ in range(lanes - 1):
        polys.append(_mulmod(polys[-1], step))
    raw = np.frombuffer(b"".join(p.to_bytes(32, "little") for p in polys),
                        dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little").reshape(lanes, 256)
    masks = np.ascontiguousarray(bits.T.astype(bool)).reshape(256, lanes, 1)
    masks.flags.writeable = False
    return masks


def _fill(s0, s1, s2, s3, t, r, rows, start: int, stop: int) -> None:
    """Write calls ``start .. stop-1`` of the streams in ``s0..s3`` into
    ``rows[c]`` as 53-bit integers, advancing the words in place.

    Contiguous word columns, two preallocated temporaries and ``out=``
    ufuncs throughout: the loop allocates nothing and never touches strided
    state views.
    """
    k11, k17, k45, k19 = _U64(11), _U64(17), _U64(45), _U64(19)
    with np.errstate(over="ignore"):
        for c in range(start, stop):
            np.add(s0, s3, out=r)
            np.right_shift(r, k11, out=r)
            np.copyto(rows[c], r)  # uint64 -> float64, same as astype
            np.left_shift(s1, k17, out=t)
            np.bitwise_xor(s2, s0, out=s2)
            np.bitwise_xor(s3, s1, out=s3)
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s0, s3, out=s0)
            np.bitwise_xor(s2, t, out=s2)
            # rotl64(s3, 45) inlined: << 45 | >> (64 - 45).
            np.left_shift(s3, k45, out=r)
            np.right_shift(s3, k19, out=s3)
            np.bitwise_or(r, s3, out=s3)


def _advance(s0, s1, s2, s3, t, r) -> None:
    """One state transition of word arrays, in place: :func:`_fill`'s loop
    body without the output, which the jump pass does not need."""
    np.left_shift(s1, _U64(17), out=t)
    np.bitwise_xor(s2, s0, out=s2)
    np.bitwise_xor(s3, s1, out=s3)
    np.bitwise_xor(s1, s2, out=s1)
    np.bitwise_xor(s0, s3, out=s0)
    np.bitwise_xor(s2, t, out=s2)
    np.left_shift(s3, _U64(45), out=r)
    np.right_shift(s3, _U64(19), out=s3)
    np.bitwise_or(r, s3, out=s3)


def _lane_starts(state: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``(4, lanes, n)`` words: lane ``j`` is ``state`` jumped by the
    polynomial in ``masks[:, j, 0]``.

    One pass steps ``state`` 256 times and XORs each stepped state into the
    accumulators of the lanes whose polynomial has that power of x.
    """
    n = state.shape[0]
    lanes = masks.shape[1]
    words = state.T.copy()
    t = np.empty(n, dtype=np.uint64)
    r = np.empty(n, dtype=np.uint64)
    # Lane-major accumulators: each masked XOR then runs over whole
    # 4n-word rows, which is faster than word-major (4, lanes, n).
    acc = np.zeros((lanes, 4 * n), dtype=np.uint64)
    row = words.reshape(1, 4 * n)
    for bit in masks:
        np.bitwise_xor(acc, row, out=acc, where=bit)
        _advance(*words, t, r)
    return np.ascontiguousarray(acc.reshape(lanes, 4, n).transpose(1, 0, 2))


def rotl64(x: np.ndarray, k: int) -> np.ndarray:
    """Rotate ``uint64`` values left by ``k`` bits (vectorised)."""
    k = int(k) % 64
    if k == 0:
        return np.asarray(x, dtype=np.uint64).copy()
    x = np.asarray(x, dtype=np.uint64)
    return (x << _U64(k)) | (x >> _U64(64 - k))


class Xoshiro256Plus:
    """Xoshiro256+ with ``n`` independent streams.

    Parameters
    ----------
    seed:
        Scalar seed expanded with SplitMix64, or a ``(n, 4)`` uint64 state
        array to resume from.
    n_streams:
        Number of independent streams when ``seed`` is scalar.

    Notes
    -----
    The state is stored as a ``(n, 4)`` array, i.e. an array-of-structs layout
    equivalent to one generator object per thread. The SoA/AoS distinction
    that matters for the paper's *coalesced random states* optimisation is
    modelled at the memory-layout level in :mod:`repro.prng.xorshift` and
    :mod:`repro.gpusim`; this class is the functional reference generator.
    """

    STATE_WORDS = 4

    def __init__(self, seed: int | np.ndarray = 0, n_streams: int = 1):
        if np.isscalar(seed):
            self.state = seed_streams(int(seed), n_streams, self.STATE_WORDS)
        else:
            arr = np.asarray(seed, dtype=np.uint64)
            if arr.ndim != 2 or arr.shape[1] != self.STATE_WORDS:
                raise ValueError("state array must have shape (n, 4)")
            if np.any(np.all(arr == 0, axis=1)):
                raise ValueError("xoshiro256+ state must not be all zero")
            self.state = arr.copy()

    @property
    def n_streams(self) -> int:
        """Number of independent streams."""
        return int(self.state.shape[0])

    def copy(self) -> "Xoshiro256Plus":
        """Return an independent copy (same state, separate evolution)."""
        return Xoshiro256Plus(self.state)

    def next_uint64(self) -> np.ndarray:
        """Advance every stream one step and return the 64-bit outputs."""
        s = self.state
        with np.errstate(over="ignore"):
            result = s[:, 0] + s[:, 3]
            t = s[:, 1] << _U64(17)
            s[:, 2] ^= s[:, 0]
            s[:, 3] ^= s[:, 1]
            s[:, 1] ^= s[:, 2]
            s[:, 0] ^= s[:, 3]
            s[:, 2] ^= t
            s[:, 3] = rotl64(s[:, 3], 45)
        return result

    def next_double(self) -> np.ndarray:
        """One double in [0, 1) per stream (53-bit mantissa, like the C code)."""
        return (self.next_uint64() >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def next_double_block(self, n_calls: int) -> np.ndarray:
        """``n_calls`` consecutive :meth:`next_double` outputs as one block.

        Returns a ``(n_calls, n_streams)`` float64 array whose row ``c`` is
        byte-identical to the ``c``-th :meth:`next_double` call, and advances
        every stream exactly ``n_calls`` times — the bulk draw and the
        call-at-a-time draw are interchangeable mid-stream. This is the
        megabatch fill of the fused iteration path and the backing store of
        the sampler's bulk uniforms.

        Short blocks run one tight loop over calls. A block of
        :func:`lane_count` L > 1 is drawn as L lanes of k = ⌈C/L⌉ calls:
        lane j starts from the state jumped j·k calls ahead
        (:func:`jump_polynomial`; all L starts come from one 256-step pass),
        then a single loop of k steps advances every lane over
        L × ``n_streams``-wide words, lane j filling rows j·k … j·k+k−1
        (the last lane stops at row C−1). The state afterwards is the last
        lane's state at call C. Nothing about the lanes outlives the call.
        """
        n_calls = int(n_calls)
        if n_calls < 0:
            raise ValueError("n_calls must be >= 0")
        s = self.state
        out = np.empty((n_calls, self.n_streams), dtype=np.float64)
        lanes = lane_count(n_calls, self.n_streams)
        if lanes == 1:
            words = s.T.copy()  # contiguous per-word columns
            t = np.empty_like(words[0])
            r = np.empty_like(words[0])
            _fill(*words, t, r, out, 0, n_calls)
            s[...] = words.T
        else:
            # lane_count keeps L <= C/256 and L <= 256, so L(L-1) < C and
            # the last lane, possibly short, is never empty.
            k = -(-n_calls // lanes)
            words = _lane_starts(s, _lane_masks(k, lanes))
            t = np.empty_like(words[0])
            r = np.empty_like(words[0])
            # rows[c] is call c of every lane; lane j owns rows j*k onwards.
            # The last lane has only ``last`` calls, so the view over all
            # lanes stops there and the others finish on a view without it.
            last = n_calls - (lanes - 1) * k
            row, item = out.strides
            rows = np.lib.stride_tricks.as_strided(
                out, shape=(last, lanes, self.n_streams),
                strides=(row, k * row, item))
            _fill(*words, t, r, rows, 0, last)
            s[...] = words[:, -1].T
            rest = out[:(lanes - 1) * k].reshape(lanes - 1, k, -1)
            _fill(*words[:, :-1], t[:-1], r[:-1], rest.transpose(1, 0, 2),
                  last, k)
        out *= 2.0 ** -53
        return out

    def next_bool(self) -> np.ndarray:
        """One boolean coin flip per stream (top bit of the output)."""
        return (self.next_uint64() >> _U64(63)).astype(bool)

    def next_below(self, bound: int | np.ndarray) -> np.ndarray:
        """One integer in [0, bound) per stream.

        Uses the multiply-shift reduction (Lemire) which is what fast layout
        codes use in practice; bias is negligible for the bounds involved
        (graph/path sizes far below 2^32).
        """
        bound_arr = np.asarray(bound, dtype=np.uint64)
        if np.any(bound_arr == 0):
            raise ValueError("bound must be positive")
        x = self.next_uint64() >> _U64(32)
        with np.errstate(over="ignore"):
            return ((x * bound_arr) >> _U64(32)).astype(np.int64)

    def jump_streams(self, n_extra: int, seed: int = 1) -> "Xoshiro256Plus":
        """Return a generator with ``n_extra`` streams appended.

        The new streams are SplitMix64-seeded from ``seed``
        (:func:`~repro.prng.splitmix.seed_streams`), not jumped: they are
        decorrelated from the existing ones by seeding, with no
        jump-polynomial guarantee that the sequences never overlap.
        """
        extra = seed_streams(seed, n_extra, self.STATE_WORDS)
        return Xoshiro256Plus(np.vstack([self.state, extra]))


def reference_scalar_next(state: np.ndarray) -> tuple[np.ndarray, int]:
    """Scalar reference step used by the test-suite to cross-check vectorisation.

    Takes a length-4 uint64 state, returns (new_state, output).
    """
    s = np.asarray(state, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        result = int(s[0] + s[3])
        t = np.uint64(int(s[1]) << 17 & 0xFFFFFFFFFFFFFFFF)
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl64(s[3:4], 45)[0]
    return s, result & 0xFFFFFFFFFFFFFFFF
