"""SplitMix64 pseudo-random number generator.

SplitMix64 is the recommended seeder for the Xoshiro family of generators
(Blackman & Vigna, 2021). ``odgi-layout`` seeds one Xoshiro256+ state per
worker thread from a SplitMix64 stream; we reproduce that seeding scheme so
that per-thread (and per-GPU-thread) streams are decorrelated.

All arithmetic is performed on ``uint64`` NumPy arrays with explicit wrapping
semantics, which makes the generator vectorisable across many independent
states — the property the paper's GPU kernel relies on (one PRNG state per
CUDA thread).
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["SplitMix64", "splitmix64_next", "seed_streams", "expand_streams",
           "derive_seed"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1 = np.uint64(30)
_SHIFT2 = np.uint64(27)
_SHIFT3 = np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of an advanced state."""
    z = (z ^ (z >> _SHIFT1)) * _MIX1
    z = (z ^ (z >> _SHIFT2)) * _MIX2
    return z ^ (z >> _SHIFT3)


def splitmix64_next(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance an array of SplitMix64 states by one step.

    Parameters
    ----------
    state:
        ``uint64`` array of generator states. Modified copies are returned;
        the input is not mutated.

    Returns
    -------
    (new_state, output):
        The advanced states and the corresponding 64-bit outputs.
    """
    state = np.asarray(state, dtype=np.uint64)
    with np.errstate(over="ignore"):
        new_state = state + _GOLDEN
        return new_state, _mix(new_state)


class SplitMix64:
    """A vectorised SplitMix64 generator holding ``n`` independent streams."""

    def __init__(self, seed: int | np.ndarray, n: int | None = None):
        if np.isscalar(seed):
            if n is None:
                n = 1
            base = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
            with np.errstate(over="ignore"):
                offsets = np.arange(n, dtype=np.uint64) * np.uint64(0x632BE59BD9B4E019)
                self.state = base + offsets
        else:
            self.state = np.asarray(seed, dtype=np.uint64).copy()
            if n is not None and n != self.state.size:
                raise ValueError("n does not match the provided state array size")

    @property
    def n_streams(self) -> int:
        """Number of independent streams."""
        return int(self.state.size)

    def next_uint64(self) -> np.ndarray:
        """Return one 64-bit output per stream and advance every stream."""
        self.state, out = splitmix64_next(self.state)
        return out

    def next_double(self) -> np.ndarray:
        """Return one double in [0, 1) per stream."""
        return (self.next_uint64() >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def derive_seed(seed: int, label: str) -> int:
    """Stable 31-bit sub-seed for a string ``label`` under a master ``seed``.

    The label is hashed with CRC-32, XORed into the master seed and mixed
    once through SplitMix64 — the shared derivation scheme of the benchmark
    context (``BenchContext.seed_for``) and the multilevel driver's per-level
    engine seeds, kept in one place so the two subsystems can never drift
    apart on the determinism contract.
    """
    mixed = SplitMix64(seed ^ zlib.crc32(label.encode("utf-8")), 1)
    return int(mixed.next_uint64()[0] & np.uint64(0x7FFFFFFF))


# Replacement for a zero word, which would put xoshiro into its (invalid)
# all-zero orbit.
_ZERO_REMAP = np.uint64(0x2545F4914F6CDD1D)


def expand_streams(sm: SplitMix64, n_streams: int,
                   words_per_stream: int = 4) -> np.ndarray:
    """Draw the next ``n_streams`` state blocks from an ongoing expansion.

    Advances ``sm`` (a single-stream SplitMix64) by
    ``n_streams * words_per_stream`` steps and returns the outputs as a
    ``(n_streams, words_per_stream)`` uint64 array with zero words remapped.
    Because the expansion is one sequential stream, repeated calls against
    the same generator yield exactly the tail slices that one big
    :func:`seed_streams` call over the running total would — prefix
    stability without regenerating the prefix.

    Step ``k`` (from 1) of a stream at state ``s`` outputs the mix of
    ``s + k·γ`` mod 2^64, so every word comes from one array pass rather
    than one NumPy call per word.
    """
    if n_streams <= 0:
        raise ValueError("n_streams must be positive")
    if words_per_stream <= 0:
        raise ValueError("words_per_stream must be positive")
    if sm.n_streams != 1:
        raise ValueError("expand_streams needs a single-stream SplitMix64")
    total = n_streams * words_per_stream
    with np.errstate(over="ignore"):
        states = sm.state + np.arange(1, total + 1, dtype=np.uint64) * _GOLDEN
        words = _mix(states)
    sm.state = states[-1:].copy()
    words[words == 0] = _ZERO_REMAP
    return words.reshape(n_streams, words_per_stream)


def seed_streams(seed: int, n_streams: int, words_per_stream: int = 4) -> np.ndarray:
    """Produce decorrelated seed material for ``n_streams`` downstream PRNGs.

    Returns a ``(n_streams, words_per_stream)`` uint64 array. This mirrors how
    cuRAND / odgi-layout seed one generator state per thread: a single scalar
    seed is expanded through SplitMix64 so that no two streams share state
    words, and no state word is ever zero (required by xoshiro/xorshift).
    """
    return expand_streams(SplitMix64(seed, 1), n_streams, words_per_stream)
