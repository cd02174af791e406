"""Tests for the PRNG substrate (SplitMix64, Xoshiro256+, XORWOW)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.prng import (
    AOS,
    SOA,
    SplitMix64,
    Xoshiro256Plus,
    XorwowState,
    rotl64,
    seed_streams,
    splitmix64_next,
    state_addresses,
)
from repro.prng.splitmix import _ZERO_REMAP, expand_streams
from repro.prng.xoshiro import reference_scalar_next


class TestSplitMix64:
    def test_known_first_output(self):
        # Reference value for seed 0 from the SplitMix64 reference code.
        sm = SplitMix64(0, 1)
        assert int(sm.next_uint64()[0]) == 0xE220A8397B1DCDAF

    def test_streams_are_distinct(self):
        sm = SplitMix64(42, 8)
        out = sm.next_uint64()
        assert len(np.unique(out)) == 8

    def test_next_double_in_unit_interval(self):
        sm = SplitMix64(7, 100)
        for _ in range(10):
            d = sm.next_double()
            assert np.all(d >= 0.0) and np.all(d < 1.0)

    def test_state_array_constructor_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            SplitMix64(np.arange(4, dtype=np.uint64), n=8)

    def test_splitmix64_next_does_not_mutate_input(self):
        state = np.array([5], dtype=np.uint64)
        before = state.copy()
        splitmix64_next(state)
        assert np.array_equal(state, before)


class TestSeedStreams:
    def test_shape_and_no_zero_words(self):
        words = seed_streams(0, 16, 4)
        assert words.shape == (16, 4)
        assert not np.any(words == 0)

    def test_deterministic(self):
        assert np.array_equal(seed_streams(9, 4), seed_streams(9, 4))

    def test_different_seeds_differ(self):
        assert not np.array_equal(seed_streams(1, 4), seed_streams(2, 4))

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_stream_count(self, bad):
        with pytest.raises(ValueError):
            seed_streams(0, bad)


def _expand_per_word(sm, n_streams, words_per_stream=4):
    """Oracle for ``expand_streams``: one ``next_uint64`` call per word."""
    total = n_streams * words_per_stream
    words = np.empty(total, dtype=np.uint64)
    for i in range(total):
        words[i] = sm.next_uint64()[0]
    words[words == 0] = _ZERO_REMAP
    return words.reshape(n_streams, words_per_stream)


#: SplitMix64's first raw output from this seed is 0: its first advanced
#: state, ``seed + γ`` mod 2^64, is 0, and the mix maps 0 to 0.
ZERO_FIRST_SEED = 2**64 - 0x9E3779B97F4A7C15


class TestExpandStreams:
    @pytest.mark.parametrize("seed", [0, 1, 9399, 123456789, 2**64 - 1,
                                      ZERO_FIRST_SEED])
    @pytest.mark.parametrize("n_streams,words", [(1, 4), (3, 4), (64, 4),
                                                 (512, 4), (5, 1), (7, 3)])
    def test_matches_per_word_oracle(self, seed, n_streams, words):
        """Words and generator state, over repeated calls on one generator
        (the prefix stability ``recovery_stream_states`` relies on)."""
        got, want = SplitMix64(seed, 1), SplitMix64(seed, 1)
        for _ in range(2):
            block = expand_streams(got, n_streams, words)
            assert block.dtype == np.uint64
            assert block.tobytes() == _expand_per_word(want, n_streams,
                                                       words).tobytes()
            assert got.state.dtype == want.state.dtype
            assert got.state.tobytes() == want.state.tobytes()

    def test_zero_word_is_remapped(self):
        assert int(SplitMix64(ZERO_FIRST_SEED, 1).next_uint64()[0]) == 0
        block = expand_streams(SplitMix64(ZERO_FIRST_SEED, 1), 2)
        assert block[0, 0] == _ZERO_REMAP
        assert not np.any(block == 0)

    def test_seed_streams_is_one_expansion(self):
        sm = SplitMix64(77, 1)
        head, tail = expand_streams(sm, 3), expand_streams(sm, 5)
        assert np.array_equal(np.vstack([head, tail]), seed_streams(77, 8))

    def test_rejects_multi_stream_generator(self):
        with pytest.raises(ValueError, match="single-stream"):
            expand_streams(SplitMix64(1, 2), 4)


class TestRotl:
    def test_rotl_matches_python(self):
        x = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        k = 13
        expected = ((0x0123456789ABCDEF << k) | (0x0123456789ABCDEF >> (64 - k))) & (2**64 - 1)
        assert int(rotl64(x, k)[0]) == expected

    def test_rotl_zero_is_identity(self):
        x = np.array([12345], dtype=np.uint64)
        assert int(rotl64(x, 0)[0]) == 12345

    def test_rotl_64_is_identity(self):
        x = np.array([987654321], dtype=np.uint64)
        assert int(rotl64(x, 64)[0]) == 987654321


class TestXoshiro256Plus:
    def test_vectorised_matches_scalar_reference(self):
        gen = Xoshiro256Plus(3, n_streams=5)
        states_before = gen.state.copy()
        outputs = gen.next_uint64()
        for s in range(5):
            new_state, out = reference_scalar_next(states_before[s])
            assert int(outputs[s]) == out
            assert np.array_equal(gen.state[s], new_state)

    def test_streams_decorrelated(self):
        gen = Xoshiro256Plus(0, n_streams=64)
        draws = np.stack([gen.next_double() for _ in range(50)])
        # Correlation between adjacent streams should be small.
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.5

    def test_next_double_bounds(self):
        gen = Xoshiro256Plus(11, n_streams=128)
        for _ in range(20):
            d = gen.next_double()
            assert np.all((d >= 0.0) & (d < 1.0))

    def test_next_below_respects_bound(self):
        gen = Xoshiro256Plus(5, n_streams=256)
        vals = gen.next_below(17)
        assert np.all((vals >= 0) & (vals < 17))

    def test_next_below_rejects_zero_bound(self):
        gen = Xoshiro256Plus(5, n_streams=4)
        with pytest.raises(ValueError):
            gen.next_below(0)

    def test_next_double_block_matches_repeated_calls(self):
        # The bulk fill is byte-identical to stacking next_double() outputs
        # and leaves the state exactly n_calls steps ahead — the fused
        # megabatch draw and the per-call draw are interchangeable.
        for n_streams in (1, 3, 64):
            bulk = Xoshiro256Plus(99, n_streams=n_streams)
            loop = Xoshiro256Plus(99, n_streams=n_streams)
            block = bulk.next_double_block(23)
            assert block.shape == (23, n_streams)
            expected = np.vstack([loop.next_double() for _ in range(23)])
            np.testing.assert_array_equal(block, expected)
            np.testing.assert_array_equal(bulk.state, loop.state)

    def test_next_double_block_resumes_mid_stream(self):
        bulk = Xoshiro256Plus(5, n_streams=8)
        loop = Xoshiro256Plus(5, n_streams=8)
        bulk.next_double_block(3)
        for _ in range(3):
            loop.next_double()
        np.testing.assert_array_equal(bulk.next_double(), loop.next_double())

    def test_next_double_block_edge_sizes(self):
        rng = Xoshiro256Plus(1, n_streams=4)
        before = rng.state.copy()
        assert rng.next_double_block(0).shape == (0, 4)
        np.testing.assert_array_equal(rng.state, before)
        with pytest.raises(ValueError):
            rng.next_double_block(-1)

    def test_copy_is_independent(self):
        gen = Xoshiro256Plus(2, n_streams=3)
        clone = gen.copy()
        a = gen.next_uint64()
        b = clone.next_uint64()
        assert np.array_equal(a, b)
        gen.next_uint64()
        assert not np.array_equal(gen.state, clone.state)

    def test_rejects_all_zero_state(self):
        with pytest.raises(ValueError):
            Xoshiro256Plus(np.zeros((1, 4), dtype=np.uint64))

    def test_jump_streams_extends(self):
        gen = Xoshiro256Plus(0, n_streams=2)
        bigger = gen.jump_streams(3)
        assert bigger.n_streams == 5

    def test_deterministic_given_seed(self):
        a = Xoshiro256Plus(99, n_streams=8)
        b = Xoshiro256Plus(99, n_streams=8)
        assert np.array_equal(a.next_uint64(), b.next_uint64())

    def test_coin_flip_balanced(self):
        gen = Xoshiro256Plus(1, n_streams=2048)
        flips = gen.next_bool()
        frac = flips.mean()
        assert 0.4 < frac < 0.6


class TestXorwow:
    def test_layouts_produce_identical_outputs(self):
        aos = XorwowState(seed=4, n_streams=64, layout=AOS)
        soa = XorwowState(seed=4, n_streams=64, layout=SOA)
        for _ in range(5):
            assert np.array_equal(aos.next_uint32(), soa.next_uint32())

    def test_next_float_bounds(self):
        gen = XorwowState(seed=1, n_streams=32)
        f = gen.next_float()
        assert np.all((f >= 0.0) & (f < 1.0))

    def test_next_below(self):
        gen = XorwowState(seed=1, n_streams=128)
        v = gen.next_below(10)
        assert np.all((v >= 0) & (v < 10))

    def test_as_layout_round_trip(self):
        gen = XorwowState(seed=3, n_streams=16, layout=AOS)
        converted = gen.as_layout(SOA)
        assert converted.layout == SOA
        assert np.array_equal(gen.next_uint32(), converted.next_uint32())

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            XorwowState(seed=0, n_streams=2, layout="bogus")

    def test_state_bytes(self):
        gen = XorwowState(seed=0, n_streams=100)
        assert gen.state_bytes == 100 * 6 * 4

    def test_output_not_constant(self):
        gen = XorwowState(seed=0, n_streams=4)
        outs = [gen.next_uint32() for _ in range(4)]
        assert len({int(o[0]) for o in outs}) > 1


class TestStateAddresses:
    def test_aos_addresses_are_strided(self):
        addrs = state_addresses(32, field=1, layout=AOS)
        assert np.all(np.diff(addrs) == 24)

    def test_soa_addresses_are_contiguous(self):
        addrs = state_addresses(32, field=1, layout=SOA)
        assert np.all(np.diff(addrs) == 4)

    def test_soa_fewer_sectors_than_aos(self):
        from repro.gpusim import sectors_for_request

        aos = sectors_for_request(state_addresses(32, 0, AOS), access_bytes=4)
        soa = sectors_for_request(state_addresses(32, 0, SOA), access_bytes=4)
        assert soa < aos
        assert soa == 4  # 32 threads x 4 bytes / 32-byte sectors

    def test_field_out_of_range(self):
        with pytest.raises(ValueError):
            state_addresses(32, field=6)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            state_addresses(32, field=0, layout="xxx")
