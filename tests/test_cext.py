"""The compiled kernels of ``repro.backend.cext``: build, cache, load, bits.

Bit-identity of the stress kernel on real and hypothesis-random layouts is
checked in ``tests/test_output_layer.py``, and of the merge and the draw
on whole runs in ``tests/test_conformance.py``,
``tests/test_per_batch_oracle.py``, ``tests/test_merge_blocks.py`` and
``tests/test_prng_lanes.py``. This file covers the build contract (pinned
flags, cache key, atomic cache writes, every reason the kernels can be
unavailable), the fallback to NumPy, arguments outside each kernel's
contract, the merge on blocks with every special input, and operands on
which a fused multiply-add would round differently. Tests that compile
skip only when no C compiler is on ``PATH``.
"""
from __future__ import annotations

import dataclasses
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import cext
from repro.backend.cext import check_kernel
from repro.backend.numpy_backend import NumpyBackend
from repro.core import StepBatch, UpdateWorkspace, merge_batch
from repro.core.layout import Layout
from repro.core.params import MERGE_POLICIES
from repro.core.updates import merge_segments, prepare_block
from repro.graph import LeanGraph
from repro.metrics.stress import numpy_pair_stress_terms, pair_stress_terms
from repro.prng import Xoshiro256Plus
from repro.prng.xoshiro import numpy_double_block
from xoshiro_reference import sequential_double_block

needs_cc = pytest.mark.skipif(cext.find_compiler() is None,
                              reason="no C compiler on PATH")


def test_compile_flags_are_pinned():
    # Changing a flag changes the cache key and may change bits: -O2 with
    # contraction off, position-independent, never -ffast-math.
    assert cext.CFLAGS == ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@needs_cc
class TestBuild:
    def test_cached_build_is_reused(self, tmp_path):
        first = cext.build(dirs=[tmp_path])
        assert first.parent == tmp_path and first.is_file()
        stamp = first.stat().st_mtime_ns
        assert cext.build(dirs=[tmp_path]) == first
        assert first.stat().st_mtime_ns == stamp
        # Only the library is left behind, no temporary file.
        assert list(tmp_path.iterdir()) == [first]

    def test_key_covers_source_flags_and_compiler(self, monkeypatch):
        compiler = cext.find_compiler()
        text = cext.SOURCE.read_bytes()
        name = cext.library_name(text, compiler)
        assert cext.library_name(text + b"\n", compiler) != name
        monkeypatch.setattr(cext, "CFLAGS", cext.CFLAGS + ("-g",))
        assert cext.library_name(text, compiler) != name

    def test_compiler_runs_by_the_name_found_on_path(self, tmp_path, monkeypatch):
        # A wrapper linked under each compiler name (ccache, for one) picks
        # the compiler by the name it was run as: run the link, not its target.
        real = cext.find_compiler()
        wrapper = tmp_path / "wrapper"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'case "${{0##*/}}" in cc) exec "{real}" "$@" ;; esac\n'
            'echo "wrapper: run as $0" >&2\n'
            "exit 1\n")
        wrapper.chmod(0o755)
        bindir = tmp_path / "bin"
        bindir.mkdir()
        (bindir / "cc").symlink_to(wrapper)
        monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
        assert cext.find_compiler() == str(bindir / "cc")
        text = cext.SOURCE.read_bytes()
        assert (cext.library_name(text, str(bindir / "cc"))
                != cext.library_name(text, str(wrapper)))
        built = cext.build(dirs=[tmp_path / "cache"])
        assert isinstance(built, Path), built
        assert isinstance(cext.load(built), cext.CompiledKernels)

    def test_unwritable_first_directory_falls_through(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        built = cext.build(dirs=[blocker / "cache", tmp_path / "user"])
        assert built.parent == tmp_path / "user"

    def test_no_writable_directory_is_a_reason(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        reason = cext.build(dirs=[blocker / "a", blocker / "b"])
        assert reason.startswith("unwritable cache: ")

    def test_build_error_is_a_reason(self, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int pair_stress_terms(void) { return }\n")
        reason = cext.build(source=broken, dirs=[tmp_path])
        assert reason.startswith("build error: ") and "error" in reason[13:]
        assert [p.name for p in tmp_path.iterdir()] == ["broken.c"]

    def test_self_test_mismatch_is_a_reason(self, tmp_path):
        source = cext.SOURCE.read_text()
        assert "total / 4.0" in source
        skewed = tmp_path / "skewed.c"
        skewed.write_text(source.replace("total / 4.0", "total * 0.2500000000000001"))
        built = cext.build(source=skewed, dirs=[tmp_path])
        reason = cext.load(built)
        assert reason.startswith("self-test mismatch: pair_stress_terms")

    @pytest.mark.parametrize("kernel,old,new", [
        # Contracted into an FMA: the merge self-test's operand pair sees it.
        ("merge_block", "mag = sqrt(dx * dx + dy * dy)",
         "mag = sqrt(fma(dx, dx, dy * dy))"),
        ("double_block", "* 0x1.0p-53", "* 0x1.0000000000001p-53"),
    ])
    def test_each_kernel_is_self_tested(self, tmp_path, kernel, old, new):
        source = cext.SOURCE.read_text()
        assert source.count(old) == 1
        skewed = tmp_path / "skewed.c"
        skewed.write_text(source.replace(old, new))
        built = cext.build(source=skewed, dirs=[tmp_path])
        reason = cext.load(built)
        assert reason.startswith(f"self-test mismatch: {kernel}")

    def test_contracting_numpy_norm_makes_the_kernels_unavailable(
            self, tmp_path, monkeypatch):
        # A NumPy build whose einsum fused dx*dx + dy*dy would round the
        # norm differently from the C loop: the kernels must not load.
        def fused(x: float, y: float) -> float:
            if not (math.isfinite(x) and math.isfinite(y * y)):
                return x * x + y * y
            try:
                return float(Fraction(x) ** 2 + Fraction(y * y))
            except OverflowError:
                return math.inf

        def fused_sqnorm(self, a, out=None):
            rows = [fused(x, y) for x, y in a]
            result = np.array(rows, dtype=np.float64).reshape(a.shape[0])
            if out is None:
                return result
            out[...] = result
            return out

        monkeypatch.setattr(NumpyBackend, "rowwise_sqnorm", fused_sqnorm)
        reason = cext.load(cext.build(dirs=[tmp_path]))
        assert reason.startswith("self-test mismatch: merge_block")


def test_merge_codes_name_every_merge_policy():
    """``cext`` cannot import ``repro.core`` (``core`` imports ``cext``), so
    its policy numbers are keyed by a copy of the policy list."""
    assert set(cext.MERGE_CODES) == set(MERGE_POLICIES)


def test_no_compiler_is_a_reason(monkeypatch, tmp_path):
    monkeypatch.setattr(cext, "find_compiler", lambda: None)
    assert cext.build(dirs=[tmp_path]).startswith("no C compiler on PATH")


#: Three nodes, one path visiting node 1 twice, and a layout for them.
GRAPH = LeanGraph.from_paths(node_lengths=[2, 3, 4], paths=[[0, 1, 2, 1]])
LAYOUT = Layout(np.arange(12, dtype=np.float64).reshape(6, 2) ** 1.5)


def _numpy_terms(flat_i, flat_j):
    return numpy_pair_stress_terms(LAYOUT.coords.reshape(-1), GRAPH.step_nodes,
                                   GRAPH.step_positions, flat_i, flat_j)


def test_unavailable_kernels_fall_back_to_numpy(monkeypatch):
    flat_i, flat_j = np.array([0, 0, 1, 3]), np.array([1, 2, 3, 0])
    want = _numpy_terms(flat_i, flat_j)
    monkeypatch.setattr(cext, "_load", lambda: "forced unavailable")
    assert cext.kernels() is None and cext.status() == "forced unavailable"
    assert pair_stress_terms(LAYOUT, GRAPH, flat_i, flat_j).tobytes() == want.tobytes()
    out = np.full(4, np.nan)
    assert pair_stress_terms(LAYOUT, GRAPH, flat_i, flat_j, out=out) is out
    assert out.tobytes() == want.tobytes()


@needs_cc
class TestKernel:
    def test_out_of_range_steps_and_nodes_keep_numpy_behaviour(self, compiled):
        # Negative step indices wrap, as NumPy's take does.
        flat_i, flat_j = np.array([-1, 0, -4]), np.array([0, -2, 1])
        assert not compiled.pair_stress_terms(
            LAYOUT.coords.reshape(-1), GRAPH.step_nodes, GRAPH.step_positions,
            flat_i, flat_j, np.empty(3))
        assert (pair_stress_terms(LAYOUT, GRAPH, flat_i, flat_j).tobytes()
                == _numpy_terms(flat_i, flat_j).tobytes())
        with pytest.raises(IndexError):
            pair_stress_terms(LAYOUT, GRAPH, np.array([0]), np.array([4]))
        # A layout with fewer nodes than the graph: node 2 has no endpoints.
        small = Layout(LAYOUT.coords[:4].copy())
        with pytest.raises(IndexError):
            pair_stress_terms(small, GRAPH, np.array([0]), np.array([2]))

    def test_arguments_outside_the_contract_are_declined(self, compiled):
        flat = LAYOUT.coords.reshape(-1)
        nodes, positions = GRAPH.step_nodes, GRAPH.step_positions
        pairs = np.array([0, 1]), np.array([2, 3])
        out = np.empty(2)
        assert compiled.pair_stress_terms(flat, nodes, positions, *pairs, out)
        assert not compiled.pair_stress_terms(flat.astype(np.float32), nodes,
                                              positions, *pairs, out)
        assert not compiled.pair_stress_terms(flat, nodes.astype(np.int32),
                                              positions, *pairs, out)
        assert not compiled.pair_stress_terms(flat, nodes, positions,
                                              pairs[0], pairs[1][:1], out)
        assert not compiled.pair_stress_terms(flat, nodes, positions, *pairs,
                                              np.empty(4)[::2])

    def test_wrapping_position_differences_match_numpy(self, compiled):
        # Positions whose int64 difference wraps, and |INT64_MIN|.
        nodes = np.array([0, 1, 0, 1], dtype=np.int64)
        positions = np.array([-2**63, 2**63 - 1, 0, -2**63], dtype=np.int64)
        flat = np.array([0.0, 1.0, 2.0, 3.0, -1.0, 5.0, 7.0, 0.5])
        flat_i, flat_j = np.repeat(np.arange(4), 4), np.tile(np.arange(4), 4)
        out = np.empty(16)
        assert compiled.pair_stress_terms(flat, nodes, positions, flat_i, flat_j, out)
        want = numpy_pair_stress_terms(flat, nodes, positions, flat_i, flat_j)
        assert out.tobytes() == want.tobytes()


def _emulated_term(dx: float, dy: float, d_ref: float, fused: str) -> float:
    """The stress term of a pair whose four endpoint combinations share
    ``(dx, dy)``: one rounding per operation (``fused=""``), or with one
    site contracted into a fused multiply-add, which rounds the exact
    result once: ``fma(dx, dx, dy*dy)`` (``"dx"``), ``fma(dy, dy, dx*dx)``
    (``"dy"``) or ``total = fma(rel, rel, total)`` (``"acc"``). Python's
    float operations round once each."""
    if fused == "dx":
        sq = float(Fraction(dx) ** 2 + Fraction(dy * dy))
    elif fused == "dy":
        sq = float(Fraction(dx * dx) + Fraction(dy) ** 2)
    else:
        sq = dx * dx + dy * dy
    rel = (math.sqrt(sq) - d_ref) / d_ref
    total = 0.0
    for _ in range(4):
        if fused == "acc":
            total = float(Fraction(total) + Fraction(rel) ** 2)
        else:
            total += rel * rel
    return total / 4.0


@needs_cc
@pytest.mark.parametrize("dx, dy, d_ref", [
    (float.fromhex("0x1.260ffb4d13655p+5"), float.fromhex("0x1.16dfd85149754p+4"), 41),
    (float.fromhex("0x1.d3ac7f4a6e095p+5"), float.fromhex("0x1.30ce7eb514048p+6"), 96),
])
def test_fma_sensitive_operands_keep_numpy_bits(compiled, dx, dy, d_ref):
    plain = _emulated_term(dx, dy, float(d_ref), "")
    # The operands discriminate: contracting any one site moves the bits.
    for fused in ("dx", "dy", "acc"):
        assert _emulated_term(dx, dy, float(d_ref), fused) != plain, fused
    # Node 0 sits at the origin, both endpoints of node 1 at (dx, dy).
    graph = LeanGraph.from_paths(node_lengths=[d_ref, 1], paths=[[0, 1]])
    layout = Layout(np.array([[0.0, 0.0], [0.0, 0.0], [dx, dy], [dx, dy]]))
    flat_i, flat_j = np.array([0]), np.array([1])
    want = numpy_pair_stress_terms(layout.coords.reshape(-1), graph.step_nodes,
                                   graph.step_positions, flat_i, flat_j)
    assert want[0] == plain
    got = pair_stress_terms(layout, graph, flat_i, flat_j)
    assert got.tobytes() == want.tobytes()



# --------------------------------------------------------------------------
# The merge kernel
# --------------------------------------------------------------------------
def _batch(point_i, point_j, d_ref) -> StepBatch:
    point_i = np.asarray(point_i, dtype=np.int64)
    point_j = np.asarray(point_j, dtype=np.int64)
    zeros = np.zeros(point_i.size, dtype=np.int64)
    return StepBatch(path=zeros, flat_i=zeros, flat_j=zeros,
                     node_i=point_i // 2, node_j=point_j // 2,
                     vis_i=point_i % 2, vis_j=point_j % 2,
                     d_ref=np.asarray(d_ref, dtype=np.float64),
                     in_cooling=np.zeros(point_i.size, dtype=bool))


def _both_merges(compiled, coords, batch, merge, segments, eta=4.0):
    """``(compiled, numpy)`` results of one block merge from ``coords``."""
    ws = UpdateWorkspace(1)
    block = prepare_block(batch, eta, ws, segments, coords.shape[0])
    got = coords.copy()
    assert compiled.merge_block(got, block, merge, ws.term_delta,
                                ws.merge_delta)
    expect = coords.copy()
    with np.errstate(all="ignore"):
        merge_segments(expect, block, merge, ws)
    return got, expect


def _self_test_block():
    terms = np.array(cext.MERGE_TEST_TERMS)
    return (np.array(cext.MERGE_TEST_COORDS),
            _batch(terms[:, 0], terms[:, 1], terms[:, 2]))


def test_self_test_block_covers_the_special_inputs():
    coords, batch = _self_test_block()
    point_i = 2 * batch.node_i + batch.vis_i
    point_j = 2 * batch.node_j + batch.vis_j
    segments = [np.concatenate([point_i[s:s + 6], point_j[s:s + 6]])
                for s in (0, 6)]
    assert len(batch) == 12                               # two segments
    assert set(segments[0]) & set(segments[1])            # a shared point
    assert all(np.unique(seg).size < seg.size for seg in segments)  # collisions
    pos_i, pos_j = coords[point_i], coords[point_j]
    assert (np.hypot(*(pos_i - pos_j).T) < 1e-9).any()    # coincident
    assert (batch.d_ref <= 0).any()                       # d_ref <= 0
    assert ((4.0 / batch.d_ref[batch.d_ref > 0] ** 2) >= 1).any()  # μ = 1
    assert np.signbit(coords[coords == 0]).any()          # signed zeros
    assert np.isnan(coords).any() and np.isinf(coords).any()
    # Only the first term moves the FMA-sensitive pair, points 4 and 5.
    assert (point_i[0], point_j[0]) == (4, 5)
    assert np.count_nonzero(np.concatenate(segments) == 4) == 1
    assert np.count_nonzero(np.concatenate(segments) == 5) == 1


@needs_cc
@pytest.mark.parametrize("merge", tuple(cext.MERGE_CODES))
class TestMergeKernel:
    def test_self_test_block_matches_numpy(self, compiled, merge):
        coords, batch = _self_test_block()
        got, expect = _both_merges(compiled, coords, batch, merge, 2)
        check_kernel("merge", got, expect)
        assert np.isnan(got).any() and np.isfinite(got).any()

    def test_fma_sensitive_operands_keep_numpy_bits(self, compiled, merge):
        dx, dy = cext.MERGE_TEST_COORDS[4]
        d_ref, eta = 41.0, 4.0
        mu = min(1.0 / (d_ref * d_ref) * eta, 1.0)

        def moved(sq: float):
            """Point j's position after merging one term from the origin."""
            mag = math.sqrt(sq)
            scale = mu * (mag - d_ref) / 2.0
            return (dx / mag) * scale, (dy / mag) * scale

        plain = moved(dx * dx + dy * dy)
        # The operands discriminate: contracting either product moves bits.
        assert moved(float(Fraction(dx) ** 2 + Fraction(dy * dy))) != plain
        assert moved(float(Fraction(dx * dx) + Fraction(dy) ** 2)) != plain
        coords = np.array([[dx, dy], [0.0, 0.0]])
        got, expect = _both_merges(compiled, coords, _batch([0], [1], [d_ref]),
                                   merge, 1, eta)
        assert tuple(expect[1]) == plain
        assert got.tobytes() == expect.tobytes()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), segments=st.integers(2, 4),
           size=st.integers(1, 7), n_points=st.integers(1, 9))
    def test_random_blocks_match_numpy(self, compiled, merge, data, segments,
                                       size, n_points):
        special = st.sampled_from([0.0, -0.0, 1.5, -3.25, 1e300, -1e300,
                                   5e-324, np.inf, -np.inf, np.nan])
        value = st.one_of(st.floats(-50, 50), special)
        coords = np.array(data.draw(st.lists(
            st.tuples(value, value), min_size=n_points, max_size=n_points)),
            dtype=np.float64).reshape(n_points, 2)
        n = segments * size
        index = st.lists(st.integers(0, n_points - 1), min_size=n, max_size=n)
        d_ref = data.draw(st.lists(st.sampled_from(
            [0.0, -1.0, 0.25, 1.0, 3.0, 41.0, 1e-3]), min_size=n, max_size=n))
        batch = _batch(data.draw(index), data.draw(index), d_ref)
        got, expect = _both_merges(compiled, coords, batch, merge, segments)
        check_kernel("merge", got, expect)

    def test_merge_batch_takes_either_path_to_the_same_bits(
            self, compiled, merge, on_fallback):
        coords, batch = _self_test_block()
        got, want = coords.copy(), coords.copy()
        with np.errstate(all="ignore"):
            collisions = merge_batch(got, batch, 4.0, merge,
                                     UpdateWorkspace(6), segments=2)
            expect = on_fallback(merge_batch, want, batch, 4.0, merge,
                                 UpdateWorkspace(6), segments=2)
        check_kernel("merge", got, want)
        assert collisions == expect > 0


def _block_and_coords():
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(10, 2))
    batch = _batch(rng.integers(0, 10, 24), rng.integers(0, 10, 24),
                   rng.choice([0.0, 1.0, 2.5], 24))
    ws = UpdateWorkspace(8)
    return coords, prepare_block(batch, 1.0, ws, 3, 10), ws, batch


@needs_cc
class TestMergeContract:
    @pytest.mark.parametrize("change", [np.asfortranarray,
                                        lambda c: c.astype(np.float32)],
                             ids=["fortran", "float32"])
    def test_coordinates_outside_the_contract_are_declined(self, compiled,
                                                           change):
        coords, block, ws, _ = _block_and_coords()
        other = change(coords)
        before = other.copy()
        assert not compiled.merge_block(other, block, "hogwild",
                                        ws.term_delta, ws.merge_delta)
        assert np.array_equal(other, before)

    @pytest.mark.parametrize("field", ["points", "inverse", "touched", "counts"])
    def test_int32_indices_are_declined(self, compiled, field):
        coords, block, ws, _ = _block_and_coords()
        narrowed = dataclasses.replace(
            block, **{field: getattr(block, field).astype(np.int32)})
        before = coords.copy()
        assert not compiled.merge_block(coords, narrowed, "hogwild",
                                        ws.term_delta, ws.merge_delta)
        assert coords.tobytes() == before.tobytes()

    def test_read_only_coordinates_and_unknown_policy_are_declined(self, compiled):
        coords, block, ws, _ = _block_and_coords()
        frozen = coords.copy()
        frozen.flags.writeable = False
        assert not compiled.merge_block(frozen, block, "hogwild",
                                        ws.term_delta, ws.merge_delta)
        assert not compiled.merge_block(coords, block, "average",
                                        ws.term_delta, ws.merge_delta)

    def test_blocks_that_are_not_compactions_write_nothing(self, compiled):
        coords, block, ws, _ = _block_and_coords()
        before = coords.copy()
        broken = [
            dataclasses.replace(block, touched=block.touched[::-1].copy()),
            dataclasses.replace(block, touched=block.touched[:-1].copy(),
                                counts=block.counts[:-1].copy()),
            dataclasses.replace(block, inverse=block.inverse + 1),
        ]
        far = block.touched.copy()
        far[-1] = 10  # past the last point
        broken.append(dataclasses.replace(block, touched=far))
        for bad in broken:
            assert not compiled.merge_block(coords, bad, "accumulate",
                                            ws.term_delta, ws.merge_delta)
            assert coords.tobytes() == before.tobytes()
        assert compiled.merge_block(coords, block, "accumulate",
                                    ws.term_delta, ws.merge_delta)

    @pytest.mark.parametrize("merge", tuple(cext.MERGE_CODES))
    def test_fallback_takes_out_of_contract_coordinates(self, merge, on_fallback):
        coords, _, _, batch = _block_and_coords()
        fortran = np.asfortranarray(coords)
        got = merge_batch(fortran, batch, 1.0, merge, UpdateWorkspace(8), 3)
        want = coords.copy()
        expect = on_fallback(merge_batch, want, batch, 1.0, merge,
                             UpdateWorkspace(8), 3)
        assert got == expect
        assert fortran.tobytes(order="C") == want.tobytes()


# --------------------------------------------------------------------------
# The draw kernel
# --------------------------------------------------------------------------
@needs_cc
class TestDrawKernel:
    def test_matches_the_numpy_draw(self, compiled):
        for n_streams, n_calls in ((1, 5), (3, 1031), (64, 2000), (5000, 2)):
            state = Xoshiro256Plus(n_calls, n_streams=n_streams).state
            got, expect = np.empty((n_calls, n_streams)), np.empty((n_calls, n_streams))
            got_state, expect_state = state.copy(), state.copy()
            assert compiled.double_block(got_state, got)
            numpy_double_block(expect_state, expect)
            assert got.tobytes() == expect.tobytes()
            assert got_state.tobytes() == expect_state.tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_state_takes_the_fallback(self, compiled, layout):
        rng = Xoshiro256Plus(6, n_streams=8)
        expected, expected_state = sequential_double_block(rng.state, 40)
        if layout == "fortran":
            rng.state = np.asfortranarray(rng.state)
        else:
            wide = np.zeros((8, 8), dtype=np.uint64)
            wide[:, ::2] = rng.state
            rng.state = wide[:, ::2]
        assert not compiled.double_block(rng.state, np.empty((40, 8)))
        assert rng.next_double_block(40).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(rng.state, expected_state)

    def test_outputs_outside_the_contract_are_declined(self, compiled):
        state = Xoshiro256Plus(1, n_streams=4).state.copy()
        before = state.copy()
        assert not compiled.double_block(state, np.empty((3, 5)))
        assert not compiled.double_block(state, np.empty((3, 4), dtype=np.float32))
        assert not compiled.double_block(state.astype(np.int64), np.empty((3, 4)))
        np.testing.assert_array_equal(state, before)
        assert compiled.double_block(state, np.empty((0, 4)))
        np.testing.assert_array_equal(state, before)
