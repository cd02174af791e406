"""The compiled kernels of ``repro.backend.cext``: build, cache, load, bits.

Bit-identity of the stress kernel on real and hypothesis-random layouts is
checked in ``tests/test_output_layer.py``; this file covers the build
contract (pinned flags, cache key, atomic cache writes, every reason the
kernels can be unavailable), the fallback to NumPy, and operands on which
a fused multiply-add would round differently. Tests that compile skip only
when no C compiler is on ``PATH``.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.backend import cext
from repro.core.layout import Layout
from repro.graph import LeanGraph
from repro.metrics.stress import numpy_pair_stress_terms, pair_stress_terms

needs_cc = pytest.mark.skipif(cext.find_compiler() is None,
                              reason="no C compiler on PATH")


@pytest.fixture()
def compiled():
    kernels = cext.kernels()
    assert kernels is not None, cext.status()
    return kernels


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

