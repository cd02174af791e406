"""Exact compiled kernels: C built at first use and loaded with ``ctypes``.

``cext.c`` holds C versions of NumPy kernels. Each evaluates the same
IEEE 754 operations in the same order as the NumPy code it stands in for,
so its results are bit-identical by construction as long as the compiler
neither contracts nor reassociates (:data:`CFLAGS`):

* :meth:`CompiledKernels.pair_stress_terms` for
  :func:`repro.metrics.stress.numpy_pair_stress_terms`;
* :meth:`CompiledKernels.merge_block` for
  :func:`repro.core.updates.merge_segments`, one call per merge block;
* :meth:`CompiledKernels.double_block` for
  :func:`repro.prng.xoshiro.numpy_double_block`, one call per
  ``next_double_block``.

Each caller keeps the NumPy function as its fallback: it runs whenever the
kernels do not load or an argument is outside a kernel's contract.

The library is built once per cache key with the system C compiler. The
key hashes the source, the flags and the compiler's identity (the path it
is run by, and the file that path resolves to with its ``stat``, so no
compiler runs just to identify itself). The build is written atomically
(``os.replace``) into this package's ``__pycache__``, or into
``~/.cache/repro`` when that is not writable. The library is loaded
at the first call of :func:`kernels`, never at import (in a layout run,
the first PRNG draw), and every kernel is self-tested bit for bit against
its NumPy reference before any caller sees it. When
anything fails -- no compiler, a build error, no writable cache, a
self-test mismatch -- :func:`kernels` returns ``None``, :func:`status`
gives the reason, and callers keep their NumPy path.

This is the only module that loads a shared library (the CEXT001 contract
of ``repro analyze``).
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["CFLAGS", "CompiledKernels", "MERGE_CODES", "build", "check_kernel",
           "kernels", "status"]

#: Compile flags. ``-ffp-contract=off``: GCC contracts ``a*b + c`` into one
#: fused multiply-add by default wherever the target has one (aarch64, for
#: instance), and an FMA rounds once where NumPy rounds twice. Never
#: ``-ffast-math``, which reassociates and flushes subnormals.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The kernels' source, shipped as package data.
SOURCE = Path(__file__).with_name("cext.c")

#: Compiler names tried on ``PATH``, in order.
COMPILERS = ("cc", "gcc", "clang")

#: Seconds one build may take before it counts as failed.
BUILD_TIMEOUT_S = 120.0


def find_compiler() -> Optional[str]:
    """Path of the first C compiler on ``PATH``, or ``None``.

    The path is not resolved: a wrapper such as ``ccache`` links every
    compiler name to one file and picks the compiler from the name it is
    run by.
    """
    for name in COMPILERS:
        found = shutil.which(name)
        if found:
            return found
    return None


def cache_dirs() -> tuple:
    """Where builds are cached, in order of preference."""
    return (Path(__file__).with_name("__pycache__"),
            Path(os.path.expanduser("~")) / ".cache" / "repro")


def library_name(source: bytes, compiler: str) -> str:
    """File name of the build of ``source`` by ``compiler`` with :data:`CFLAGS`."""
    real = os.path.realpath(compiler)
    st = os.stat(real)
    key = hashlib.sha256(source)
    key.update("\0".join(CFLAGS).encode())
    key.update(f"\0{compiler}\0{real}\0{st.st_dev}\0{st.st_ino}\0"
               f"{st.st_size}\0{st.st_mtime_ns}".encode())
    return f"cext-{key.hexdigest()[:32]}.so"


#: ``merge_block``'s policy numbers (``cext.c``), keyed by
#: :data:`repro.core.params.MERGE_POLICIES` (not imported: ``core`` imports
#: this module).
MERGE_CODES = {"hogwild": 0, "accumulate": 1, "last_writer": 2}


def _function(lib, name: str, restype, *argtypes):
    fn = getattr(lib, name)
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn


class CompiledKernels:
    """The loaded library. Arguments are checked here, loops run in C."""

    def __init__(self, path: Path):
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self._lib = ctypes.CDLL(str(path))
        self._stress = _function(self._lib, "pair_stress_terms", ctypes.c_int,
                                 ptr, i64, ptr, ptr, i64, ptr, ptr, i64, ptr)
        self._merge = _function(self._lib, "merge_block", ctypes.c_int,
                                ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                i64, i64, i64, ctypes.c_int, ptr, ptr)
        self._draw = _function(self._lib, "double_block", None,
                               ptr, i64, i64, ptr)

    def pair_stress_terms(self, flat: np.ndarray, step_nodes: np.ndarray,
                          step_positions: np.ndarray, flat_i: np.ndarray,
                          flat_j: np.ndarray, out: np.ndarray) -> bool:
        """Write :func:`repro.metrics.stress.pair_stress_terms` into ``out``.

        Returns ``False``, with ``out`` partly written, when an argument is
        outside the kernel's contract: a dtype other than float64
        coordinates and int64 indices, arrays that are not 1-D, contiguous
        and aligned, sizes that differ, or a step index or node id out of
        range. The caller then evaluates the call in NumPy.
        """
        if not (_vector(flat, np.float64) and _vector(step_nodes, np.int64)
                and _vector(step_positions, np.int64)
                and _vector(flat_i, np.int64) and _vector(flat_j, np.int64)
                and _vector(out, np.float64) and out.flags.writeable
                and flat_i.size == flat_j.size == out.size):
            return False
        n_steps = min(step_nodes.size, step_positions.size)
        return self._stress(
            flat.ctypes.data, flat.size, step_nodes.ctypes.data,
            step_positions.ctypes.data, n_steps, flat_i.ctypes.data,
            flat_j.ctypes.data, flat_i.size, out.ctypes.data) == 0

    def merge_block(self, coords: np.ndarray, block, merge: str,
                    delta: np.ndarray, sums: np.ndarray) -> bool:
        """Merge a prepared block (:class:`repro.core.updates.TermBlock`)
        into ``coords`` as :func:`repro.core.updates.merge_segments` does.

        ``delta`` and ``sums`` are float64 scratch of at least 2 and 4
        doubles per segment term. Every array must be writeable, aligned
        and C-contiguous: ``(n, 2)`` float64 coordinates, int64 ``points``
        and ``inverse`` of one ``(segments, 2·size)`` shape, bool
        ``valid``, float64 ``d_safe`` and ``mu`` with one entry per term,
        and int64 ``touched`` and ``counts`` of one length. Otherwise, for
        an unknown policy, or for a block that is not a compaction of
        in-range points, this returns ``False`` with nothing written, and
        the caller merges the block in NumPy.
        """
        policy = MERGE_CODES.get(merge)
        points, inverse = block.points, block.inverse
        size = block.size
        terms = points.size // 2
        if not (policy is not None and _buffer(coords, np.float64, 2)
                and _buffer(points, np.int64, 2 * size)
                and _buffer(inverse, np.int64, 2 * size)
                and inverse.shape == points.shape
                and _buffer(block.valid, np.bool_, None, terms)
                and _buffer(block.d_safe, np.float64, None, terms)
                and _buffer(block.mu, np.float64, None, terms)
                and _buffer(block.touched, np.int64, None)
                and _buffer(block.counts, np.int64, None, block.touched.size)
                and _buffer(delta, np.float64, 2) and delta.size >= 2 * size
                and _buffer(sums, np.float64, 2) and sums.size >= 4 * size):
            return False
        return self._merge(
            _address(coords), coords.shape[0], _address(points),
            _address(block.valid), _address(block.d_safe),
            _address(block.mu), _address(block.touched), _address(inverse),
            _address(block.counts), block.touched.size, points.shape[0],
            size, policy, _address(delta), _address(sums)) == 0

    def double_block(self, state: np.ndarray, out: np.ndarray) -> bool:
        """Fill ``out`` with :func:`repro.prng.xoshiro.numpy_double_block`'s
        draws and advance ``state`` the same number of calls.

        ``state`` is an ``(n_streams, 4)`` uint64 array and ``out`` an
        ``(n_calls, n_streams)`` float64 array, both writeable, aligned and
        C-contiguous; otherwise this returns ``False`` and touches neither.
        """
        if not (_buffer(state, np.uint64, 4)
                and _buffer(out, np.float64, state.shape[0])):
            return False
        if out.size:
            self._draw(_address(state), state.shape[0], out.shape[0],
                       _address(out))
        return True


def _vector(a, dtype) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and a.flags.aligned)


def _buffer(a, dtype, columns: Optional[int], size: Optional[int] = None) -> bool:
    """A writeable, aligned, C-contiguous array of ``dtype``: 2-D with
    ``columns`` columns, or 1-D (``columns=None``) of ``size`` entries."""
    return (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
            and (a.ndim == 2 and a.shape[1] == columns if columns
                 else a.ndim == 1 and size in (None, a.size)))


def _address(a: np.ndarray) -> int:
    """The address of a non-empty writeable buffer's first byte: a fifth of
    the cost of ``a.ctypes.data``, which matters at one call per block."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def build(source: Path = SOURCE,
          dirs: Optional[Sequence[Path]] = None) -> Union[Path, str]:
    """Path of the cached build of ``source``, building it if needed, or
    the reason there is none."""
    compiler = find_compiler()
    if compiler is None:
        return f"no C compiler on PATH (tried {', '.join(COMPILERS)})"
    try:
        text = source.read_bytes()
        name = library_name(text, compiler)
    except OSError as exc:
        return f"cannot read {exc.filename}: {exc.strerror}"
    dirs = cache_dirs() if dirs is None else tuple(dirs)
    for folder in dirs:
        if (folder / name).is_file():
            return folder / name
    unwritable = []
    for folder in dirs:
        try:
            folder.mkdir(parents=True, exist_ok=True)
            handle, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=folder)
        except OSError as exc:
            unwritable.append(f"{folder} ({exc.strerror})")
            continue
        os.close(handle)
        try:
            # The hashed bytes are compiled, from stdin: a source edited
            # meanwhile cannot land under this key.
            proc = subprocess.run(
                [compiler, *CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
                input=text, capture_output=True, timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                lines = proc.stderr.decode(errors="replace").splitlines()
                errors = [line for line in lines if "error" in line] or lines
                return f"build error: {errors[0] if errors else proc.returncode}"
            os.replace(tmp, folder / name)
            return folder / name
        except (OSError, subprocess.SubprocessError) as exc:
            return f"build error: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return f"unwritable cache: {'; '.join(unwritable)}"


def load(path: Path) -> Union[CompiledKernels, str]:
    """Load and self-test the library at ``path``, or give the reason not."""
    try:
        compiled = CompiledKernels(path)
    except (OSError, AttributeError) as exc:
        return f"load error: {exc}"
    try:
        _self_test(compiled)
    except AssertionError as exc:
        return f"self-test mismatch: {exc}"
    return compiled


def check_kernel(kernel: str, got, expect, atol: float = 0.0) -> None:
    """Raise ``AssertionError`` naming ``kernel`` unless ``got`` matches ``expect``.

    Both must have one shape. With ``atol`` > 0 every ``|got - expect|``
    must be at most ``atol``. Otherwise they must be equal: for floats that
    means equal bits, with any NaN matching any NaN.

    The self-tests call this instead of ``numpy.testing``, whose import
    pulls ``unittest`` and more into every process that runs a layout.
    """
    got, expect = np.asarray(got), np.asarray(expect)
    if got.shape != expect.shape:
        raise AssertionError(f"{kernel}: shape {got.shape}, expected {expect.shape}")
    if atol > 0:
        ok = bool(np.all(np.abs(got - expect) <= atol))
    elif got.dtype.kind == "f" and expect.dtype == got.dtype:
        ok = (np.where(np.isnan(got), np.nan, got).tobytes()
              == np.where(np.isnan(expect), np.nan, expect).tobytes())
    else:
        ok = bool(np.array_equal(got, expect))
    if not ok:
        raise AssertionError(f"{kernel}: result differs from the NumPy reference")


def _self_test(compiled: CompiledKernels) -> None:
    """Every kernel against its NumPy reference, bit for bit (any NaN
    matching any NaN)."""
    _test_stress(compiled)
    _test_merge(compiled)
    _test_draw(compiled)


def _test_stress(compiled: CompiledKernels) -> None:
    """Signed zeros, subnormal, huge and non-finite coordinates, zero
    reference distances and coincident endpoints."""
    # Runtime import: the package dependency points metrics -> backend.
    from ..metrics.stress import numpy_pair_stress_terms

    flat = np.array([
        0.0, -0.0, 5e-324, -5e-324,      # node 0: signed zeros, subnormals
        1e300, -1e300, 1.5, 2.5,         # node 1: squares overflow
        np.inf, 0.0, np.nan, 1.0,        # node 2: non-finite
        3.0, 4.0, 3.0, 4.0,              # node 3: coincident endpoints
        -2.0, 7.25, 1e-310, 3.0,         # node 4
    ])
    step_nodes = np.array([0, 1, 2, 3, 4, 3, 0], dtype=np.int64)
    step_positions = np.array([0, 3, 3, 10, 11, 20, 2**62], dtype=np.int64)
    flat_i = np.repeat(np.arange(7, dtype=np.int64), 7)
    flat_j = np.tile(np.arange(7, dtype=np.int64), 7)
    args = (flat, step_nodes, step_positions, flat_i, flat_j)
    got = np.empty(flat_i.size)
    if not compiled.pair_stress_terms(*args, got):
        raise AssertionError("pair_stress_terms: rejected in-range input")
    with np.errstate(all="ignore"):  # the overflows and NaNs are intended
        expect = numpy_pair_stress_terms(*args)
    check_kernel("pair_stress_terms", got, expect)


#: The merge self-test's coordinates, one row per point (point 2v + e is
#: endpoint e of node v). Points 4 and 5 hold an operand pair for which
#: contracting ``dx*dx + dy*dy`` into a fused multiply-add changes the norm
#: and the merged coordinates.
MERGE_TEST_COORDS = (
    (0.0, -0.0), (-0.0, 0.0),                 # signed zeros, coincident
    (3.0, 4.0), (3.0, 4.0),                   # distinct coincident points
    (float.fromhex("0x1.7ce8ac7813f79p+5"),   # the FMA-sensitive pair
     float.fromhex("0x1.d8da0f74647b9p+5")), (0.0, 0.0),
    (1e300, -1e300), (np.inf, 1.0),           # squares overflow; infinite
    (np.nan, 2.0), (-2.0, 7.25),              # NaN
    (1e-310, 5e-324), (5.5, -1.5),            # subnormal
)

#: Two 6-term segments of ``(point_i, point_j, d_ref)``: points repeated
#: within each and shared across them, ``d_ref`` of 0 and -1, μ saturated
#: at 1 (``d_ref`` 0.5 under η = 4) and a term whose two endpoints are one
#: point. Only the first term touches points 4 and 5.
MERGE_TEST_TERMS = (
    (4, 5, 41.0), (2, 3, 2.0), (9, 11, 0.0),
    (9, 2, 0.5), (0, 1, 3.0), (10, 9, 7.0),
    (2, 9, 12.0), (6, 11, 5.0), (7, 2, 1.0),
    (8, 9, 2.5), (11, 11, -1.0), (3, 1, 9.0),
)


def _test_merge(compiled: CompiledKernels) -> None:
    """The compiled merge of :data:`MERGE_TEST_TERMS` on
    :data:`MERGE_TEST_COORDS` under every policy, as one 2-segment block."""
    # Runtime import: the package dependency points core -> backend.
    from ..core.selection import StepBatch
    from ..core.updates import UpdateWorkspace, merge_segments, prepare_block

    coords = np.array(MERGE_TEST_COORDS, dtype=np.float64)
    terms = np.array(MERGE_TEST_TERMS)
    point_i, point_j = terms[:, 0].astype(np.int64), terms[:, 1].astype(np.int64)
    zeros = np.zeros(point_i.size, dtype=np.int64)
    batch = StepBatch(path=zeros, flat_i=zeros, flat_j=zeros,
                      node_i=point_i // 2, node_j=point_j // 2,
                      vis_i=point_i % 2, vis_j=point_j % 2,
                      d_ref=terms[:, 2].copy(),
                      in_cooling=np.zeros(point_i.size, dtype=bool))
    workspace = UpdateWorkspace(6)
    block = prepare_block(batch, 4.0, workspace, 2, coords.shape[0])
    for merge in MERGE_CODES:
        got = coords.copy()
        if not compiled.merge_block(got, block, merge, workspace.term_delta,
                                    workspace.merge_delta):
            raise AssertionError(f"merge_block({merge}): rejected a valid block")
        expect = coords.copy()
        # merge_segments' default displacement function, not the module's
        # current binding: a timing wrapper on that name sees no self-test.
        with np.errstate(all="ignore"):  # the overflows and NaNs are intended
            merge_segments(expect, block, merge, workspace)
        check_kernel(f"merge_block({merge})", got, expect)


def _test_draw(compiled: CompiledKernels) -> None:
    """Nine calls of three streams whose words set the top bits, so the
    first sum wraps and every shift and rotation carries."""
    # Runtime import: the package dependency points prng -> backend.
    from ..prng.xoshiro import numpy_double_block

    state = np.array([[2**64 - 1, 2**63, 1, 2**64 - 1],
                      [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                       0x94D049BB133111EB, 0x2545F4914F6CDD1D],
                      [1, 0, 0, 0]], dtype=np.uint64)
    got, expect = np.empty((9, 3)), np.empty((9, 3))
    got_state, expect_state = state.copy(), state.copy()
    if not compiled.double_block(got_state, got):
        raise AssertionError("double_block: rejected a valid state")
    numpy_double_block(expect_state, expect)
    check_kernel("double_block", got, expect)
    check_kernel("double_block state", got_state, expect_state)


@functools.lru_cache(maxsize=None)
def _load() -> Union[CompiledKernels, str]:
    built = build()
    return built if isinstance(built, str) else load(built)


def kernels() -> Optional[CompiledKernels]:
    """The self-tested compiled kernels, or ``None`` when unavailable.

    The first call builds (once per cache key) and loads the library.
    """
    loaded = _load()
    return loaded if isinstance(loaded, CompiledKernels) else None


def status() -> str:
    """``"loaded"``, or why the compiled kernels are unavailable."""
    loaded = _load()
    return "loaded" if isinstance(loaded, CompiledKernels) else loaded
