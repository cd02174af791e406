"""Exact compiled kernels: C built at first use and loaded with ``ctypes``.

``cext.c`` holds C versions of NumPy kernels. Each evaluates the same
IEEE 754 operations in the same order as the NumPy code it stands in for,
so its results are bit-identical by construction as long as the compiler
neither contracts nor reassociates (:data:`CFLAGS`).

The library is built once per cache key with the system C compiler. The
key hashes the source, the flags and the compiler's identity (the path it
is run by, and the file that path resolves to with its ``stat``, so no
compiler runs just to identify itself). The build is written atomically
(``os.replace``) into this package's ``__pycache__``, or into
``~/.cache/repro`` when that is not writable. The library is loaded
at the first call of :func:`kernels`, never at import, and is self-tested
bit for bit against the NumPy reference before any caller sees it. When
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

from .base import check_kernel

__all__ = ["CFLAGS", "CompiledKernels", "build", "kernels", "status"]

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


class CompiledKernels:
    """The loaded library. Arguments are checked here, loops run in C."""

    def __init__(self, path: Path):
        self._lib = ctypes.CDLL(str(path))
        self._stress = self._lib.pair_stress_terms
        self._stress.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p]
        self._stress.restype = ctypes.c_int

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


def _vector(a, dtype) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and a.flags.aligned)


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


def _self_test(compiled: CompiledKernels) -> None:
    """Every kernel against its NumPy reference, bit for bit, on inputs
    with signed zeros, subnormal, huge and non-finite coordinates, zero
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
