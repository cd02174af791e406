"""The layout hot path's execution backend and its compiled kernels.

:mod:`repro.backend.numpy_backend` holds the one execution backend,
:data:`NUMPY_BACKEND`: touched-point compaction, the three write-merge
scatters, row-wise squared norms and the fused iteration entry point
``run_iteration``, all over host NumPy arrays. Every engine
(``engine.backend``), shm worker and bench case runs on it.
``LayoutParams(backend=...)`` and ``repro layout --backend`` accept only
its name, ``"numpy"``.

:mod:`repro.backend.cext` builds exact C kernels at first use and loads
them with ``ctypes``. Their callers -- :func:`repro.metrics.stress.pair_stress_terms`,
the block merge :func:`repro.core.updates.merge_batch` and
:meth:`repro.prng.xoshiro.Xoshiro256Plus.next_double_block` -- use them
when they load and keep their NumPy path, with the same bits, when they do
not.
"""
from .numpy_backend import NUMPY_BACKEND, NumpyBackend

__all__ = ["NUMPY_BACKEND", "NumpyBackend"]
