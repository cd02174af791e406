"""Pluggable array backends for the layout hot path.

``repro.backend`` decouples the numerical kernels (:mod:`repro.core.updates`,
:mod:`repro.core.fused`, the engines) from NumPy: every hot-path operation
goes through an :class:`ArrayBackend`, and the registry maps names to ready,
self-tested backends. ``numpy`` is the one registered backend. Select one
via ``LayoutParams(backend=...)``, the ``--backend`` CLI flag, or the
``REPRO_BACKEND`` environment variable.

See :mod:`repro.backend.registry` for how to register a new backend and
``tests/test_conformance.py`` for the cross-engine matrix every backend must
pass (required for any future backend PR, per ROADMAP).

:mod:`repro.backend.cext` is not a registered backend: it builds exact C
kernels at first use and loads them with ``ctypes``; callers such as
:func:`repro.metrics.stress.pair_stress_terms` use them when they load and
keep their NumPy path when they do not.
"""
from .base import MERGE_POLICIES, ArrayBackend
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendUnavailable,
    available_backends,
    backend_failures,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)

__all__ = [
    "ArrayBackend",
    "MERGE_POLICIES",
    "BackendUnavailable",
    "available_backends",
    "backend_failures",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
]


def _numpy_factory() -> ArrayBackend:
    from .numpy_backend import NumpyBackend

    return NumpyBackend()


register_backend("numpy", _numpy_factory)
