"""Backend registry: named factories, lazy instantiation, self-test gating.

The registry is the single place the rest of the codebase asks for an
execution backend:

* :func:`get_backend` resolves a name (explicit argument →
  ``REPRO_BACKEND`` environment variable → ``"numpy"``) to a cached
  :class:`~repro.backend.base.ArrayBackend` instance. The first request for
  a backend runs its factory *and its self-test*; a backend whose toolchain
  is missing or broken raises :class:`BackendUnavailable` with the recorded
  reason — every time, cheaply, without re-probing the import.
* :func:`register_backend` adds a factory. A backend that needs an optional
  toolchain imports it inside its factory, so a missing toolchain surfaces
  at instantiation time as a recorded reason, never as an import error of
  :mod:`repro.backend`.
* :func:`available_backends` probes every registered factory and returns the
  names that instantiate and pass their self-test — what the conformance
  suite parametrises over (unavailable ones become pytest skips, not
  failures).

Registering a new backend (the contract any future backend PR follows)::

    from repro.backend import ArrayBackend, register_backend

    class MyBackend(ArrayBackend):
        name = "mine"
        xp = my_array_namespace

    register_backend("mine", MyBackend)

The self-test (``ArrayBackend.self_test``) runs automatically at first use;
the cross-engine conformance suite (``tests/test_conformance.py``) picks the
new name up from the registry with no test changes.
"""
from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from .base import ArrayBackend

__all__ = [
    "BackendUnavailable",
    "register_backend",
    "get_backend",
    "backend_names",
    "available_backends",
    "backend_failures",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
]

#: Name resolved when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "numpy"

#: Environment variable consulted when no explicit backend name is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendUnavailable(RuntimeError):
    """The requested backend is unknown, missing its toolchain, or failed
    its registration self-test. The message carries the recorded reason."""


_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_FAILURES: Dict[str, str] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend],
                     replace: bool = False) -> None:
    """Register ``factory`` under ``name`` (instantiated lazily, self-tested).

    ``replace=True`` overwrites an existing registration and drops any cached
    instance or failure record — used by tests and by callers shipping a
    tuned variant of a stock backend.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if name in _FACTORIES and not replace:
        raise ValueError(f"backend {name!r} is already registered "
                         "(pass replace=True to override)")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    _FAILURES.pop(name, None)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Apply the resolution order: explicit name → environment → default."""
    if name:
        return name
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve and return a ready (instantiated, self-tested) backend.

    Raises
    ------
    BackendUnavailable
        If the resolved name is not registered, or its factory/self-test
        failed (the original failure reason is preserved across calls).
    """
    resolved = resolve_backend_name(name)
    instance = _INSTANCES.get(resolved)
    if instance is not None:
        return instance
    if resolved in _FAILURES:
        raise BackendUnavailable(
            f"backend {resolved!r} is unavailable: {_FAILURES[resolved]}")
    factory = _FACTORIES.get(resolved)
    if factory is None:
        raise BackendUnavailable(
            f"unknown backend {resolved!r}; registered: {', '.join(backend_names())}")
    try:
        instance = factory()
        instance.self_test()
    except Exception as exc:  # record once; later calls fail fast
        _FAILURES[resolved] = f"{type(exc).__name__}: {exc}"
        raise BackendUnavailable(
            f"backend {resolved!r} is unavailable: {_FAILURES[resolved]}") from exc
    _INSTANCES[resolved] = instance
    return instance


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends (available or not), numpy first."""
    names = sorted(_FACTORIES, key=lambda n: (n != DEFAULT_BACKEND, n))
    return tuple(names)


def available_backends() -> List[str]:
    """Registered backends that instantiate and pass their self-test."""
    out = []
    for name in backend_names():
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out


def backend_failures() -> Dict[str, str]:
    """Probe every registered backend; map unavailable names to reasons."""
    for name in backend_names():
        try:
            get_backend(name)
        except BackendUnavailable:
            pass
    return dict(_FAILURES)
