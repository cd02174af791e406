"""Built-in contract checkers; importing this package registers them all."""
from . import alloc, determinism, dispatch, memory, native, obs, robust, shm  # noqa: F401

__all__ = ["alloc", "determinism", "dispatch", "memory", "native", "obs",
           "robust", "shm"]
