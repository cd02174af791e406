"""Backend registry and NumPy-backend kernel tests.

The registry contract: name resolution (explicit → ``REPRO_BACKEND`` →
numpy), lazy instantiation with a registration self-test, recorded failure
reasons, and clean unavailability for backends whose toolchain is missing.
The kernel contract: the NumPy backend's operations are exactly the
historical hot-path call sequences (checked against hand-computed results
and against ``apply_batch`` round-trips).
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    available_backends,
    backend_failures,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import _FACTORIES, _FAILURES, _INSTANCES
from repro.core import (
    CpuBaselineEngine,
    LayoutParams,
    PairSampler,
    UpdateWorkspace,
    apply_batch,
    compact_points,
    initialize_layout,
)
from repro.prng import Xoshiro256Plus


@pytest.fixture()
def scratch_registry():
    """Snapshot/restore the registry so tests can register throwaway backends."""
    snapshots = [(_FACTORIES, dict(_FACTORIES)), (_INSTANCES, dict(_INSTANCES)),
                 (_FAILURES, dict(_FAILURES))]
    yield
    for live, saved in snapshots:
        live.clear()
        live.update(saved)


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "numpy"
        assert get_backend().name == "numpy"

    def test_explicit_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        assert resolve_backend_name("numpy") == "numpy"
        assert get_backend("numpy").name == "numpy"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().name == "numpy"

    def test_empty_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert resolve_backend_name(None) == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailable, match="unknown backend"):
            get_backend("no-such-backend")

    def test_engine_resolves_params_backend(self, small_synthetic, fast_params):
        engine = CpuBaselineEngine(small_synthetic,
                                   fast_params.with_(backend="numpy"))
        assert engine.backend.name == "numpy"

    def test_engine_rejects_unavailable_backend(self, small_synthetic, fast_params):
        with pytest.raises(BackendUnavailable):
            CpuBaselineEngine(small_synthetic,
                              fast_params.with_(backend="no-such-backend"))

    def test_params_validate_backend_type(self):
        with pytest.raises(ValueError):
            LayoutParams(backend="")
        with pytest.raises(ValueError):
            LayoutParams(merge_policy="bogus")


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert backend_names()[0] == "numpy"

    def test_get_backend_caches_instance(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_register_rejects_duplicates(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)
        register_backend("numpy", NumpyBackend, replace=True)  # explicit wins
        assert get_backend("numpy").name == "numpy"

    def test_self_test_failure_marks_unavailable(self, scratch_registry):
        class BrokenBackend(NumpyBackend):
            name = "broken"

            def merge_scatter(self, coords, touched, inverse, counts,
                              all_deltas, merge):
                coords[touched] += 1.0  # wrong on purpose

        register_backend("broken", BrokenBackend)
        with pytest.raises(BackendUnavailable, match="broken"):
            get_backend("broken")
        # The failure is recorded, naming the kernel, and re-raised cheaply
        # on later calls.
        assert "merge_scatter(hogwild)" in backend_failures()["broken"]
        with pytest.raises(BackendUnavailable):
            get_backend("broken")
        assert "broken" not in available_backends()

    def test_self_test_does_not_import_numpy_testing(self):
        # numpy.testing pulls unittest and more into every process (and
        # every forked worker) that asks for a backend.
        code = ("import sys; from repro.backend import get_backend; "
                "get_backend('numpy'); print('numpy.testing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"

    def test_factory_import_error_is_clean(self, scratch_registry):
        def factory():
            raise ImportError("no such toolchain")

        register_backend("ghost", factory)
        with pytest.raises(BackendUnavailable, match="no such toolchain"):
            get_backend("ghost")

    def test_custom_backend_passes_self_test(self, scratch_registry):
        class Renamed(NumpyBackend):
            name = "renamed"

        register_backend("renamed", Renamed)
        assert get_backend("renamed").name == "renamed"
        assert "renamed" in available_backends()


class TestNumpyBackendKernels:
    def test_compact_points_matches_module_function(self):
        be = get_backend("numpy")
        points = np.array([9, 2, 9, 9, 0, 2])
        for got, viaMod in zip(be.compact_points(points), compact_points(points)):
            np.testing.assert_array_equal(got, viaMod)

    def test_transfers_are_identities(self):
        be = get_backend("numpy")
        a = np.arange(6.0).reshape(3, 2)
        assert be.from_host(a) is a
        assert be.to_host(a) is a
        assert be.asarray(a) is a

    def test_rowwise_sqnorm_with_and_without_out(self):
        be = get_backend("numpy")
        a = np.random.default_rng(5).normal(size=(17, 2))
        expect = np.einsum("ij,ij->i", a, a)
        np.testing.assert_array_equal(be.rowwise_sqnorm(a), expect)
        out = np.empty(17)
        assert be.rowwise_sqnorm(a, out=out) is out
        np.testing.assert_array_equal(out, expect)

    def test_generic_base_matches_numpy_overrides(self):
        """The generic ArrayBackend bodies (used by namespace-swapping
        backends) agree with the tuned NumPy overrides on every kernel."""

        class GenericNumpy(ArrayBackend):
            name = "generic-numpy"
            xp = np

        generic, tuned = GenericNumpy(), get_backend("numpy")
        generic.self_test()  # the registration gate itself
        rng = np.random.default_rng(77)
        points = rng.integers(0, 12, size=40)
        deltas = rng.normal(size=(40, 2))
        for merge in ("hogwild", "accumulate", "last_writer"):
            touched, inverse, counts = tuned.compact_points(points)
            a = rng.normal(size=(12, 2))
            b = a.copy()
            tuned.merge_scatter(a, touched, inverse, counts, deltas, merge)
            generic.merge_scatter(b, touched, inverse, counts, deltas, merge)
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


class TestWorkspaceBackend:
    def test_workspace_default_backend(self):
        ws = UpdateWorkspace(8)
        assert ws.backend.name == "numpy"

    def test_workspace_keeps_backend_across_growth(self):
        be = get_backend("numpy")
        ws = UpdateWorkspace(4, backend=be)
        ws.ensure(64)
        assert ws.backend is be
        assert ws.mag.size == 64

    def test_apply_batch_backend_mismatch_rejected(self, small_synthetic):
        class Other(NumpyBackend):
            name = "other"

        sampler = PairSampler(small_synthetic, LayoutParams())
        batch = sampler.sample(Xoshiro256Plus(3, n_streams=16), 8, iteration=0)
        coords = initialize_layout(small_synthetic, seed=1).coords
        ws = UpdateWorkspace(8, backend=get_backend("numpy"))
        with pytest.raises(ValueError, match="backend mismatch"):
            apply_batch(coords, batch, 0.5, workspace=ws, backend=Other())

    def test_apply_batch_explicit_backend_matches_default(self, small_synthetic):
        sampler = PairSampler(small_synthetic, LayoutParams())
        batch = sampler.sample(Xoshiro256Plus(3, n_streams=64), 128, iteration=0)
        a = initialize_layout(small_synthetic, seed=1).coords
        b = a.copy()
        apply_batch(a, batch, 0.5)
        apply_batch(b, batch, 0.5, backend=get_backend("numpy"))
        np.testing.assert_array_equal(a, b)
