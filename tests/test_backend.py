"""The execution backend: one NumPy backend and its reference kernels.

Every engine runs on :data:`repro.backend.NUMPY_BACKEND`. These tests pin
its name contract (``LayoutParams.backend`` accepts only ``"numpy"``), and
its kernels against plain NumPy references: touched-point compaction, each
merge policy's scatter against ``np.add.at`` / last-occurrence updates,
and the row-wise squared norm. The compiled kernels are checked against
these same kernels in ``tests/test_cext.py``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import NUMPY_BACKEND
from repro.core import (
    CpuBaselineEngine,
    LayoutParams,
    UpdateWorkspace,
    compact_points,
)
from repro.core.params import MERGE_POLICIES

#: The compaction reference input: repeats, gaps and an unsorted order.
POINTS = np.array([4, 1, 4, 7, 1, 4, 0, 7], dtype=np.int64)


def _merge_reference(coords, points, deltas, merge):
    """``merge``'s scatter spelled out with ``np.add.at`` and a dictionary."""
    expect = coords.copy()
    if merge == "accumulate":
        np.add.at(expect, points, deltas)
    elif merge == "hogwild":
        summed = np.zeros_like(expect)
        cnt = np.zeros(expect.shape[0])
        np.add.at(summed, points, deltas)
        np.add.at(cnt, points, 1.0)
        mask = cnt > 0
        expect[mask] += summed[mask] / cnt[mask, None]
    else:  # last writer: the final occurrence per point wins
        last = {int(p): k for k, p in enumerate(points)}
        for p, k in last.items():
            expect[p] += deltas[k]
    return expect


class TestName:
    def test_engine_backend_is_numpy(self, small_synthetic, fast_params):
        for params in (fast_params, fast_params.with_(backend="numpy")):
            engine = CpuBaselineEngine(small_synthetic, params)
            assert engine.backend is NUMPY_BACKEND
            assert engine.backend.name == "numpy"

    def test_params_validate_backend_type(self):
        for name in ("", "cupy", "numba", "NumPy"):
            with pytest.raises(ValueError, match="backend"):
                LayoutParams(backend=name)
        with pytest.raises(ValueError, match="merge_policy"):
            LayoutParams(merge_policy="bogus")

    def test_make_engine_does_not_import_numpy_testing(self):
        # numpy.testing pulls unittest and more into every process (and
        # every forked worker) that builds an engine.
        code = ("import sys; from repro.core import make_engine; "
                "from repro.graph import LeanGraph; "
                "make_engine(LeanGraph.from_paths([1, 2, 3], [[0, 1, 2]]), "
                "'cpu'); print('numpy.testing' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"


class TestNumpyBackendKernels:
    def test_compact_points_reference(self):
        touched, inverse, counts = NUMPY_BACKEND.compact_points(POINTS)
        np.testing.assert_array_equal(touched, [0, 1, 4, 7])
        np.testing.assert_array_equal(counts, [1, 2, 3, 2])
        np.testing.assert_array_equal(touched[inverse], POINTS)

    def test_compact_points_matches_module_function(self):
        points = np.array([9, 2, 9, 9, 0, 2])
        for got, via_mod in zip(NUMPY_BACKEND.compact_points(points),
                                compact_points(points)):
            np.testing.assert_array_equal(got, via_mod)

    @pytest.mark.parametrize("merge", MERGE_POLICIES)
    def test_merge_scatter_matches_reference(self, merge):
        rng = np.random.default_rng(20240)
        deltas = rng.normal(size=(POINTS.size, 2))
        coords = rng.normal(size=(9, 2))
        expect = _merge_reference(coords, POINTS, deltas, merge)
        touched, inverse, counts = NUMPY_BACKEND.compact_points(POINTS)
        NUMPY_BACKEND.merge_scatter(coords, touched, inverse, counts, deltas,
                                    merge)
        np.testing.assert_allclose(coords, expect, atol=1e-12, rtol=0)

    def test_rowwise_sqnorm_with_and_without_out(self):
        a = np.random.default_rng(5).normal(size=(17, 2))
        expect = np.einsum("ij,ij->i", a, a)
        np.testing.assert_array_equal(NUMPY_BACKEND.rowwise_sqnorm(a), expect)
        np.testing.assert_allclose(expect, (a * a).sum(axis=1), atol=1e-12,
                                   rtol=0)
        out = np.empty(17)
        assert NUMPY_BACKEND.rowwise_sqnorm(a, out=out) is out
        np.testing.assert_array_equal(out, expect)


def test_workspace_grows_its_buffers():
    ws = UpdateWorkspace(4)
    ws.ensure(64)
    assert ws.max_batch == 64
    assert ws.mag.size == 64
