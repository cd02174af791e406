"""Property-based invariants of the compacted update merge (hypothesis).

These complement the example-based hot-path tests with randomised
adversarial batches: arbitrary endpoint collisions, zero reference
distances, degenerate self-pairs. Invariants checked:

* ``accumulate`` and ``hogwild`` merges are independent of term order
  (``last_writer`` is order-dependent *by definition* — it models a store
  race — so it is excluded);
* points not touched by the batch never move, bit-for-bit;
* the collision counter is exactly ``2·batch − #touched`` and therefore
  bounded by ``2·batch − 1``;
* ``compact_points`` is a faithful compaction: reconstruction through
  ``inverse`` reproduces the input and ``counts`` sums to its size.

``hypothesis`` is an optional dev dependency: when it is not installed the
module skips at collection time, keeping the tier-1 suite runnable from the
runtime-only install.
"""
from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import StepBatch, UpdateWorkspace, compact_points, merge_batch  # noqa: E402

#: Generous per-example budget: CI boxes under load miss the default 200 ms.
COMMON_SETTINGS = settings(deadline=None, max_examples=60)


@st.composite
def batches(draw):
    """A StepBatch over a small synthetic point space, plus its node count."""
    n_nodes = draw(st.integers(min_value=2, max_value=12))
    n_terms = draw(st.integers(min_value=1, max_value=48))
    ints = st.integers(min_value=0, max_value=n_nodes - 1)
    bits = st.integers(min_value=0, max_value=1)
    # Either exactly zero (the no-gradient path) or a sane distance: subnormal
    # d_ref merely saturates μ at 1 with a benign overflow warning, which
    # would drown real failures in noise.
    dist = st.one_of(st.just(0.0),
                     st.floats(min_value=1e-3, max_value=100.0,
                               allow_nan=False, allow_infinity=False))
    node_i = draw(st.lists(ints, min_size=n_terms, max_size=n_terms))
    node_j = draw(st.lists(ints, min_size=n_terms, max_size=n_terms))
    vis_i = draw(st.lists(bits, min_size=n_terms, max_size=n_terms))
    vis_j = draw(st.lists(bits, min_size=n_terms, max_size=n_terms))
    d_ref = draw(st.lists(dist, min_size=n_terms, max_size=n_terms))
    batch = StepBatch(
        path=np.zeros(n_terms, dtype=np.int64),
        flat_i=np.zeros(n_terms, dtype=np.int64),
        flat_j=np.zeros(n_terms, dtype=np.int64),
        node_i=np.asarray(node_i, dtype=np.int64),
        node_j=np.asarray(node_j, dtype=np.int64),
        vis_i=np.asarray(vis_i, dtype=np.int64),
        vis_j=np.asarray(vis_j, dtype=np.int64),
        d_ref=np.asarray(d_ref, dtype=np.float64),
        in_cooling=np.zeros(n_terms, dtype=bool),
    )
    return batch, n_nodes


def _coords_for(n_nodes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-50.0, 50.0, size=(2 * n_nodes, 2))


def _merge(coords, batch, eta, merge="hogwild", workspace=None) -> int:
    """One-segment ``merge_batch`` with a batch-sized workspace by default."""
    ws = workspace if workspace is not None else UpdateWorkspace(len(batch))
    return merge_batch(coords, batch, eta, merge, ws)


def _permuted(batch: StepBatch, perm: np.ndarray) -> StepBatch:
    return StepBatch(
        path=batch.path[perm], flat_i=batch.flat_i[perm],
        flat_j=batch.flat_j[perm], node_i=batch.node_i[perm],
        node_j=batch.node_j[perm], vis_i=batch.vis_i[perm],
        vis_j=batch.vis_j[perm], d_ref=batch.d_ref[perm],
        in_cooling=batch.in_cooling[perm],
    )


@COMMON_SETTINGS
@given(data=batches(), eta=st.floats(min_value=1e-3, max_value=10.0),
       perm_seed=st.integers(min_value=0, max_value=2**31 - 1))
@pytest.mark.parametrize("merge", ["accumulate", "hogwild"])
def test_merge_is_term_order_independent(merge, data, eta, perm_seed):
    batch, n_nodes = data
    perm = np.random.default_rng(perm_seed).permutation(len(batch))
    base = _coords_for(n_nodes, seed=1)
    a = base.copy()
    b = base.copy()
    collisions_a = _merge(a, batch, eta, merge)
    collisions_b = _merge(b, _permuted(batch, perm), eta, merge)
    np.testing.assert_allclose(a, b, atol=1e-8, rtol=1e-9)
    assert collisions_a == collisions_b


@COMMON_SETTINGS
@given(data=batches(), eta=st.floats(min_value=1e-3, max_value=10.0))
@pytest.mark.parametrize("merge", ["accumulate", "hogwild", "last_writer"])
def test_untouched_points_never_move(merge, data, eta):
    batch, n_nodes = data
    coords = _coords_for(n_nodes, seed=2)
    before = coords.copy()
    _merge(coords, batch, eta, merge)
    touched = np.unique(np.concatenate([
        2 * batch.node_i + batch.vis_i,
        2 * batch.node_j + batch.vis_j,
    ]))
    untouched = np.setdiff1d(np.arange(2 * n_nodes), touched)
    # Bit-for-bit: the merge must not even rewrite unchanged values.
    np.testing.assert_array_equal(coords[untouched], before[untouched])


@COMMON_SETTINGS
@given(data=batches(), eta=st.floats(min_value=1e-3, max_value=10.0))
@pytest.mark.parametrize("merge", ["accumulate", "hogwild", "last_writer"])
def test_collision_count_bounded_by_batch(merge, data, eta):
    batch, n_nodes = data
    n = len(batch)
    coords = _coords_for(n_nodes, seed=3)
    collisions = _merge(coords, batch, eta, merge)
    endpoints = np.concatenate([
        2 * batch.node_i + batch.vis_i,
        2 * batch.node_j + batch.vis_j,
    ])
    expected = endpoints.size - np.unique(endpoints).size
    assert collisions == expected
    assert 0 <= collisions <= 2 * n - 1


@COMMON_SETTINGS
@given(points=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=1, max_size=120))
def test_compact_points_is_faithful(points):
    arr = np.asarray(points, dtype=np.int64)
    uniq, inverse, counts = compact_points(arr)
    np.testing.assert_array_equal(uniq[inverse], arr)
    np.testing.assert_array_equal(np.sort(uniq), uniq)
    assert uniq.size == np.unique(arr).size
    assert int(counts.sum()) == arr.size
    assert (counts >= 1).all()


@COMMON_SETTINGS
@given(data=batches(), eta=st.floats(min_value=1e-3, max_value=10.0))
def test_workspace_reuse_is_transparent(data, eta):
    """A shared grown/reused workspace never changes the result."""
    batch, n_nodes = data
    base = _coords_for(n_nodes, seed=4)
    a = base.copy()
    b = base.copy()
    ws = UpdateWorkspace(1)  # deliberately undersized: must grow on demand
    _merge(a, batch, eta, workspace=ws)
    _merge(b, batch, eta)
    np.testing.assert_array_equal(a, b)
