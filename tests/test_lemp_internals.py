"""White-box tests for LEMP-lite's norm-sorted list, its buckets and pruning."""
import numpy as np
import pytest

import repro.indexes.lemp as lemp_mod
from repro.indexes.lemp import LempIndex
from repro.linalg.kernels import bound_walk, row_norms
from repro.mf.models import tiny_model


@pytest.fixture(scope="module")
def built():
    model = tiny_model(m=40, n=57, f=6, seed=1)
    idx = LempIndex(model, bucket_size=10)
    idx.build()
    return model, idx


def test_bucket_count(built, monkeypatch):
    """The norm-sorted list is walked in buckets of ``bucket_size`` items."""
    model, idx = built
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return bound_walk(*args, **kwargs)

    monkeypatch.setattr(lemp_mod, "bound_walk", spy)
    idx.query_all(3)
    assert [(c["prefix"], c["chunk"]) for c in calls] == [(10, 10)]
    assert len(range(0, model.n, calls[0]["chunk"])) == int(np.ceil(model.n / 10))


def test_buckets_cover_all_items(built):
    model, idx = built
    assert sorted(idx.order.tolist()) == list(range(model.n))
    np.testing.assert_array_equal(idx.sorted_items, model.items[idx.order])


def test_bucket_max_norms_descending(built):
    _, idx = built
    assert np.all(np.diff(idx.norms) <= 0)


def test_items_within_bucket_have_norm_leq_max(built):
    model, idx = built
    np.testing.assert_allclose(row_norms(idx.sorted_items), idx.norms)
    for start in range(0, model.n, 10):
        assert row_norms(idx.sorted_items[start : start + 10]).max() <= idx.norms[start] + 1e-12


def test_incremental_split_dims(built):
    model, idx = built
    assert idx.partial.shape == (model.n, idx.h)
    np.testing.assert_array_equal(idx.partial, idx.sorted_items[:, : idx.h])
    assert idx.res_norms.shape == (model.n,)
    np.testing.assert_allclose(idx.res_norms, row_norms(idx.sorted_items[:, idx.h :]))


def test_incr_dims_override():
    model = tiny_model(m=5, n=8, f=6, seed=2)
    idx = LempIndex(model, bucket_size=4, incr_dims=2)
    assert idx.h == 2


def test_incr_dims_clamped_to_f():
    model = tiny_model(m=5, n=8, f=3, seed=3)
    idx = LempIndex(model, bucket_size=4, incr_dims=100)
    assert idx.h == 3


def test_pruning_actually_skips_buckets():
    """With huge norm spread and K=1, late (tiny-norm) buckets must never
    contribute — verified by checking the result only uses big items."""
    g = np.random.default_rng(4)
    dirs = g.normal(size=(100, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = np.concatenate([np.full(10, 100.0), np.full(90, 0.001)])
    from repro.mf.models import MFModel

    model = MFModel(name="spread", users=g.normal(size=(20, 4)), items=dirs * norms[:, None])
    idx = LempIndex(model, bucket_size=5)
    res = idx.query_all(1)
    assert np.all(res.ids < 10)  # only large-norm items can win


def test_query_before_build_autobuilds():
    model = tiny_model(m=6, n=9, f=3, seed=5)
    idx = LempIndex(model, bucket_size=4)
    res = idx.query_all(2)  # no explicit build()
    assert idx.built
    assert res.ids.shape == (6, 2)
