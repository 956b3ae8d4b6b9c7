"""RECDEX's cost inside RECOPT: the user k-means, and the sample query.

RECOPT builds every candidate index and queries it on its seeded user
sample before it serves, even when blocked MM wins.  This times those two
RECDEX costs on their own, on an MM-friendly model (``netflix-f16-lo``:
8000 users, 300 items, nothing pruned) and an indexable one
(``glove-f32-hi``: 800 users, 8000 items), with the grid's RECDEX settings.
"""
import pytest

from repro.core.recdex import DEFAULT_CLUSTERS, KMEANS_ITERS, kmeans
from repro.core.recopt import Recopt
from repro.experiments.grid import strategy_factories

MODELS = ["netflix-f16-lo", "glove-f32-hi"]


@pytest.mark.parametrize("model_name", MODELS)
def test_bench_kmeans(benchmark, grid_models, model_name):
    users = grid_models[model_name].users
    labels, _ = benchmark(kmeans, users, DEFAULT_CLUSTERS, n_iters=KMEANS_ITERS, seed=0)
    assert labels.shape == (len(users),)


@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("model_name", MODELS)
def test_bench_recdex_sample_query(benchmark, grid_models, model_name, k):
    model = grid_models[model_name]
    idx = strategy_factories(model)["recdex"](model)
    idx.build()
    rows = Recopt(model, {}, k=k)._sample_rows()
    res = benchmark(idx.query, rows, k)
    assert res.ids.shape == (len(rows), k)
