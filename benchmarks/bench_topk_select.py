"""Top-K selection benchmarks: the shared select on its own, without GEMM.

One blocked-MM score block (``DEFAULT_USER_BLOCK`` users × all items) of
an MM-friendly model with few items (``netflix-f16-lo``, n=300) and of an
indexable model with many (``glove-f32-hi``, n=8000), at each K the
experiments use.  The score block is computed once, outside the timing.
"""
import pytest

from repro.linalg.blocked_mm import DEFAULT_USER_BLOCK
from repro.linalg.kernels import topk_from_scores


@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("model_name", ["netflix-f16-lo", "glove-f32-hi"])
def test_bench_topk_from_scores(benchmark, grid_models, model_name, k):
    model = grid_models[model_name]
    scores = model.users[:DEFAULT_USER_BLOCK] @ model.items.T
    ids, _ = benchmark(topk_from_scores, scores, k)
    assert ids.shape == (scores.shape[0], k)
