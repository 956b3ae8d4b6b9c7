"""Cross-strategy exactness: every index must solve MIPS exactly.

Two layers of checking (see ``repro.validate``):

* float models → ``assert_valid_topk`` (tolerance-aware; different BLAS
  call shapes legitimately differ in the last ulp, so tied groups may be
  ordered differently across strategies);
* small-integer models → strict bitwise id/score equality against brute
  force, because integer-valued float64 arithmetic is exact and the
  canonical (score desc, id asc) tie-break is deterministic.
"""
import numpy as np
import pytest

from repro.core.recdex import RecdexIndex
from repro.core.recopt import Recopt
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import MFModel, concentration_model, tiny_model
from repro.validate import assert_valid_topk

STRATEGIES = {
    "mm": lambda m: BlockedMM(m, user_block=8),
    "lemp": lambda m: LempIndex(m, bucket_size=16),
    "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
    "fexipro-sir": lambda m: FexiproIndex(m, variant="SIR"),
    "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16, walk_chunk=4),
    "recdex-lesion": lambda m: RecdexIndex(m, n_clusters=4, block=16, walk_chunk=4, shared=False),
}


def int_model(*, m=12, n=15, f=4, lo=-4, hi=5, seed=0) -> MFModel:
    """Small-integer model: exact float64 arithmetic, deterministic ties."""
    g = np.random.default_rng(seed)
    return MFModel(
        name=f"int-{m}x{n}x{f}-s{seed}",
        users=g.integers(lo, hi, size=(m, f)).astype(np.float64),
        items=g.integers(lo, hi, size=(n, f)).astype(np.float64),
    )


def _strict_same(model, strategy, k):
    ref = BlockedMM(model).query_all(k)
    strat = strategy(model)
    got = strat.query_all(k)
    np.testing.assert_array_equal(got.ids, ref.ids)
    np.testing.assert_array_equal(got.scores, ref.scores)
    return strat


# --- tolerance-aware validity on float models -----------------------------

@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_valid_on_random_model(name, k, seed):
    model = tiny_model(m=35, n=28, f=6, seed=seed)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(k), k)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("kappa", [0.05, 50.0])
def test_valid_on_concentrated_model(name, kappa):
    model = concentration_model(n_users=60, n_items=45, f=8, kappa=kappa, seed=7)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(5), 5)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_k_equals_n(name):
    model = tiny_model(m=12, n=9, f=4, seed=3)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(9), 9)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_k_exceeds_n(name):
    model = tiny_model(m=12, n=9, f=4, seed=4)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(50), 50)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_single_user(name):
    model = tiny_model(m=1, n=20, f=5, seed=5)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(4), 4)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_single_dim(name):
    model = tiny_model(m=15, n=12, f=1, seed=6)
    assert_valid_topk(model, STRATEGIES[name](model).query_all(3), 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_with_zero_norm_user(name):
    model = tiny_model(m=10, n=14, f=4, seed=8)
    model.users[3] = 0.0
    assert_valid_topk(model, STRATEGIES[name](model).query_all(3), 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_query_subset_matches_full(name):
    model = tiny_model(m=30, n=20, f=5, seed=10)
    strat = STRATEGIES[name](model)
    rows = np.array([2, 5, 11, 29])
    sub = strat.query(rows, 4)
    full = strat.query_all(4)
    np.testing.assert_array_equal(sub.ids, full.ids[rows])
    np.testing.assert_allclose(sub.scores, full.scores[rows])


# --- strict bitwise equality on integer models ----------------------------

@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_strict_on_integer_model(name, seed, k):
    _strict_same(int_model(seed=seed), STRATEGIES[name], k)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_with_duplicate_items(name):
    """Duplicate item vectors force exact score ties — tie-break must hold."""
    model = int_model(m=10, n=12, f=4, seed=9)
    model.items[5] = model.items[2]
    model.items[11] = model.items[2]
    _strict_same(model, STRATEGIES[name], 4)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_all_tied_scores(name):
    """All-identical items: the whole score row ties; ids must be 0..k-1."""
    model = int_model(m=8, n=10, f=3, seed=11)
    model.items[:] = model.items[0]
    ref = BlockedMM(model).query_all(3)
    np.testing.assert_array_equal(ref.ids, np.tile([0, 1, 2], (8, 1)))
    _strict_same(model, STRATEGIES[name], 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_zero_norm_user_ties(name):
    model = int_model(m=6, n=9, f=3, seed=12)
    model.users[2] = 0.0
    _strict_same(model, STRATEGIES[name], 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("seed,f", [(3, 4), (5, 3), (15, 2)])
@pytest.mark.parametrize("k", [1, 4, 12])
def test_strict_when_pruning_meets_rounded_ties(name, seed, f, k):
    """Bounds that round just below an exact tie must not prune it.

    n = 120 is well past LEMP's bucket and RECDEX's block, so the walks
    prune.  With values in -3..3 many scores tie exactly, and a bound such
    as √18·√18 rounds to 17.999999999999996, just below a kth score of 18:
    a tied item with a smaller id must still be visited.
    """
    model = int_model(m=40, n=120, f=f, lo=-3, hi=4, seed=seed)
    model.users[0] = 0.0
    strat = _strict_same(model, STRATEGIES[name], k)
    if isinstance(strat, RecdexIndex):
        assert strat.items_visited < model.m * model.n


# --- k outside [1, n] --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("k", [0, -1])
def test_nonpositive_k_returns_empty_answer(name, k):
    model = tiny_model(m=10, n=14, f=4, seed=13)
    res = STRATEGIES[name](model).query(np.array([1, 4, 4]), k)
    assert res.ids.shape == res.scores.shape == (3, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_recopt_nonpositive_k_returns_empty_answer(k):
    model = tiny_model(m=10, n=14, f=4, seed=13)
    factories = {name: f for name, f in STRATEGIES.items() if name != "mm"}
    res, _ = Recopt(model, factories, k=k, min_sample=4).run()
    assert res.ids.shape == res.scores.shape == (model.m, 0)
