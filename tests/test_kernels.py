"""Unit tests for repro.linalg.kernels."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.kernels import (
    angles_to,
    merge_topk,
    row_norms,
    topk_from_scores,
    topk_with_ids,
)


def test_row_norms_matches_numpy():
    g = np.random.default_rng(0)
    x = g.normal(size=(17, 5))
    np.testing.assert_allclose(row_norms(x), np.linalg.norm(x, axis=1))


def test_row_norms_zero_rows():
    x = np.zeros((3, 4))
    np.testing.assert_array_equal(row_norms(x), np.zeros(3))


@pytest.mark.parametrize("f", [1, 2, 7, 32])
def test_angles_to_range(f):
    g = np.random.default_rng(f)
    v = g.normal(size=(50, f))
    c = g.normal(size=f)
    th = angles_to(v, c)
    assert np.all(th >= 0) and np.all(th <= np.pi + 1e-12)


def test_angles_to_self_is_zero():
    g = np.random.default_rng(1)
    c = g.normal(size=6)
    th = angles_to(np.vstack([c, 2 * c, 0.5 * c]), c)
    np.testing.assert_allclose(th, 0.0, atol=1e-6)


def test_angles_to_opposite_is_pi():
    c = np.array([1.0, 0.0])
    th = angles_to(np.array([[-2.0, 0.0]]), c)
    np.testing.assert_allclose(th, np.pi, atol=1e-12)


def test_angles_to_orthogonal():
    c = np.array([1.0, 0.0])
    th = angles_to(np.array([[0.0, 3.0]]), c)
    np.testing.assert_allclose(th, np.pi / 2, atol=1e-12)


def test_angles_to_zero_vector_treated_aligned():
    c = np.array([1.0, 1.0])
    th = angles_to(np.zeros((2, 2)), c)
    np.testing.assert_array_equal(th, 0.0)


def test_angles_to_zero_center():
    th = angles_to(np.ones((3, 2)), np.zeros(2))
    np.testing.assert_array_equal(th, 0.0)


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_topk_from_scores_matches_argsort(k):
    g = np.random.default_rng(k)
    scores = g.normal(size=(20, 11))
    ids, sc = topk_from_scores(scores, k)
    for r in range(20):
        want = np.argsort(-scores[r], kind="stable")[:k]
        np.testing.assert_array_equal(np.sort(ids[r]), np.sort(want))
        np.testing.assert_allclose(sc[r], scores[r][ids[r]])


def test_topk_from_scores_k_exceeds_n():
    scores = np.array([[3.0, 1.0, 2.0]])
    ids, sc = topk_from_scores(scores, 10)
    np.testing.assert_array_equal(ids, [[0, 2, 1]])
    np.testing.assert_array_equal(sc, [[3.0, 2.0, 1.0]])


def test_topk_from_scores_with_exact_ties_prefers_small_ids():
    scores = np.array([[1.0, 1.0, 1.0, 1.0]])
    ids, _ = topk_from_scores(scores, 2)
    np.testing.assert_array_equal(ids, [[0, 1]])


def test_merge_topk_combines_sides():
    ids_a = np.array([[0, 1]])
    sc_a = np.array([[5.0, 1.0]])
    ids_b = np.array([[10, 11]])
    sc_b = np.array([[3.0, 4.0]])
    ids, sc = merge_topk(ids_a, sc_a, ids_b, sc_b, 3)
    np.testing.assert_array_equal(ids, [[0, 11, 10]])
    np.testing.assert_array_equal(sc, [[5.0, 4.0, 3.0]])


def test_merge_topk_k_larger_than_total():
    ids_a = np.array([[0]])
    sc_a = np.array([[1.0]])
    ids_b = np.array([[1]])
    sc_b = np.array([[2.0]])
    ids, sc = merge_topk(ids_a, sc_a, ids_b, sc_b, 5)
    np.testing.assert_array_equal(ids, [[1, 0]])


# --- threshold-first select against a full-lexsort reference --------------

#: tie-heavy score values; -0.0 and 0.0 compare equal, so they tie too
_SCORE_VALUES = [-np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]


def _reference_topk(ids2d, scores, k):
    """Canonical top-``k`` by one full lexsort per row (score desc, id asc)."""
    order = np.lexsort((ids2d, -scores), axis=1)[:, : max(0, min(k, scores.shape[1]))]
    return np.take_along_axis(ids2d, order, 1), np.take_along_axis(scores, order, 1)


def _assert_bitwise(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].dtype == want[1].dtype
    np.testing.assert_array_equal(got[1].view(np.uint64), want[1].view(np.uint64))


@st.composite
def _select_case(draw):
    """(ids, scores, k) with 1-D ascending, 1-D unsorted or 2-D ids.

    ``k`` is drawn from 0, 1, n, n + 5 and from around n/4, where the select
    switches from the exact kth score to folded row maxima, so both sides
    of the switch (and wide rows folded several times) are covered.
    """
    m = draw(st.integers(0, 6))
    n = draw(st.integers(1, 160))
    scores = draw(hnp.arrays(np.float64, (m, n), elements=st.sampled_from(_SCORE_VALUES)))
    k = draw(st.sampled_from([0, 1, 2, n, n + 5, max(1, n // 4 - 1), max(1, n // 4), n // 4 + 1, n // 16 + 1]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ascending", "unsorted", "2d"]))
    if kind == "ascending":
        ids = np.sort(g.choice(10 * n, size=n, replace=False))
    elif kind == "unsorted":
        ids = g.permutation(n) + 7
    else:
        ids = np.array([g.permutation(n) for _ in range(m)], dtype=np.int64).reshape(m, n)
    return ids, scores, k


@settings(max_examples=400, deadline=None)
@given(case=_select_case())
def test_topk_with_ids_matches_full_lexsort(case):
    ids, scores, k = case
    _assert_bitwise(topk_with_ids(ids, scores, k), _reference_topk(np.broadcast_to(ids, scores.shape), scores, k))


@settings(max_examples=200, deadline=None)
@given(case=_select_case())
def test_topk_from_scores_matches_full_lexsort(case):
    _, scores, k = case
    ids = np.arange(scores.shape[1])
    _assert_bitwise(topk_from_scores(scores, k), _reference_topk(np.broadcast_to(ids, scores.shape), scores, k))


@settings(max_examples=300, deadline=None)
@given(case=_select_case(), split=st.floats(0.0, 1.0), placeholders=st.booleans())
def test_merge_topk_matches_full_lexsort(case, split, placeholders):
    """A side: ``k`` columns of ``-inf`` with negative ids, whose row minimum
    admits every column as a candidate, or the exact top-k of a prefix (the
    bound walk's merges); B side: the remaining columns."""
    ids, scores, k = case
    m, n = scores.shape
    ids2d = np.broadcast_to(ids, scores.shape)
    a = int(round(split * n))
    k = max(1, min(k, n))
    if placeholders:
        ids_a = -np.ones((m, k), dtype=np.int64) - np.arange(k)[None, :]
        sc_a = np.full((m, k), -np.inf)
        ids_b, sc_b = ids2d, scores
    else:
        ids_a, sc_a = _reference_topk(ids2d[:, :a], scores[:, :a], k)
        ids_b, sc_b = ids2d[:, a:], scores[:, a:]
    got = merge_topk(ids_a, sc_a, ids_b, sc_b, k)
    all_ids = np.concatenate([ids_a, ids_b], axis=1)
    all_sc = np.concatenate([sc_a, sc_b], axis=1)
    _assert_bitwise(got, _reference_topk(all_ids, all_sc, k))
