"""Exactness gate for every timed call, run outside the timed region.

``bad_rows`` applies the rule of ``repro.validate.assert_valid_topk``
(same tolerances) to all users at once instead of looping per user in
Python, and counts the rows that break it instead of raising.  The smoke
self-test checks that both accept and reject the same answers.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

TOL = 1e-8  # assert_valid_topk's default ``tol``
RTOL = 1e-7  # assert_valid_topk's ``rtol`` on reported scores
_ROW_BLOCK = 1024


def bad_rows(users: np.ndarray, items: np.ndarray, ids: np.ndarray, scores: np.ndarray, k: int) -> int:
    """Number of users whose (ids, scores) is not an exact top-``k``.

    A row is exact when its ids are distinct and in range, its reported
    scores match the true inner products, scores do not increase, and no
    excluded item beats the kth included score by more than ``TOL``.
    """
    m, n = users.shape[0], items.shape[0]
    k = min(k, n)
    if ids.shape != (m, k) or scores.shape != (m, k):
        return m
    bad = 0
    items_t = items.T
    for start in range(0, m, _ROW_BLOCK):
        sl = slice(start, min(start + _ROW_BLOCK, m))
        id_b, sc_b = ids[sl], scores[sl]
        in_range = np.all((id_b >= 0) & (id_b < n), axis=1)
        safe = np.where(in_range[:, None], id_b, 0)
        true = users[sl] @ items_t
        chosen = np.take_along_axis(true, safe, axis=1)
        ok = in_range & np.all(np.diff(np.sort(safe, axis=1), axis=1) != 0, axis=1)
        ok &= np.all(np.abs(sc_b - chosen) <= TOL + RTOL * np.abs(chosen), axis=1)
        ok &= np.all(np.diff(sc_b, axis=1) <= TOL, axis=1)
        if k < n:
            kth = chosen.min(axis=1)
            np.put_along_axis(true, safe, -np.inf, axis=1)
            ok &= true.max(axis=1) <= kth + TOL
        bad += int(np.count_nonzero(~ok))
    return bad


def rows_to_topk(pdf: pd.DataFrame, m: int, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Collected ``(user_id, item_id, rank, score)`` rows as ``(m, k)`` arrays.

    Returns None unless every user ``0..m-1`` has exactly ranks ``1..k``.
    """
    if len(pdf) != m * k:
        return None
    pdf = pdf.sort_values(["user_id", "rank"], kind="stable")
    users = pdf["user_id"].to_numpy().reshape(m, k)
    ranks = pdf["rank"].to_numpy().reshape(m, k)
    if not (np.all(users == np.arange(m)[:, None]) and np.all(ranks == np.arange(1, k + 1))):
        return None
    return (
        pdf["item_id"].to_numpy().reshape(m, k).astype(np.int64),
        pdf["score"].to_numpy().reshape(m, k).astype(np.float64),
    )


def mismatched_rows(
    ids: np.ndarray, scores: np.ndarray, ref_ids: np.ndarray, ref_scores: np.ndarray
) -> int:
    """Users whose answer differs from the in-process one at some rank.

    Per (user, rank) the item must match, or the two scores must agree
    within tolerance (a tie whose members differ in the last ulp between
    BLAS call shapes).
    """
    same = (ids == ref_ids) | (np.abs(scores - ref_scores) <= TOL + RTOL * np.abs(ref_scores))
    return int(np.count_nonzero(~np.all(same, axis=1)))
