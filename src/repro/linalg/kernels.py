"""Shared vector kernels used by every MIPS strategy.

All strategies must agree bit-for-bit on the returned top-K *ids* so the
exactness tests can compare them directly.  The canonical ordering is
(score descending, item id ascending); ``topk_with_ids`` produces it, and
every strategy's answer comes out of it.  ``bound_walk`` is the
early-terminating walk over a bound-sorted item list that LEMP and RECDEX
share.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a 2-D array; shape ``(m,)``.

    ``einsum`` rather than ``np.linalg.norm(axis=1)`` — the latter is an
    order of magnitude slower on this container's NumPy build and these
    norms sit on RECDEX's index-construction path.
    """
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def angles_to(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Angular distance (radians, in [0, pi]) from each row to ``center``.

    Zero-norm rows or a zero-norm center are defined to have angle 0 — a
    zero vector's inner product with anything is 0, and treating it as
    perfectly aligned keeps every bound that uses these angles conservative
    (cos(θ - θ_b) can only grow when θ shrinks).
    """
    cn = float(np.linalg.norm(center))
    vn = row_norms(vectors)
    if cn == 0.0:
        return np.zeros(len(vectors))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (vectors @ center) / (vn * cn)
    cos = np.where(vn == 0.0, 1.0, cos)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _kth_lower_bound(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, an actual score that at least ``k`` entries of the row reach.

    Only the selection's candidate count depends on how tight it is.  The
    columns are folded in halves (elementwise max, an odd last column
    dropped) while ``4k`` or more remain, leaving ``2k`` to ``4k`` columns
    that are each the max of their own disjoint set of original columns;
    the kth largest of those (by SIMD ``np.sort``) is reached by ``k``
    distinct entries.  Rows narrower than ``4k`` are not folded, so the
    bound is their exact kth score.
    """
    if k == 1:
        return scores.max(axis=1)
    folded = scores
    while folded.shape[1] >= 4 * k:
        h = folded.shape[1] // 2
        folded = np.maximum(folded[:, :h], folded[:, h : 2 * h])
    return np.sort(folded, axis=1)[:, folded.shape[1] - k]


def topk_with_ids(
    ids: np.ndarray, scores: np.ndarray, k: int, *, bound: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact canonical top-``k`` of ``scores`` labeled by ``ids``.

    ``scores`` is ``(m, n)``; ``ids`` is ``(n,)`` or ``(m, n)`` and gives
    the real item id of each column.  ``k`` is clamped to ``[0, n]``.

    Threshold-first select: take a per-row lower bound on the kth score
    (``bound``, when the caller has one, else ``_kth_lower_bound``), gather
    only the entries at or above it into a padded ``(m, c)`` candidate
    array, and order those.  ``bound`` must be, per row, a value that at
    least ``k`` entries reach, so the top-``k`` is among the candidates.
    One SIMD ``argsort`` on the scores orders the candidates; rows whose
    first ``k + 1`` sorted scores hold a tie are redone with ``lexsort``
    on (score desc, id asc), the canonical tie-break.  With ``k == 1`` and
    ascending 1-D ids, the first ``argmax`` of each row is the answer.
    """
    m, n = scores.shape
    k = max(0, min(k, n))
    if k == 0:
        return np.empty((m, 0), ids.dtype), np.empty((m, 0), scores.dtype)
    if k == 1 and bound is None and ids.ndim == 1 and np.all(ids[1:] >= ids[:-1]):
        col = scores.argmax(axis=1)
        return ids[col][:, None], scores[np.arange(m), col][:, None]
    if bound is None:
        bound = _kth_lower_bound(scores, k)

    # Gather, in column order: flat index of each candidate in ``scores``
    # and its slot in the padded candidate rows.
    flat = np.flatnonzero(scores >= bound[:, None])
    rows = flat // n
    counts = np.bincount(rows, minlength=m)
    c = max(int(counts.max(initial=0)), k)
    slot = rows * c + np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cand_sc = np.full((m, c), -np.inf, dtype=scores.dtype)
    cand_sc.ravel()[slot] = scores.ravel()[flat]
    cand_ids = np.full((m, c), np.iinfo(ids.dtype).max, dtype=ids.dtype)
    cand_ids.ravel()[slot] = ids[flat - rows * n] if ids.ndim == 1 else ids.ravel()[flat]

    order = np.argsort(-cand_sc, axis=1)[:, : k + 1] + c * np.arange(m)[:, None]
    top_sc = cand_sc.take(order)
    out_ids = cand_ids.take(order[:, :k])
    out_sc = top_sc[:, :k].copy()
    tied = np.flatnonzero((top_sc[:, 1:] == top_sc[:, :-1]).any(axis=1))
    if tied.size:
        t_ids, t_sc = cand_ids[tied], cand_sc[tied]
        t_order = np.lexsort((t_ids, -t_sc), axis=1)[:, :k]
        out_ids[tied] = np.take_along_axis(t_ids, t_order, axis=1)
        out_sc[tied] = np.take_along_axis(t_sc, t_order, axis=1)
    return out_ids, out_sc


def topk_from_scores(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` (ids, scores) per row; ids are column indices."""
    return topk_with_ids(np.arange(scores.shape[1]), scores, k)


def merge_topk(
    ids_a: np.ndarray,
    scores_a: np.ndarray,
    ids_b: np.ndarray,
    scores_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two per-row top-K candidate sets into one exact top-``k``.

    Both inputs are ``(m, *)`` with matching row counts; duplicate ids
    between the two sides are not expected (callers pass disjoint item
    ranges).  Ties broken canonically.  When the A side is already full
    (``k`` or more columns), its row minimum is the selection's bound, so
    walk merges compute none.
    """
    ids = np.concatenate([ids_a, ids_b], axis=1)
    scores = np.concatenate([scores_a, scores_b], axis=1)
    bound = scores_a.min(axis=1) if scores_a.shape[1] >= k else None
    return topk_with_ids(ids, scores, k, bound=bound)


def may_reach(upper: np.ndarray, kth: np.ndarray) -> np.ndarray:
    """Where an upper bound ``upper`` on a score may still tie or beat ``kth``.

    The bounds are products and sums of rounded values: √18·√18 rounds to
    17.999999999999996, below a tie at 18.  A tied item with a smaller id
    belongs in the canonical top-K, so the test allows a relative slack
    that absorbs such rounding; pruning stays conservative.
    """
    return upper >= kth - 1e-9 * (np.abs(upper) + np.abs(kth))


def bound_walk(
    users: np.ndarray,
    items: np.ndarray,
    order: np.ndarray,
    bounds: np.ndarray,
    k: int,
    *,
    head: np.ndarray,
    prefix: int,
    chunk: int,
    screen: Callable[[np.ndarray, int, int, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact canonical top-``k`` of ``users`` over a bound-sorted item list.

    The list is ``order`` (item ids) with ``bounds`` descending: for every
    user ``u`` and list position ``p``, ``‖u‖·bounds[p]`` bounds the score
    of each item from ``p`` on.  ``items`` is the item matrix by id;
    ``head`` holds the rows ``items[order[:len(head)]]``, copied by the
    caller so the common case reads contiguous rows.

    The first ``max(prefix, k)`` items are scored for every user with one
    GEMM (the shared prefix), so each user's top-K is full before any
    pruning.  The rest is walked in chunks, starting at ``chunk`` items: a
    user stays active while ``‖u‖·bounds[pos]`` may reach its kth score,
    and each chunk is merged into the active users' top-K.  When no user
    left the walk at a check, the next chunk is twice the last one, so a
    list that prunes nothing costs a few merges, not one per ``chunk``
    items.  ``screen(active, start, stop, kth)``, when given, replaces the
    chunk's dense GEMM: it returns the active users' scores for list
    positions ``[start, stop)``, where an entry may be ``-inf`` if its item
    cannot reach that user's ``kth``.  A screened walk keeps ``chunk``
    fixed: its cost (LEMP's sparse gather copies a row per surviving pair)
    grows with the chunk, and doubling it multiplied LEMP's peak memory.
    A zero-norm user scores 0 everywhere and its bound 0 reaches its kth
    of 0, so it walks the whole list, as the canonical tie-break needs.

    Returns the ids, the scores and the number of (user, item) pairs
    visited.  ``k`` is clamped to ``[0, n]``.
    """
    m, n = users.shape[0], len(order)
    k = max(0, min(k, n))
    if k == 0:
        return np.empty((m, 0), np.int64), np.empty((m, 0)), 0

    def rows(start: int, stop: int) -> np.ndarray:
        if stop <= len(head):
            return head[start:stop]
        return items.take(order[start:stop], axis=0)

    pos = min(max(prefix, k), n)
    top_ids, top_scores = topk_with_ids(order[:pos], users @ rows(0, pos).T, k)
    visited = m * pos
    u_norms = row_norms(users)
    active = np.arange(m)
    step = chunk
    while pos < n:
        keep = may_reach(u_norms[active] * bounds[pos], top_scores[active, -1])
        if screen is None and keep.all():
            step *= 2
        active = active[keep]
        if active.size == 0:
            break
        stop = min(pos + step, n)
        if screen is None:
            scores = users[active] @ rows(pos, stop).T
        else:
            scores = screen(active, pos, stop, top_scores[active, -1])
        chunk_ids = np.broadcast_to(order[pos:stop], scores.shape)
        top_ids[active], top_scores[active] = merge_topk(
            top_ids[active], top_scores[active], chunk_ids, scores, k
        )
        visited += active.size * (stop - pos)
        pos = stop
    return top_ids, top_scores, visited
