"""Blocked matrix-multiply top-K — the paper's brute-force baseline.

The paper uses Intel MKL GEMM over user batches plus a C++ priority queue
for top-K extraction.  Here the per-block GEMM is NumPy's BLAS ``@`` and
the priority queue is the shared threshold-first select
(``repro.linalg.kernels.topk_with_ids``): a per-user lower bound on the
kth score from folded row maxima, then a sort of only the scores at or
above it.
Blocking over users bounds the dense score matrix to
``user_block × n_items`` doubles, mirroring the paper's "batches that each
occupy the entirety of memory" at container scale.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.kernels import topk_from_scores

#: Users per GEMM block: small enough that a block of scores stays in cache
#: across the select's passes over it (on the reference grid, 256 was
#: faster than 1024 end to end on a 4-core Xeon with 2 OpenBLAS threads).
DEFAULT_USER_BLOCK = 256


def blocked_mm_topk(
    users: np.ndarray,
    items: np.ndarray,
    k: int,
    *,
    user_block: int = DEFAULT_USER_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` item (ids, scores) per user via blocked GEMM.

    ``users`` is ``(m, f)``, ``items`` is ``(n, f)``; returns
    ``(m, min(k, n))`` id and score arrays in canonical order.
    """
    m = users.shape[0]
    n = items.shape[0]
    k = min(k, n)
    out_ids = np.empty((m, k), dtype=np.int64)
    out_scores = np.empty((m, k), dtype=np.float64)
    items_t = items.T
    for start in range(0, m, user_block):
        stop = min(start + user_block, m)
        scores = users[start:stop] @ items_t
        ids, sc = topk_from_scores(scores, k)
        out_ids[start:stop] = ids
        out_scores[start:stop] = sc
    return out_ids, out_scores
