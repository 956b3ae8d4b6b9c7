"""LEMP-lite: norm-sorted exact MIPS with incremental pruning.

Faithful to the structure of Teflioudi et al.'s LEMP-LI (SIGMOD'15):

* items are sorted by L2 norm (descending) into one list, walked in
  buckets of roughly equal size (the paper sizes buckets to L3 cache;
  ours are a fixed item count, the analog at NumPy-kernel granularity);
* per user, the walk terminates as soon as ``‖u‖ · ‖i‖ < kth-best score``
  for the next bucket's largest norm ``‖i‖`` — later buckets only have
  smaller norms, so no remaining item can enter the top-K (the "L"
  length-based pruning).  This is ``repro.linalg.kernels.bound_walk`` with
  the item norms as bounds, the same walk RECDEX takes with its CBound;
* inside a bucket, candidates are screened with partial inner products
  over the first ``h`` dimensions plus a Cauchy–Schwarz bound on the
  residual (the "I" incremental pruning); survivors get exact dots.

The strategy is *batched* over users (LEMP optimizes the batch setting),
so all per-bucket work is vectorized across the still-active users.

Exact ties are never pruned: both the termination test and the screen
keep a bound that may tie the current kth score within a relative slack
for rounding (``may_reach``), so the canonical (score desc, id asc)
tie-break is preserved.
"""
from __future__ import annotations

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.linalg.kernels import bound_walk, may_reach, row_norms
# Unused here; the benchmark tracer (mipsbench/tracing.py) patches this name.
from repro.linalg.kernels import merge_topk  # noqa: F401
from repro.mf.models import MFModel

DEFAULT_BUCKET_SIZE = 256
# Fraction of surviving candidates above which a full bucket GEMM is
# cheaper than gathering scattered pairs.
_DENSE_FALLBACK_FRAC = 0.5


class LempIndex(Strategy):
    """LEMP-lite exact MIPS index (batch setting)."""

    name = "lemp"
    batching = True

    def __init__(
        self,
        model: MFModel,
        *,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        incr_dims: int | None = None,
    ):
        super().__init__(model)
        self.bucket_size = max(1, bucket_size)
        # Partial-product dims for incremental pruning; default half the rank.
        self.h = min(model.f, incr_dims if incr_dims is not None else max(1, model.f // 2))

    def build(self) -> None:
        if self.built:
            return
        items = self.model.items
        norms = row_norms(items)
        #: item ids by descending norm, and the list's norms, rows and split dims
        self.order = np.argsort(-norms, kind="stable")
        self.norms = norms[self.order]
        self.sorted_items = items[self.order]
        self.partial = self.sorted_items[:, : self.h]
        self.res_norms = row_norms(self.sorted_items[:, self.h :])
        self.built = True

    def query(self, user_rows: np.ndarray, k: int) -> TopK:
        if not self.built:
            self.build()
        users = self.model.users[user_rows]
        u_partial = users[:, : self.h]
        u_res_norms = row_norms(users[:, self.h :])

        def screen(active, start, stop, kth):
            # Incremental pruning: partial dot + Cauchy–Schwarz residual.
            ub = u_partial[active] @ self.partial[start:stop].T + np.outer(
                u_res_norms[active], self.res_norms[start:stop]
            )
            cand = may_reach(ub, kth[:, None])
            if cand.mean() >= _DENSE_FALLBACK_FRAC:
                return users[active] @ self.sorted_items[start:stop].T
            scores = np.full(cand.shape, -np.inf)
            rows, cols = np.nonzero(cand)
            scores[rows, cols] = np.einsum(
                "ij,ij->i", users[active[rows]], self.sorted_items[start + cols]
            )
            return scores

        ids, scores, _ = bound_walk(
            users,
            self.model.items,
            self.order,
            self.norms,
            k,
            head=self.sorted_items,
            prefix=self.bucket_size,
            chunk=self.bucket_size,
            # With h = f the partial dot is the full score: nothing to screen.
            screen=screen if self.h < self.model.f else None,
        )
        return TopK(ids=ids, scores=scores)
