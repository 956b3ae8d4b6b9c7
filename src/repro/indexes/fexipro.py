"""FEXIPRO-lite: SVD + integer-quantization + reduction pruning, point queries.

Faithful to the structure of Li et al.'s FEXIPRO (SIGMOD'17):

* **S** — thin SVD of the item matrix gives an orthonormal rotation ``V``;
  rotating both sides (``p' = pV``, ``q' = qV``) preserves inner products
  while concentrating energy in the leading dimensions, so partial inner
  products over the first ``h`` dims (chosen to cover ≥ 90 % of singular
  energy) carry most of the score.
* **I** — the first ``h`` dims are quantized to integers; an exact
  rounding-error bound turns the cheap integer partial product into a true
  upper bound on the float partial product.
* **R** — (SIR variant) items are shifted per-dimension to be nonnegative;
  the shift's contribution ``q'·m`` is constant per user, so ranking is
  unchanged and exact scores are recovered by adding it back.  The shifted
  matrix has smaller magnitudes, tightening the quantization bound.
  (The original paper appends dimensions to keep partial products
  monotone; the per-user-constant shift is the simplification — it keeps
  the variant exact and keeps its extra-transform cost, which is what the
  batch-setting comparison measures.)

As in the paper, FEXIPRO is optimized for the **point-query** setting: each
user is served independently (matrix–vector work, no batching across
users).  This is precisely why it loses to batched strategies in the batch
setting — the behavior the reproduction must preserve — so ``batching``
is False and RECOPT may apply its T-test early stop to it.
"""
from __future__ import annotations

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.linalg.kernels import row_norms, topk_with_ids
from repro.mf.models import MFModel

_QUANT_MAX = 127.0  # int8-style range, as in the paper
_ENERGY_FRAC = 0.9


class FexiproIndex(Strategy):
    """FEXIPRO-lite exact MIPS (variants "SI" and "SIR")."""

    name = "fexipro"
    batching = False

    def __init__(self, model: MFModel, *, variant: str = "SI"):
        super().__init__(model)
        if variant not in ("SI", "SIR"):
            raise ValueError(f"variant must be 'SI' or 'SIR', got {variant!r}")
        self.variant = variant
        self.name = f"fexipro-{variant.lower()}"

    # -- construction ------------------------------------------------------
    def build(self) -> None:
        if self.built:
            return
        items = self.model.items
        f = self.model.f
        # S: rotation from the item matrix's right singular vectors.  The
        # economy SVD already yields the full (f, f) right factor whenever
        # n ≥ f; full_matrices=True would also materialize an n×n left
        # factor we never use (gigabytes at large n).  Only the degenerate
        # n < f case needs the full factorization for an orthonormal V.
        full = items.shape[0] < f
        _, svals, vt = np.linalg.svd(items, full_matrices=full)
        if vt.shape[0] < f:
            # n < f with economy SVD cannot happen (full=True above), but
            # guard the invariant: V must be a complete f×f rotation.
            raise AssertionError("SVD returned truncated right factor")
        self.v = vt[:f].T  # (f, f) orthonormal
        rot = items @ self.v
        energy = np.cumsum(svals**2)
        total = energy[-1] if energy.size else 0.0
        if total <= 0:
            self.h = f
        else:
            self.h = int(np.searchsorted(energy, _ENERGY_FRAC * total) + 1)
        self.h = max(1, min(self.h, f))

        # R: nonnegative shift (SIR only); shift contribution is per-user
        # constant so ranking is unchanged.
        if self.variant == "SIR":
            self.shift = rot.min(axis=0)
            work = rot - self.shift
        else:
            self.shift = np.zeros(f)
            work = rot

        # Items visited in descending working-norm order so the first K
        # exact scores give a strong initial threshold.
        self.order = np.argsort(-row_norms(work), kind="stable")
        self.rot_items = work[self.order]
        self.res_norms = row_norms(self.rot_items[:, self.h :])
        # Original-space items in visit order: all *reported* scores are
        # computed here, so the rotation's ~1-ulp float error only ever
        # affects pruning (where a conservative slack absorbs it), never
        # the returned scores.
        self.orig_sorted = items[self.order]

        # I: integer quantization of the leading dims + rounding-error terms.
        lead = self.rot_items[:, : self.h]
        amax = np.abs(lead).max(initial=0.0)
        self.s_p = _QUANT_MAX / amax if amax > 0 else 1.0
        self.q_items = np.rint(lead * self.s_p).astype(np.int64)
        self.q_items_abs_sum = np.abs(self.q_items).sum(axis=1).astype(np.float64)
        self.built = True

    # -- querying ----------------------------------------------------------
    def _query_one(self, u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        uq = u @ self.v
        const = float(uq @ self.shift)  # working-space offset for SIR (0 for SI)
        u_lead = uq[: self.h]
        u_res_norm = float(np.linalg.norm(uq[self.h :]))

        n = self.orig_sorted.shape[0]
        kk = min(k, n)
        # Seed threshold with exact original-space scores of the first kk
        # (largest-norm) items.
        seed_scores = self.orig_sorted[:kk] @ u
        if 0 < kk < n:
            thresh = seed_scores.min()  # kth-best of the kk seed items
            # Integer upper bound on the partial product (first h dims).
            amax_u = np.abs(u_lead).max(initial=0.0)
            s_q = _QUANT_MAX / amax_u if amax_u > 0 else 1.0
            u_q = np.rint(u_lead * s_q).astype(np.int64)
            int_dot = self.q_items[kk:] @ u_q
            err = 0.5 * (self.q_items_abs_sum[kk:] + np.abs(u_q).sum()) + 0.25 * self.h
            ub_partial = (int_dot + err) / (self.s_p * s_q)
            # Cauchy–Schwarz on the residual dims.  The bound lives in the
            # rotated working space: item passes iff its true score can
            # reach thresh, i.e. ub + const ≥ thresh, with a small
            # scale-aware slack absorbing the rotation's float error so
            # pruning stays conservative.
            ub = ub_partial + self.res_norms[kk:] * u_res_norm
            slack = 1e-9 * (1.0 + abs(thresh) + abs(const))
            cand = np.nonzero(ub + const >= thresh - slack)[0] + kk
            cand_scores = self.orig_sorted[cand] @ u
            all_pos = np.concatenate([np.arange(kk), cand])
            all_scores = np.concatenate([seed_scores, cand_scores])
        else:
            all_pos = np.arange(kk)
            all_scores = seed_scores
        ids, scores = topk_with_ids(self.order[all_pos][None, :], all_scores[None, :], kk)
        return ids[0], scores[0]

    def query(self, user_rows: np.ndarray, k: int) -> TopK:
        if not self.built:
            self.build()
        k = max(0, min(k, self.model.n))
        m = len(user_rows)
        out_ids = np.empty((m, k), dtype=np.int64)
        out_scores = np.empty((m, k))
        for i, r in enumerate(user_rows):
            ids, sc = self._query_one(self.model.users[r], k)
            out_ids[i], out_scores[i] = ids, sc
        return TopK(ids=out_ids, scores=out_scores)
