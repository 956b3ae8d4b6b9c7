"""RECDEX: cluster-users + sorted-bound-lists exact MIPS index (Section 5).

Construction (Algorithm 1, ``ConstructIndex``):

1. k-means the user vectors into ``C`` clusters (paper default C=8);
2. per cluster, θ_b = max over member users of the user↔centroid angle;
3. per item, θ_ic = item↔centroid angle, and the Koenigstein-style bound
   (Eqn. 3)  r*_ci = ‖i‖·cos(θ_ic − θ_b)  if θ_b < θ_ic  else ‖i‖;
4. sort each cluster's items by r*_ci descending — the index.

Querying (Algorithm 1, ``QueryIndex``) walks a user's cluster list,
stopping when ‖u‖·r*_ci < kth-best u·i (Lemma 5.1 guarantees r* upper
bounds the ‖u‖-normalized score, so nothing past the stop can enter the
top-K).  Note Algorithm 1 in the paper compares the raw heap min against
CBound; the bound is on the *normalized* score, so we scale it by ‖u‖ —
without that the walk would terminate early for users with ‖u‖ > 1 and the
result would not be exact.  The walk is ``repro.linalg.kernels.bound_walk``,
which LEMP-lite also takes over its norm-sorted list.

Hardware-efficient execution (Section 5.4): the first ``B`` items of each
walk are shared across all of the cluster's users as one blocked matrix
multiply (paper default B=4096); the remainder is walked in smaller
vectorized chunks with per-chunk deactivation.  ``shared=False`` is the
lesion variant (per-user walk, no cross-user work sharing) used by the
Fig. 8 blocking lesion study.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.kmeans import kmeans
from repro.indexes.base import Strategy, TopK
from repro.linalg.kernels import angles_to, bound_walk, row_norms
# Unused here; the benchmark tracer (mipsbench/tracing.py) patches these names.
from repro.linalg.kernels import merge_topk, topk_with_ids  # noqa: F401
from repro.mf.models import MFModel

DEFAULT_CLUSTERS = 8  # paper: C=8
DEFAULT_BLOCK = 4096  # paper: B=4096
_WALK_CHUNK = 64  # vectorized chunk size for the post-prefix walk
KMEANS_ITERS = 10  # Lloyd iterations of the user clustering


def cbound(theta_ic: np.ndarray, item_norms: np.ndarray, theta_b: float) -> np.ndarray:
    """Eqn. 3: upper bound on the normalized rating r*_ci (vectorized).

    ``‖i‖·cos(θ_ic − θ_b)`` where the cluster spread θ_b is smaller than
    the item's angle θ_ic, else ``‖i‖`` (the cosine's max of 1 applies).
    """
    return np.where(
        theta_b < theta_ic,
        item_norms * np.cos(theta_ic - theta_b),
        item_norms,
    )


class _ClusterList:
    """One cluster's sorted index list.

    Only the shared prefix is materialized densely (``items_prefix``);
    post-prefix chunks are gathered lazily from the model's item matrix at
    query time.  Materializing the full sorted copy per cluster would
    duplicate the item matrix C times — measurably slow under this
    container's (gVisor) memory subsystem and pointless for users that
    terminate early.
    """

    __slots__ = ("label", "item_order", "bounds", "items_prefix")

    def __init__(
        self,
        label: int,
        item_order: np.ndarray,
        bounds: np.ndarray,
        items_prefix: np.ndarray,
    ):
        self.label = label
        self.item_order = item_order
        self.bounds = bounds
        self.items_prefix = items_prefix


class RecdexIndex(Strategy):
    """RECDEX exact MIPS index (the paper's contribution #3)."""

    name = "recdex"
    batching = True

    def __init__(
        self,
        model: MFModel,
        *,
        n_clusters: int = DEFAULT_CLUSTERS,
        block: int = DEFAULT_BLOCK,
        shared: bool = True,
        walk_chunk: int = _WALK_CHUNK,
        seed: int = 0,
    ):
        super().__init__(model)
        self.n_clusters = n_clusters
        self.block = max(1, block)
        self.shared = shared
        self.walk_chunk = max(1, walk_chunk)
        self.seed = seed
        self.clusters: list[_ClusterList] = []
        self.labels: np.ndarray | None = None
        #: wall-clock per construction stage, for the Fig. 8 breakdown
        self.timings: dict[str, float] = {}
        #: total items visited across all served users (w̄ numerator)
        self.items_visited = 0

    # -- construction ------------------------------------------------------
    def build(self) -> None:
        if self.built:
            return
        model = self.model
        t0 = time.perf_counter()
        labels, centers = kmeans(model.users, self.n_clusters, n_iters=KMEANS_ITERS, seed=self.seed)
        t1 = time.perf_counter()
        item_norms = row_norms(model.items)
        clusters: list[_ClusterList] = []
        theta_time = 0.0
        sort_time = 0.0
        for j in range(centers.shape[0]):
            user_rows = np.nonzero(labels == j)[0]
            if user_rows.size == 0:
                continue
            ts = time.perf_counter()
            theta_b = float(angles_to(model.users[user_rows], centers[j]).max())
            theta_ic = angles_to(model.items, centers[j])
            bounds = cbound(theta_ic, item_norms, theta_b)
            theta_time += time.perf_counter() - ts
            ts = time.perf_counter()
            order = np.argsort(-bounds, kind="stable")
            sort_time += time.perf_counter() - ts
            prefix_len = min(max(self.block, self.walk_chunk), model.n)
            clusters.append(
                _ClusterList(
                    label=j,
                    item_order=order,
                    bounds=bounds[order],
                    items_prefix=model.items[order[:prefix_len]],
                )
            )
        self.labels = labels
        self.clusters = clusters
        self.timings = {
            "cluster": t1 - t0,
            "bound": theta_time,
            "sort": sort_time,
        }
        self.built = True

    # -- querying ----------------------------------------------------------
    def query(self, user_rows: np.ndarray, k: int) -> TopK:
        if not self.built:
            self.build()
        model = self.model
        k = max(0, min(k, model.n))
        req = np.asarray(user_rows, dtype=np.int64)
        m = len(req)
        out_ids = np.empty((m, k), dtype=np.int64)
        out_scores = np.empty((m, k))
        assert self.labels is not None
        req_labels = self.labels[req]
        # The lesion walks each user alone, with a chunk-sized prefix.
        prefix = self.block if self.shared else self.walk_chunk
        # Every output position is filled by its user's cluster, so duplicate
        # and unsorted rows are served like any others.
        for cl in self.clusters:
            out_idx = np.flatnonzero(req_labels == cl.label)
            if out_idx.size == 0:
                continue
            for walk_idx in [out_idx] if self.shared else out_idx[:, None]:
                ids, scores, visited = bound_walk(
                    model.users[req[walk_idx]],
                    model.items,
                    cl.item_order,
                    cl.bounds,
                    k,
                    head=cl.items_prefix,
                    prefix=prefix,
                    chunk=self.walk_chunk,
                )
                out_ids[walk_idx] = ids
                out_scores[walk_idx] = scores
                self.items_visited += visited
        return TopK(ids=out_ids, scores=out_scores)
