"""Seeded Lloyd's k-means — the clustering substrate for RECDEX.

The paper uses Armadillo's k-means ("standard k-means works remarkably
well" for approximating angular clusters, Section 5.1).  This is a NumPy
Lloyd's iteration with k-means++-style seeding, deterministic in
``seed``.  Empty clusters are re-seeded from the farthest point so the
requested cluster count is always honored.

Every step is a whole-array operation: squared distances come from the
expansion ‖x−c‖² = ‖x‖² − 2x·c + ‖c‖² (one GEMM for the Lloyd step, one
GEMV per seed), labels from the argmin of a contiguous ``(k, n)`` distance
array, and new centers from one GEMM of a ``(k, n)`` one-hot matrix with
the points, divided by a ``bincount`` of the labels.  Inputs must be
finite; strategies check that before they cluster.
"""
from __future__ import annotations

import numpy as np


def _seed_centers(
    x: np.ndarray, x_sq: np.ndarray, k: int, g: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = len(x)

    def sq_dists(c: np.ndarray) -> np.ndarray:
        # The expansion may round just below 0; probabilities must not.
        return np.maximum(x_sq - 2.0 * (x @ c) + c @ c, 0.0)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[g.integers(n)]
    d2 = sq_dists(centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = x[g.integers(n, size=k - j)]
            break
        probs = d2 / total
        centers[j] = x[g.choice(n, p=probs)]
        d2 = np.minimum(d2, sq_dists(centers[j]))
    return centers


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    n_iters: int = 25,
    seed: int = 0,
    tol: float = 1e-7,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of ``x`` into ``k`` groups.

    Returns ``(labels, centers)`` with ``labels`` shape ``(n,)`` in
    ``[0, k)`` and ``centers`` shape ``(k, f)``.  ``k`` is clamped to the
    number of points.  Iteration stops after ``n_iters`` Lloyd steps, or
    once no center moves by ``tol`` or more (squared distance).
    """
    n = len(x)
    k = min(k, n)
    g = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", x, x)
    centers = _seed_centers(x, x_sq, k, g)
    clusters = np.arange(k)[:, None]

    def sq_dists(c: np.ndarray) -> np.ndarray:
        # (k, n): each center's distances are one contiguous row.
        return x_sq - 2.0 * (c @ x.T) + np.einsum("ij,ij->i", c, c)[:, None]

    for _ in range(n_iters):
        d2 = sq_dists(centers)
        labels = d2.argmin(axis=0)
        counts = np.bincount(labels, minlength=k)
        new_centers = ((labels == clusters) @ x) / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            # Re-seed empty clusters at the current farthest point.
            new_centers[empty] = x[int(np.argmax(d2.min(axis=0)))]
        moved = new_centers - centers
        centers = new_centers
        if float(np.einsum("ij,ij->i", moved, moved).max()) < tol:
            break
    return sq_dists(centers).argmin(axis=0), centers
