"""Linear-algebra substrate: norms, angles, top-K selection and the bound walk, blocked GEMM."""
from repro.linalg.kernels import (
    angles_to,
    row_norms,
    topk_from_scores,
)
from repro.linalg.blocked_mm import blocked_mm_topk

__all__ = [
    "angles_to",
    "blocked_mm_topk",
    "row_norms",
    "topk_from_scores",
]
