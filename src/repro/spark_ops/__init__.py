"""PySpark operator layer: strategies as DataFrame → DataFrame transforms."""
from repro.spark_ops.frames import model_to_user_df
from repro.spark_ops.serving import serve_topk, TOPK_SCHEMA
from repro.spark_ops.optimizer import recopt_serve

__all__ = [
    "TOPK_SCHEMA",
    "model_to_user_df",
    "recopt_serve",
    "serve_topk",
]
