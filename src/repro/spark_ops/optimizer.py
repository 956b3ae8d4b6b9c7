"""RECOPT over Spark DataFrames.

The optimizer's estimation phase (build indexes, time a user sample) runs
on the driver — the sample is small by construction, and timing kernels
inside executors would measure scheduler noise rather than strategy cost.
The *serving* of all users is then dispatched to the distributed operator
of the winning strategy (``repro.spark_ops.serving``).
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.core.recopt import OptimizerReport, Recopt
from repro.indexes.base import Strategy
from repro.mf.models import MFModel
from repro.spark_ops.serving import index_topk, mm_topk


def recopt_serve(
    spark: SparkSession,
    users_df: DataFrame,
    model: MFModel,
    index_factories: dict[str, Callable[[MFModel], Strategy]],
    *,
    k: int,
    **recopt_kwargs,
) -> tuple[DataFrame, OptimizerReport]:
    """Choose a strategy via sampled timing, then serve ``users_df`` with it.

    ``recopt_kwargs`` (``sample_frac``, ``min_sample``, ``seed``) go to
    ``Recopt`` unchanged, so both paths share its defaults.  Returns the
    (lazy) top-K DataFrame and the optimizer report.  The winner's sample
    answer is *not* reused here — unlike the single-node path, re-serving
    the sampled users distributes along with everyone else and keeps the
    output a single clean DataFrame lineage.
    """
    report, winner, _ = Recopt(model, index_factories, k=k, **recopt_kwargs).estimate()
    if report.chosen == "mm":
        out = mm_topk(spark, users_df, model.items, k)
    else:
        out = index_topk(spark, users_df, winner, k)
    return out, report
