"""Every MIPS strategy as a per-partition vectorized Spark operator.

Per the reproduction plan (DESIGN.md §4), each strategy is expressed as a
DataFrame → DataFrame transform over the users frame via ``mapInPandas``:

* **mm** — pure data-parallel: each partition multiplies its users'
  feature block against the broadcast item matrix (blocked GEMM) and
  extracts top-K.  Only the broadcast *items* are shared state.
* **index strategies** (lemp / fexipro / recdex) — the index is built
  once on the driver (construction is cheap relative to traversal, the
  paper's Fig. 2 observation) and broadcast *built*; partitions query it
  by user id.  This matches the paper's batch setting, where the index is
  constructed over the model being served — RECDEX's θ_b bound is only
  valid for the users it was built on, so partitions must not rebuild it
  over arbitrary vector subsets.

Output schema: ``(user_id, item_id, rank, score)`` with ``rank`` starting
at 1 in canonical (score desc, item_id asc) order — exact top-K per user.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.indexes.base import Strategy
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.mf.models import MFModel

TOPK_SCHEMA = T.StructType(
    [
        T.StructField("user_id", T.LongType(), False),
        T.StructField("item_id", T.LongType(), False),
        T.StructField("rank", T.IntegerType(), False),
        T.StructField("score", T.DoubleType(), False),
    ]
)


def _emit(user_ids: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> pd.DataFrame:
    """Flatten per-user (ids, scores) arrays into long-format rows."""
    k = ids.shape[1]
    return pd.DataFrame(
        {
            "user_id": np.repeat(user_ids, k),
            "item_id": ids.ravel(),
            "rank": np.tile(np.arange(1, k + 1, dtype=np.int32), len(user_ids)),
            "score": scores.ravel(),
        }
    )


def mm_topk(
    spark: SparkSession, users_df: DataFrame, items: np.ndarray, k: int
) -> DataFrame:
    """Blocked-MM top-K as a data-parallel operator over the users frame."""
    items_bc = spark.sparkContext.broadcast(items)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        it = items_bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            u = np.stack(pdf["features"].to_numpy())
            ids, scores = blocked_mm_topk(u, it, k)
            yield _emit(pdf["id"].to_numpy(), ids, scores)

    return users_df.mapInPandas(fn, schema=TOPK_SCHEMA)


def index_topk(
    spark: SparkSession,
    users_df: DataFrame,
    strategy: Strategy,
    k: int,
) -> DataFrame:
    """Broadcast a driver-built index; partitions query it by user id."""
    if not strategy.built:
        strategy.build()
    strat_bc = spark.sparkContext.broadcast(strategy)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        strat = strat_bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            rows = pdf["id"].to_numpy()
            res = strat.query(rows, k)
            yield _emit(rows, res.ids, res.scores)

    return users_df.mapInPandas(fn, schema=TOPK_SCHEMA)


def serve_topk(
    spark: SparkSession,
    users_df: DataFrame,
    model: MFModel,
    k: int,
    *,
    strategy: str = "mm",
    factory: Callable[[MFModel], Strategy] | None = None,
) -> DataFrame:
    """Serve exact top-K with a named strategy ("mm") or an index factory.

    ``strategy="mm"`` runs the data-parallel blocked-MM operator; any other
    name requires ``factory`` to construct the index, which is built on the
    driver and broadcast.
    """
    if strategy == "mm":
        return mm_topk(spark, users_df, model.items, k)
    if factory is None:
        raise ValueError(f"strategy {strategy!r} requires an index factory")
    return index_topk(spark, users_df, factory(model), k)
