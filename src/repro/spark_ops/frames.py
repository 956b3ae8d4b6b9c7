"""MFModel → Spark DataFrame conversion.

User factors travel as an ``(id, features array<double>)`` DataFrame — the
layout the serving operators consume; items reach them by broadcast.  The
conversion goes through pandas with Arrow enabled (the session fixture
turns it on).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.mf.models import MFModel

VECTOR_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("features", T.ArrayType(T.DoubleType()), False),
    ]
)


def model_to_user_df(
    spark: SparkSession, model: MFModel, *, n_partitions: int | None = None
) -> DataFrame:
    """User factor matrix as a ``(id, features)`` DataFrame."""
    pdf = pd.DataFrame(
        {"id": np.arange(model.m, dtype=np.int64), "features": list(model.users)}
    )
    df = spark.createDataFrame(pdf, schema=VECTOR_SCHEMA)
    if n_partitions is not None:
        df = df.repartition(n_partitions)
    return df
