"""The benchmark's workloads and how one call serves one cell of them.

A *cell* is one reference-grid model at one K; a *call* serves every user
of the cell's model with RECOPT; a *pass* makes one call per cell, in a
fixed order.  The loop is closed: one caller, and each call starts when
the previous one (and its exactness check) has returned.
"""
from __future__ import annotations

import math
import os
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.recopt import OptimizerReport, Recopt
from repro.experiments.grid import strategy_factories
from repro.indexes.base import Strategy
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.mf.models import MFModel

KS = (1, 10, 50)
#: index candidates RECOPT weighs against (implicit) blocked MM
IN_PROCESS_INDEXES = ("lemp", "recdex", "fexipro-si")
SPARK_INDEXES = ("lemp", "recdex")
#: 2 Python workers with 1 BLAS thread each, the JVM and the benchmark's
#: process share the 4 cores the sizing runs had
SPARK_MASTER = "local[2]"
SPARK_PARTITIONS = 2  # one users-DataFrame partition per task slot
#: FEXIPRO is a point-query strategy; when timing it as a fixed choice it
#: serves users in chunks so the timing can stop once it cannot win
_POINT_CHUNK = 256


@dataclass(frozen=True)
class Workload:
    """Which grid models a pass serves (each at every K in ``KS``), and how.

    Why each workload exists is recorded next to its name in
    ``BENCHMARK.json`` and ``mipsbench/METRICS.md``.
    """

    name: str
    models: tuple[str, ...]
    spark: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-mm", ("netflix-f16-lo", "netflix-f32-lo", "r2-f16-lo", "r2-f32-lo"), spark=False),
        Workload("batch-indexable", ("kdd-f16-hi", "kdd-f32-hi", "glove-f16-hi", "glove-f32-hi"), spark=False),
        Workload("spark-serve", ("kdd-f16-hi", "netflix-f32-lo"), spark=True),
    )
}


@dataclass
class Cell:
    model: MFModel
    k: int
    factories: dict[str, Callable[[MFModel], Strategy]]
    users_df: object = None  # cached Spark DataFrame (spark workload only)
    best_fixed_s: float = math.nan  # fastest fixed strategy's build+serve
    _reference: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return f"{self.model.name}/k{self.k}"

    def reference(self) -> tuple[np.ndarray, np.ndarray]:
        """In-process exact answer (blocked MM), computed once, untimed."""
        if self._reference is None:
            self._reference = blocked_mm_topk(self.model.users, self.model.items, self.k)
        return self._reference


def make_cells(workload: Workload, models: dict[str, MFModel]) -> list[Cell]:
    names = SPARK_INDEXES if workload.spark else IN_PROCESS_INDEXES
    cells = []
    for model_name in workload.models:
        model = models[model_name]
        all_factories = strategy_factories(model)
        factories = {n: all_factories[n] for n in names}
        cells.extend(Cell(model, k, factories) for k in KS)
    return cells


def serve_in_process(cell: Cell, seed: int) -> tuple[np.ndarray, np.ndarray, OptimizerReport]:
    res, report = Recopt(cell.model, cell.factories, k=cell.k, seed=seed).run()
    return res.ids, res.scores, report


def serve_spark(spark, cell: Cell, seed: int, collect_span):
    """``recopt_serve(...).toPandas()``: the answer rows, collected to this
    process, where the exactness gate checks them.  ``collect_span`` wraps
    the Spark action."""
    from repro.spark_ops import recopt_serve

    out, report = recopt_serve(spark, cell.users_df, cell.model, cell.factories, k=cell.k, seed=seed)
    with collect_span("spark.collect"):
        rows = out.toPandas()
    return rows, report


def time_best_fixed_in_process(cell: Cell) -> float:
    """Fastest build+serve of all users over MM and every candidate index."""
    m = cell.model.m
    rows = np.arange(m)
    best = math.inf
    for factory in [strategy_factories(cell.model)["mm"], *cell.factories.values()]:
        t0 = time.perf_counter()
        strat = factory(cell.model)
        strat.build()
        step = m if strat.batching else _POINT_CHUNK
        for start in range(0, m, step):
            strat.query(rows[start : start + step], cell.k)
            if time.perf_counter() - t0 > best:
                break  # already slower than the best: cannot be the best
        best = min(best, time.perf_counter() - t0)
    return best


def time_best_fixed_spark(spark, cell: Cell) -> float:
    """Fastest ``serve_topk(...).toPandas()`` over MM and every candidate index."""
    from repro.spark_ops import serve_topk

    best = math.inf
    for name in ("mm", *cell.factories):
        t0 = time.perf_counter()
        serve_topk(
            spark, cell.users_df, cell.model, cell.k, strategy=name, factory=cell.factories.get(name)
        ).toPandas()
        best = min(best, time.perf_counter() - t0)
    return best


# -- Spark session -----------------------------------------------------------
def start_spark(out_dir: str):
    """Local Spark session whose scratch files all stay under ``out_dir``."""
    local_dir = os.path.join(out_dir, "spark-local")
    tmp_dir = os.path.join(out_dir, "tmp")
    for d in (local_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    # Every JVM, the spark-submit launcher's too, keeps its temporary files
    # here and writes no /tmp/hsperfdata_* files.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={shlex.quote(tmp_dir)} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SPARK_MASTER}",
            "--driver-memory 1g",
            f"--conf {shlex.quote('spark.local.dir=' + local_dir)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("mipsbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(SPARK_PARTITIONS))
        .config("spark.sql.warehouse.dir", os.path.join(out_dir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin pipe closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spark_tasks(spark, group: str) -> int:
    """Tasks run by every job of one job group."""
    tracker = spark.sparkContext.statusTracker()
    tasks = 0
    for job_id in tracker.getJobIdsForGroup(group):
        job = tracker.getJobInfo(job_id)
        for stage_id in job.stageIds if job else ():
            stage = tracker.getStageInfo(stage_id)
            tasks += stage.numTasks if stage else 0
    return tasks
