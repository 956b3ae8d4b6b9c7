"""Set-up, the closed measurement loop, metrics and output of one run."""
from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from envinfo import environment
from exactness import bad_rows, mismatched_rows, rows_to_topk
from repro.experiments.grid import reference_grid
from repro.linalg.blocked_mm import blocked_mm_topk
from tracing import Tracer, layer_sums, write_spans
from workloads import (
    SPARK_MASTER,
    SPARK_PARTITIONS,
    Cell,
    Workload,
    make_cells,
    serve_in_process,
    serve_spark,
    spark_tasks,
    start_spark,
    stop_spark,
    time_best_fixed_in_process,
    time_best_fixed_spark,
)

#: the tail percentile reported is the highest one with this many calls beyond it
TAIL_CALLS = 10
#: repetitions of the repeatable set-up steps; set-up counts their median
SETUP_REPEATS = 3


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order ``BENCHMARK.json`` lists them."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


#: per-layer metrics that are not a sum over the calls of one pass
_WHOLE_RUN = {
    "recdex.scored_frac",
    "recopt.sample_users",
    "recopt.chose_index_frac",
    "recopt.est_error",
    "recopt.regret",
    "spark.users_df_s",
    "mf.model_gen_s",
    "validate.check_s",
    "trace.overhead_frac",
}


@dataclass
class Call:
    """One timed call and what was learned about it outside the timing."""

    id: int
    pass_no: int
    traced: bool
    cell: Cell
    wall_s: float = 0.0
    ok: bool = False
    chosen: str = "?"
    report: object = None
    check_s: float = 0.0
    extra: dict = field(default_factory=dict)  # traced Spark calls: tasks, bytes, kernel_s


@dataclass
class Context:
    workload: Workload
    seed: int
    cells: list[Cell]
    tracer: Tracer
    spark: object = None
    calls: list[Call] = field(default_factory=list)


# -- one call ---------------------------------------------------------------
# Each serves one cell inside the timing and returns the exactness check,
# which the caller runs outside it.
def _call_in_process(ctx: Context, call: Call):
    cell = call.cell
    t0 = time.perf_counter()
    with ctx.tracer.span("call", cell=cell.label):
        ids, scores, report = serve_in_process(cell, ctx.seed)
    call.wall_s = time.perf_counter() - t0
    call.report, call.chosen = report, report.chosen
    return lambda: bad_rows(cell.model.users, cell.model.items, ids, scores, cell.k) == 0


def _call_spark(ctx: Context, call: Call):
    cell, sc = call.cell, ctx.spark.sparkContext
    sc.setJobGroup(f"call-{call.id}", cell.label)
    t0 = time.perf_counter()
    with ctx.tracer.span("call", cell=cell.label):
        rows, report = serve_spark(ctx.spark, cell, ctx.seed, ctx.tracer.span)
    call.wall_s = time.perf_counter() - t0
    call.report, call.chosen = report, report.chosen
    sc.setJobGroup("untimed", "checks and layer measurements")
    if call.traced:
        _spark_layer_extras(ctx, call)

    def check() -> bool:
        got = rows_to_topk(rows, cell.model.m, min(cell.k, cell.model.n))
        if got is None:
            return False
        ref_ids, ref_scores = cell.reference()
        return (
            bad_rows(cell.model.users, cell.model.items, *got, cell.k) == 0
            and mismatched_rows(*got, ref_ids, ref_scores) == 0
        )

    return check


def _spark_layer_extras(ctx: Context, call: Call) -> None:
    """Tasks, broadcast bytes and the in-process kernel time of a traced call."""
    cell = call.cell
    call.extra["tasks"] = spark_tasks(ctx.spark, f"call-{call.id}")
    operator = [s for s in ctx.tracer.spans if s["call"] == call.id and s["name"] == "spark.operator"]
    payload = operator[-1]["attrs"].pop("payload")
    call.extra["broadcast_bytes"] = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    with ctx.tracer.paused():
        t0 = time.perf_counter()
        if call.chosen == "mm":
            blocked_mm_topk(cell.model.users, cell.model.items, cell.k)
        else:
            payload.query(np.arange(cell.model.m), cell.k)
        call.extra["kernel_s"] = time.perf_counter() - t0


def run_pass(ctx: Context, pass_no: int, traced: bool = False, warmup: bool = False) -> None:
    """One call per cell, back to back.  The calls' exactness checks run
    after the last call, and then garbage is collected, so that no call
    pays for an earlier check.  Warm-up calls are neither checked nor
    recorded, but one that raises stops the run."""
    serve = _call_spark if ctx.workload.spark else _call_in_process
    checks = []
    if traced:
        ctx.tracer.install()
    try:
        for cell in ctx.cells:
            call = Call(id=-1 if warmup else len(ctx.calls), pass_no=pass_no, traced=traced, cell=cell)
            ctx.tracer.call_id = call.id
            if warmup:
                serve(ctx, call)
                continue
            try:
                checks.append((call, serve(ctx, call)))
            except Exception:  # a raising call is a failed call; keep measuring
                traceback.print_exc(file=sys.stderr)
            ctx.calls.append(call)
    finally:
        ctx.tracer.uninstall()
    for call, check in checks:
        t0 = time.perf_counter()
        try:
            call.ok = check()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        call.check_s = time.perf_counter() - t0
    _collect_garbage(ctx)


def _collect_garbage(ctx: Context) -> None:
    """Collect the driver's garbage, and the Spark JVM's, untimed."""
    gc.collect()
    if ctx.spark is not None:
        ctx.spark.sparkContext._jvm.System.gc()


# -- set-up -----------------------------------------------------------------
def _setup_once_repeatable(workload: Workload, scale: float, seed: int, spark):
    """Model generation, BLAS warm-up and users-DataFrame caching, timed."""
    t0 = time.perf_counter()
    grid = {m.name: m for m in reference_grid(scale=scale, seed=seed)}
    models = {name: grid[name] for name in workload.models}
    t_models = time.perf_counter() - t0
    _ = np.random.rand(1024, 64) @ np.random.rand(64, 4096)  # BLAS thread-pool warm-up
    dfs, t_dfs = {}, 0.0
    if spark is not None:
        from repro.spark_ops import model_to_user_df

        t1 = time.perf_counter()
        for name, model in models.items():
            dfs[name] = model_to_user_df(spark, model, n_partitions=SPARK_PARTITIONS).cache()
            dfs[name].count()
        t_dfs = time.perf_counter() - t1
    return models, dfs, time.perf_counter() - t0, t_models, t_dfs


# -- metrics ----------------------------------------------------------------
def _tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, calls beyond) of the highest percentile with
    ``TAIL_CALLS`` calls beyond it (the maximum if there are too few calls)."""
    xs = sorted(walls)
    n = len(xs)
    if n <= TAIL_CALLS:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_CALLS - 1], 100.0 * (n - TAIL_CALLS) / n, TAIL_CALLS


def end_to_end(calls: list[Call], setup_s: float) -> tuple[dict, dict]:
    walls = [c.wall_s for c in calls]
    tail, pct, beyond = _tail(walls)
    metrics = {
        "users_per_s": sum(c.cell.model.m for c in calls if c.ok) / sum(walls),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "calls": len(calls),
        "call_tail_percentile": round(pct, 2),
        "calls_beyond_tail": beyond,
        "failed_frac": sum(not c.ok for c in calls) / len(calls),
    }
    return metrics, notes


def _est_error(call: Call, spark: bool) -> float | None:
    """|estimated - realised| / realised total seconds of RECOPT's winner."""
    r = call.report
    build = r.build_times.get(r.chosen, 0.0)
    m = call.cell.model.m
    if spark:  # the operator re-serves every user, sample included
        realised = build + (call.wall_s - r.optimize_seconds)
    else:
        remaining = m - r.sample_users_measured[r.chosen]
        if remaining <= 0:
            return None
        realised = build + r.serve_seconds / remaining * m
    return abs(r.est_totals[r.chosen] - realised) / realised


def per_layer(ctx: Context, setup: dict) -> dict:
    traced_passes = sorted({c.pass_no for c in ctx.calls if c.traced})
    untraced = [c for c in ctx.calls if not c.traced and c.report is not None]
    pass_of = {c.id: c.pass_no for c in ctx.calls}
    spans_by_pass = defaultdict(list)
    for s in ctx.tracer.spans:
        spans_by_pass[pass_of[s["call"]]].append(s)
    per_pass = []
    for p in traced_passes:
        sums = defaultdict(float, layer_sums(spans_by_pass[p]))
        for c in ctx.calls:
            if c.pass_no == p:
                for key in ("tasks", "broadcast_bytes", "kernel_s"):
                    sums["spark." + key] += c.extra.get(key, 0)
        sums["spark.overhead_s"] = sums["spark.serve_s"] - sums["spark.kernel_s"] if ctx.workload.spark else 0.0
        per_pass.append(sums)
    names = metric_units("per_layer")
    out = {name: statistics.median(s[name] for s in per_pass) for name in names if name not in _WHOLE_RUN}

    totals = defaultdict(float)
    for s in per_pass:
        for key in ("recdex.items_scored", "recdex.items_possible"):
            totals[key] += s[key]
    out["recdex.scored_frac"] = totals["recdex.items_scored"] / totals["recdex.items_possible"] if totals["recdex.items_possible"] else 0.0
    reported = [c for c in ctx.calls if c.report is not None]
    out["recopt.sample_users"] = statistics.median(c.report.sample_size for c in reported)
    out["recopt.chose_index_frac"] = sum(c.chosen != "mm" for c in reported) / len(reported)
    errors = [e for c in untraced if (e := _est_error(c, ctx.workload.spark)) is not None]
    out["recopt.est_error"] = statistics.median(errors) if errors else 0.0
    out["recopt.regret"] = statistics.median(c.wall_s / c.cell.best_fixed_s for c in untraced)
    out["spark.users_df_s"] = setup["users_df_s"]
    out["mf.model_gen_s"] = setup["model_gen_s"]
    out["validate.check_s"] = statistics.median(
        sum(c.check_s for c in ctx.calls if c.pass_no == p) for p in {c.pass_no for c in ctx.calls}
    )
    pass_wall = defaultdict(float)
    for c in ctx.calls:
        pass_wall[c.pass_no] += c.wall_s
    traced_wall = statistics.median(pass_wall[p] for p in traced_passes)
    untraced_wall = statistics.median(w for p, w in pass_wall.items() if p not in traced_passes)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: float(out[name]) for name in names}


# -- the run ----------------------------------------------------------------
def run(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float,
    t0: float,
    out_dir: str,
) -> dict:
    spark = start_spark(os.path.abspath(out_dir)) if workload.spark else None
    try:
        return _run(workload, seed, seconds, traced, scale, t0, out_dir, spark)
    finally:
        if spark is not None:
            stop_spark(spark)


def _warmup_passes(workload: Workload) -> int:
    # Spark's second pass is still ~10% slower than later ones (JVM JIT,
    # Python worker reuse); in-process passes are steady after one.
    return 2 if workload.spark else 1


def _set_up(workload: Workload, seed: int, scale: float, t0: float, spark) -> tuple[Context, dict]:
    """One-off steps (imports, Spark start) count once; the repeatable steps
    run ``SETUP_REPEATS`` times and count by their median; the discarded
    warm-up passes (Python workers start, caches fill) count in full."""
    once_s = time.perf_counter() - t0
    reps, dfs = [], {}
    for _ in range(SETUP_REPEATS):
        for df in dfs.values():  # drop the previous repetition's cache, untimed
            df.unpersist(blocking=True)
        models, dfs, total, t_models, t_dfs = _setup_once_repeatable(workload, scale, seed, spark)
        reps.append((total, t_models, t_dfs))
    ctx = Context(workload, seed, make_cells(workload, models), Tracer(), spark)
    for cell in ctx.cells:
        cell.users_df = dfs.get(cell.model.name)
    t_warm = time.perf_counter()
    for _ in range(_warmup_passes(workload)):
        run_pass(ctx, pass_no=-1, warmup=True)
    warm_s = time.perf_counter() - t_warm
    repeatable_s = statistics.median(r[0] for r in reps)
    return ctx, {
        "setup_s": once_s + repeatable_s + warm_s,
        "steps_s": {"once": once_s, "repeatable_median": repeatable_s, "warmup_passes": warm_s},
        "model_gen_s": statistics.median(r[1] for r in reps),
        "users_df_s": statistics.median(r[2] for r in reps),
    }


def _run(workload, seed, seconds, traced, scale, t0, out_dir, spark) -> dict:
    ctx, setup = _set_up(workload, seed, scale, t0, spark)

    # Closed loop of whole passes (at least two), as many as end nearest to
    # ``seconds``: another pass starts only if half a pass still fits.  The
    # trace run alternates untraced and traced passes, so the tracing
    # overhead is measured in the same run.
    t_loop = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - t_loop
        if passes >= 2 and elapsed + 0.5 * elapsed / passes > seconds:
            break
        run_pass(ctx, passes, traced=traced and passes % 2 == 1)
        passes += 1

    calls = ctx.calls
    e2e, notes = end_to_end(calls, setup["setup_s"])
    if traced:
        for cell in ctx.cells:
            cell.best_fixed_s = time_best_fixed_spark(spark, cell) if spark else time_best_fixed_in_process(cell)
        units = metric_units("per_layer")
        metrics = per_layer(ctx, setup)
    else:
        units = metric_units("end_to_end")
        metrics = {name: e2e[name] for name in units}
    result = {
        "correct": all(c.ok for c in calls),
        "attempted": len(calls),
        "failed": sum(not c.ok for c in calls),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    choices = defaultdict(Counter)
    for c in calls:
        choices[c.cell.label][c.chosen] += 1
    env = environment(master=SPARK_MASTER if spark else None, partitions=SPARK_PARTITIONS if spark else None)
    tag = f"{workload.name}-s{seed}-trace{int(traced)}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "seconds": seconds,
                "scale": scale,
                "env": env,
                "setup_steps_s": setup["steps_s"],
                "passes": passes,
                "pass_wall_s": [sum(c.wall_s for c in calls if c.pass_no == p) for p in range(passes)],
                "pass_check_s": [sum(c.check_s for c in calls if c.pass_no == p) for p in range(passes)],
                "end_to_end": e2e,
                **notes,
                "chosen_per_cell": {k: dict(v) for k, v in choices.items()},
                "call_wall_s_per_cell": {
                    cell.label: [c.wall_s for c in calls if c.cell is cell] for cell in ctx.cells
                },
                **result,
            },
            fh,
            indent=1,
        )
    if traced:
        write_spans(os.path.join(out_dir, f"spans-{tag}.json"), ctx.tracer.spans, {"workload": workload.name, "seed": seed})

    print(f"env: {json.dumps(env)}")
    print(f"workload {workload.name}: {len(calls)} calls in {passes} passes, "
          f"failed_frac = {notes['failed_frac']:.4f} ratio")
    print(f"call_tail_s is p{notes['call_tail_percentile']} with {notes['calls_beyond_tail']} calls beyond it")
    for label, counts in choices.items():
        print(f"chosen {label}: " + ", ".join(f"{k}x{v}" for k, v in sorted(counts.items())))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(result))
    return result
