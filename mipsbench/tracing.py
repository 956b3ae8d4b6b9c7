"""Spans around the public functions of each ``repro`` layer, in this process.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each public
function with a timing wrapper *at the name the caller looks up*, and
``Tracer.uninstall`` puts the originals back.  Modules that import a
function by name hold their own reference, so those references are the
ones patched:

* ``repro.indexes.brute_force.blocked_mm_topk`` (MM's GEMM + select);
* ``repro.linalg.blocked_mm.topk_from_scores``;
* ``repro.linalg.kernels.topk_with_ids`` (reached through ``merge_topk``
  and ``topk_from_scores``), ``repro.core.recdex.topk_with_ids``;
* ``repro.core.recdex.merge_topk``, ``repro.indexes.lemp.merge_topk``;
* ``repro.core.recdex.kmeans``;
* ``build``/``query`` of each strategy class and ``Recopt.estimate``/``run``;
* ``repro.spark_ops.optimizer.mm_topk``/``index_topk`` (the operators).

Function objects that Spark pickles by reference
(``repro.linalg.blocked_mm.blocked_mm_topk`` and everything in
``repro.spark_ops.serving``) are deliberately left alone: executors import
their own, unpatched copies, and spans inside executors are out of scope.

Each span records name, start, end, parent span and the id of the call it
belongs to.  Spans stay in memory; ``write_spans`` dumps them at the end.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

import repro.core.recdex as recdex_mod
import repro.indexes.brute_force as brute_force_mod
import repro.indexes.lemp as lemp_mod
import repro.linalg.blocked_mm as blocked_mm_mod
import repro.linalg.kernels as kernels_mod
import repro.spark_ops.optimizer as spark_optimizer_mod
from repro.core.recdex import RecdexIndex
from repro.core.recopt import Recopt
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex

#: span names of the top-K selection kernels (their self times sum to
#: ``linalg.select_s``)
SELECT_SPANS = ("linalg.topk_with_ids", "linalg.topk_from_scores", "linalg.merge_topk")

# A hook gets (args, kwargs) before the call and returns a function that
# turns the call's result into span attributes.
Hook = Callable[[tuple, dict], Callable[[Any], dict]]


def _mm_scores(args, kwargs):
    users, items = args[0], args[1]
    computed = int(users.shape[0]) * int(items.shape[0])
    return lambda result: {"scores": computed}


def _recdex_build(args, kwargs):
    idx = args[0]
    return lambda result: {
        "bound_s": idx.timings.get("bound", 0.0),
        "sort_s": idx.timings.get("sort", 0.0),
    }


def _recdex_query(args, kwargs):
    idx, rows = args[0], args[1]
    before = idx.items_visited
    return lambda result: {
        "items_scored": idx.items_visited - before,
        "items_possible": len(rows) * idx.model.n,
    }


def _operator(args, kwargs):
    # mm_topk(spark, users_df, items, k) / index_topk(spark, users_df, strategy, k):
    # keep a reference to the broadcast payload; it is pickled and measured
    # after the call, outside the timed region.
    payload = args[2]
    return lambda result: {"payload": payload}


# (owner, attribute, span name, hook)
LAYER_PATCHES: list[tuple[Any, str, str, Hook | None]] = [
    (brute_force_mod, "blocked_mm_topk", "linalg.blocked_mm_topk", _mm_scores),
    (blocked_mm_mod, "topk_from_scores", "linalg.topk_from_scores", None),
    (kernels_mod, "topk_with_ids", "linalg.topk_with_ids", None),
    (recdex_mod, "topk_with_ids", "linalg.topk_with_ids", None),
    (recdex_mod, "merge_topk", "linalg.merge_topk", None),
    (lemp_mod, "merge_topk", "linalg.merge_topk", None),
    (recdex_mod, "kmeans", "kmeans", None),
    (RecdexIndex, "build", "recdex.build", _recdex_build),
    (RecdexIndex, "query", "recdex.query", _recdex_query),
    (LempIndex, "build", "lemp.build", None),
    (LempIndex, "query", "lemp.query", None),
    (FexiproIndex, "build", "fexipro.build", None),
    (FexiproIndex, "query", "fexipro.query", None),
    (BlockedMM, "query", "mm.query", None),
    (Recopt, "estimate", "recopt.estimate", None),
    (Recopt, "run", "recopt.run", None),
    (spark_optimizer_mod, "mm_topk", "spark.operator", _operator),
    (spark_optimizer_mod, "index_topk", "spark.operator", _operator),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer patches."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._paused = False

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict for the caller to fill.

        Records nothing unless the patches are installed and not paused, so
        the same call code runs in traced and untraced passes.
        """
        if self._paused or not self._saved:
            yield attrs
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "call": self.call_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run side work (checks, reference kernels) without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patches -----------------------------------------------------------
    def _wrapper(self, name: str, fn, hook: Hook | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            finish = hook(args, kwargs) if hook else None
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if finish:
                    attrs.update(finish(result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, hook in LAYER_PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the time its direct children cover.

    Children of one span run sequentially (one thread), so the part
    of the interval they cover is the sum of their durations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child_time[s["id"]] for s in spans]


def layer_self_time(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        out[s["name"]] += st
    return dict(out)


def write_spans(path: str, spans: list[dict], meta: dict) -> None:
    """Dump spans (JSON-safe attributes only) plus per-layer self time."""
    rows = [
        {**s, "attrs": {k: v for k, v in s["attrs"].items() if isinstance(v, (int, float, str))}}
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({**meta, "layer_self_s": layer_self_time(spans), "spans": rows}, fh)


def layer_sums(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one set of spans (one pass of the workload).

    Times of layers that contain other layers (a build, a query, RECOPT's
    phases) are inclusive wall-clock.  ``blocked_mm_topk`` contains the
    selection spans, so the GEMM and selection times are self times.
    """
    out: dict[str, float] = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s, own in zip(spans, self_times(spans)):
        name, attrs, d = s["name"], s["attrs"], s["end"] - s["start"]
        parent = by_id.get(s["parent"])
        if name == "linalg.blocked_mm_topk":
            out["linalg.gemm_s"] += own
            out["linalg.scores_computed"] += attrs["scores"]
        elif name in SELECT_SPANS:
            out["linalg.select_s"] += own
            out["linalg.select_calls"] += name == "linalg.topk_with_ids"
        elif name == "kmeans":
            out["kmeans.s"] += d
        elif name == "recdex.query":
            out["recdex.query_s"] += d
            out["recdex.items_scored"] += attrs["items_scored"]
            out["recdex.items_possible"] += attrs["items_possible"]
        elif name in ("recdex.build", "lemp.build", "lemp.query", "fexipro.build", "fexipro.query", "mm.query"):
            out[name + "_s"] += d
            if name == "recdex.build":
                out["recdex.bound_s"] += attrs["bound_s"]
                out["recdex.sort_s"] += attrs["sort_s"]
        elif name == "recopt.estimate":
            out["recopt.optimize_s"] += d
            if parent is not None and parent["name"] == "recopt.run":
                out["recopt.serve_s"] -= d
        elif name == "recopt.run":
            out["recopt.serve_s"] += d
        elif name in ("spark.operator", "spark.collect"):
            out["spark.serve_s"] += d
        if name.endswith(".build") and parent is not None and parent["name"] == "recopt.estimate":
            out["recopt.build_s"] += d
    out["linalg.score_bytes_computed"] = 8 * out["linalg.scores_computed"]
    out["recopt.sample_s"] = out["recopt.optimize_s"] - out["recopt.build_s"]
    return dict(out)
