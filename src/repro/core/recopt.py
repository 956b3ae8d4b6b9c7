"""RECOPT: sampling-based optimizer choosing between indexes and blocked MM.

Implements Section 4:

1. build each candidate index in full (construction is cheap relative to
   traversal — Fig. 2);
2. draw a random user sample (default 1 %, floored at ``min_sample`` so
   batched kernels see real blocking effects — the paper's "at least four
   L2 cache lines" requirement, expressed as a user-count floor here);
3. time blocked MM on the sample, then each index on the sample.  For
   *point-query* indexes (``batching=False``) a one-sample T-test on the
   per-user times against MM's per-user mean enables early stopping
   (Section 4.1's optimization); batched indexes always measure the full
   sample;
4. extrapolate total runtimes ``C_I + Q_I·n`` vs ``M_I·n``, pick the
   minimum, serve the remaining users with the winner, and reuse the
   sample's results.

The T-test uses the normal approximation to the t distribution (sample
sizes are ≥ 30 by construction), via ``statistics.NormalDist`` — scipy is
not a dependency of this reproduction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.indexes.brute_force import BlockedMM
from repro.mf.models import MFModel

# Minimum per-user measurements before the T-test may stop.  The paper
# uses the CLT at large samples; at reproduction scale (10³–10⁴ users vs
# the paper's 10⁵–10⁶) a 30-user floor would already be a multiple of the
# paper's 0.5 % sample fraction, so the floor is kept proportionally small.
_MIN_TTEST_USERS = 16
_TTEST_ALPHA = 0.05


@dataclass
class OptimizerReport:
    """What RECOPT decided and what it cost."""

    chosen: str
    est_totals: dict[str, float]  # strategy name -> estimated total seconds
    build_times: dict[str, float]  # index name -> construction seconds
    sample_size: int
    sample_users_measured: dict[str, int]  # per strategy (T-test may stop early)
    optimize_seconds: float  # builds + sample measurements
    serve_seconds: float  # serving the remaining users with the winner
    ttest_stopped: dict[str, bool] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.optimize_seconds + self.serve_seconds


def _ttest_p(times: np.ndarray, mu0: float) -> float:
    """Two-sided one-sample test p-value (normal approximation)."""
    n = len(times)
    sd = float(times.std(ddof=1))
    if sd == 0.0:
        return 0.0 if float(times.mean()) != mu0 else 1.0
    z = (float(times.mean()) - mu0) / (sd / np.sqrt(n))
    return 2.0 * (1.0 - NormalDist().cdf(abs(z)))


class Recopt:
    """The MIPS serving optimizer (Section 4)."""

    def __init__(
        self,
        model: MFModel,
        index_factories: dict[str, "type | object"],
        *,
        k: int,
        sample_frac: float = 0.01,
        min_sample: int = 256,
        seed: int = 0,
        use_ttest: bool = True,
    ):
        """``index_factories`` maps name -> callable(model) -> Strategy.

        Blocked MM is always included as the implicit brute-force choice.
        ``min_sample`` is the paper's hardware-effects floor: batched
        strategies (MM, LEMP, RECDEX) must see enough users at once for
        blocking to show — too small a sample makes RECOPT overestimate
        their cost and misclassify.  Point-query indexes don't pay the
        full floor: the T-test stops their measurement early.
        """
        self.model = model
        self.index_factories = index_factories
        self.k = k
        self.sample_frac = sample_frac
        self.min_sample = min_sample
        self.seed = seed
        self.use_ttest = use_ttest

    def estimate(self) -> tuple[OptimizerReport, dict[str, Strategy], dict]:
        """Phases 1–4: build, sample, measure, extrapolate — no full serve.

        Returns the report (``serve_seconds`` = 0), the built strategies
        (including ``"mm"``), and the sampled artifacts needed to reuse
        sample results (``covered`` row arrays and partial ``TopK``s per
        strategy).  ``run`` completes the serve; the Spark optimizer
        instead dispatches a distributed operator for the winner.
        """
        model = self.model
        m = model.m
        g = np.random.default_rng(self.seed)
        t_opt0 = time.perf_counter()

        # 1. Build every candidate index (timed individually).
        indexes: dict[str, Strategy] = {}
        build_times: dict[str, float] = {}
        for name, factory in self.index_factories.items():
            t0 = time.perf_counter()
            idx = factory(model)
            idx.build()
            build_times[name] = time.perf_counter() - t0
            indexes[name] = idx

        # 2. Sample users.
        s = min(m, max(self.min_sample, int(np.ceil(self.sample_frac * m))))
        sample_rows = np.sort(g.choice(m, size=s, replace=False))

        # 3. Measure blocked MM on the sample.
        mm = BlockedMM(model)
        t0 = time.perf_counter()
        mm_sample = mm.query(sample_rows, self.k)
        mm_time = time.perf_counter() - t0
        mm_per_user = mm_time / s

        est_totals = {"mm": mm_per_user * m}
        measured: dict[str, int] = {"mm": s}
        ttest_stopped: dict[str, bool] = {}
        sample_results: dict[str, TopK | None] = {"mm": mm_sample}
        sample_covered: dict[str, np.ndarray] = {"mm": sample_rows}

        # 4. Measure each index on the sample.
        for name, idx in indexes.items():
            if not idx.batching and self.use_ttest:
                per_user, covered, partial = self._measure_point(idx, sample_rows, mm_per_user)
                est_totals[name] = build_times[name] + per_user * m
                measured[name] = len(covered)
                ttest_stopped[name] = len(covered) < s
                sample_results[name] = partial
                sample_covered[name] = covered
            else:
                t0 = time.perf_counter()
                res = idx.query(sample_rows, self.k)
                dt = time.perf_counter() - t0
                est_totals[name] = build_times[name] + (dt / s) * m
                measured[name] = s
                ttest_stopped[name] = False
                sample_results[name] = res
                sample_covered[name] = sample_rows
        optimize_seconds = time.perf_counter() - t_opt0

        chosen = min(est_totals, key=est_totals.get)  # type: ignore[arg-type]
        report = OptimizerReport(
            chosen=chosen,
            est_totals=est_totals,
            build_times=build_times,
            sample_size=s,
            sample_users_measured=measured,
            optimize_seconds=optimize_seconds,
            serve_seconds=0.0,
            ttest_stopped=ttest_stopped,
        )
        strategies: dict[str, Strategy] = {"mm": mm, **indexes}
        artifacts = {"covered": sample_covered, "results": sample_results}
        return report, strategies, artifacts

    def run(self) -> tuple[TopK, OptimizerReport]:
        report, strategies, artifacts = self.estimate()
        model = self.model
        m = model.m
        chosen = report.chosen

        # 5. Serve the rest with the winner; reuse sampled results.
        winner: Strategy = strategies[chosen]
        t0 = time.perf_counter()
        covered = artifacts["covered"][chosen]
        covered_res = artifacts["results"][chosen]
        remaining = np.setdiff1d(np.arange(m), covered, assume_unique=False)
        out_ids = np.empty((m, min(self.k, model.n)), dtype=np.int64)
        out_scores = np.empty_like(out_ids, dtype=np.float64)
        if covered_res is not None and len(covered):
            out_ids[covered] = covered_res.ids
            out_scores[covered] = covered_res.scores
        if len(remaining):
            rest = winner.query(remaining, self.k)
            out_ids[remaining] = rest.ids
            out_scores[remaining] = rest.scores
        report.serve_seconds = time.perf_counter() - t0
        return TopK(ids=out_ids, scores=out_scores), report

    def _measure_point(
        self, idx: Strategy, sample_rows: np.ndarray, mm_per_user: float
    ) -> tuple[float, np.ndarray, TopK]:
        """Per-user timing of a point-query index with T-test early stop."""
        times: list[float] = []
        ids_parts: list[np.ndarray] = []
        sc_parts: list[np.ndarray] = []
        used = 0
        for r in sample_rows:
            t0 = time.perf_counter()
            res = idx.query(np.array([r]), self.k)
            times.append(time.perf_counter() - t0)
            ids_parts.append(res.ids)
            sc_parts.append(res.scores)
            used += 1
            if used >= _MIN_TTEST_USERS and used % 4 == 0:
                if _ttest_p(np.array(times), mm_per_user) < _TTEST_ALPHA:
                    break
        covered = sample_rows[:used]
        partial = TopK(ids=np.vstack(ids_parts), scores=np.vstack(sc_parts))
        return float(np.mean(times)), covered, partial
